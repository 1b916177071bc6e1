"""The bound by which the driver's explicit step meets both CFL limits.

With D = max_j (sum_k l_k / |K_j|) max_k max(tau_j a_k, |u*_k|), the
denominator of ``dt_exex``, dt * D bounds the acoustic and the transport
CFL fraction at any dt; ``dt_exex`` keeps dt * D <= k_cfl / 2.  Neither
``explicit_acoustic`` nor ``combined_update`` checks a CFL fraction, so for
every valid k_cfl this dt must keep the acoustic fraction at most 1/2 and
the transport fraction at most 1.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpswe import mesh as meshmod
from lpswe.acoustic import acoustic_cfl_fraction
from lpswe.driver import (BoundaryCondition, _speed_max, dt_exex, dt_imex,
                          prepare_state, time_level)
from lpswe.fields import ConservedField, Params, Topography
from lpswe.flux_kernels import (evaluate_face_fluxes, hydrostatic_source,
                                impedance, interface_pressures,
                                interface_velocity, theta_policy)
from lpswe.scenarios import bump_topography
from lpswe.transport import transport_cfl_fraction

BCS = {"neumann": BoundaryCondition(),
       "periodic": BoundaryCondition.periodic_all()}


@pytest.fixture(scope="module")
def meshes(mixed_mesh):
    assert sorted(np.diff(mixed_mesh.cell_offsets)) == [3] * 7 + [4] * 3 + [5]
    assert mixed_mesh.area.sum() == pytest.approx(1.0, rel=1e-14)
    return {"cartesian": meshmod.build_cartesian(5, 4),
            "triangulated": meshmod.build_triangulated(4, 5),
            "mixed": mixed_mesh}


def _state(mesh, bc, h, hu, p=None):
    """Time-n record over the bump; ``state.mesh`` is bound to ``bc``."""
    p = p or Params()
    z = 0.1 * bump_topography(mesh.centroid[:, 0])
    state = prepare_state(mesh, Topography(z), ConservedField(h, hu), bc, p)
    return p, state, time_level(state)


def _fields(data, n):
    h = data.draw(arrays(float, n, elements=st.floats(1e-3, 1e2)))
    hu = data.draw(arrays(float, (n, 2), elements=st.floats(-1e2, 1e2)))
    return h, hu


KINDS = ("cartesian", "triangulated", "mixed")


@pytest.mark.parametrize("bc", sorted(BCS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dt_bound_covers_both_cfl_fractions(meshes, kind, bc, data):
    p, state, tn = _state(meshes[kind], BCS[bc],
                          *_fields(data, meshes[kind].n_cells))
    mesh, r, fluxes = state.mesh, tn.relaxed, tn.fluxes
    D = _speed_max(mesh, fluxes.u_star, r.tau, fluxes.a)
    # k_cfl = 1, the largest valid value, on every example, and one drawn
    # from (0, 1]; below 1e-9 it would only scale dt further down, towards
    # the subnormal range where dt * D loses the relative roundoff bound.
    for k_cfl in (1.0, data.draw(st.floats(1e-9, 1.0))):
        p = replace(p, k_cfl=k_cfl)
        dt = dt_exex(mesh, r.tau, fluxes, p, np.inf)
        assert dt * D <= 0.5 * p.k_cfl * (1.0 + 1e-15)
        # The acoustic fraction has at least a factor 2 to spare (no face
        # is longer than the rest of its convex cell's perimeter); the
        # transport fraction can meet the bound, up to the roundoff of its
        # sums.
        acoustic = acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
        transport = transport_cfl_fraction(mesh, fluxes.u_star, dt)
        assert acoustic <= dt * D
        assert transport <= dt * D * (1.0 + 1e-12)
        assert acoustic <= 0.5
        assert transport <= 1.0


def _cell_max(mesh, w_owner, w_neighbor):
    """Per-cell max of face weights (and 0), owner cells over ``w_owner``
    and interior neighbor cells over ``w_neighbor``: the reference form of
    the maxima, one ``np.maximum.at`` per side."""
    out = np.zeros(mesh.n_cells + 1)
    np.maximum.at(out, mesh.face_owner, w_owner)
    np.maximum.at(out, mesh.face_neighbor, w_neighbor)
    return out[:mesh.n_cells]


@pytest.mark.parametrize("bc", sorted(BCS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_face_side_maxima_equal_per_cell_form(meshes, kind, bc, data):
    # the time-step denominators and the acoustic CFL fraction take one max
    # over both sides of every face; the per-cell form gives the same bits
    p, state, tn = _state(meshes[kind], BCS[bc],
                          *_fields(data, meshes[kind].n_cells))
    mesh, r, fluxes = state.mesh, tn.relaxed, tn.fluxes
    o, nb = mesh.face_owner, mesh.face_outer
    vt = np.abs(fluxes.u_star)
    D = np.max(mesh.perimeter_ratio * _cell_max(
        mesh, np.maximum(r.tau[o] * fluxes.a, vt),
        np.maximum(r.tau[nb] * fluxes.a, vt)))
    D_t = np.max(mesh.perimeter_ratio * _cell_max(mesh, vt, vt))
    assert _speed_max(mesh, fluxes.u_star, r.tau, fluxes.a) == D
    assert _speed_max(mesh, fluxes.u_star) == D_t
    assert dt_exex(mesh, r.tau, fluxes, p, np.inf) == p.k_cfl / (2.0 * D)
    assert dt_imex(mesh, fluxes.u_star, p, 1.0) == (
        min(p.k_cfl / (2.0 * D_t), 1.0) if D_t > 0.0 else 1.0)
    w = mesh.face_length * fluxes.a
    dt = data.draw(st.floats(1e-6, 1.0))
    assert acoustic_cfl_fraction(mesh, r.tau, fluxes, dt) == dt * np.max(
        r.tau * _cell_max(mesh, w, w) / mesh.area)


@pytest.mark.parametrize("policy", ["corrected", "unity"])
@pytest.mark.parametrize("bc", sorted(BCS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_face_fluxes_equal_scalar_kernels(meshes, kind, bc, policy, data):
    # every field of the in-place face evaluation is the composition of
    # the scalar kernels of the 1D reference solver, bit for bit; so are
    # the fluxes of another state with the time-n ones frozen
    p = Params(theta_policy=policy)
    p, state, tn = _state(meshes[kind], BCS[bc],
                          *_fields(data, meshes[kind].n_cells), p)
    mesh = state.mesh
    o, nb = mesh.face_owner, mesh.face_outer
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    h, z = state.conserved.h, state.topo.z

    def kernels(u, pi, a=None, theta=None, src=None):
        if a is None:
            a = impedance(h[o], h[nb], p)
            src = hydrostatic_source(h[o], h[nb], z[o], z[nb], p.g)
        u_nL = u[o, 0] * nx + u[o, 1] * ny
        u_nR = u[nb, 0] * nx + u[nb, 1] * ny
        u_star = interface_velocity(u_nL, u_nR, pi[o], pi[nb], a, src)
        if theta is None:
            theta = theta_policy(u_star, h[o], h[nb], p)
        pi_L, pi_R = interface_pressures(pi[o], pi[nb], u_nL, u_nR, a,
                                         theta, src)
        return dict(u_star=u_star, pi_star_L=pi_L, pi_star_R=pi_R, a=a,
                    theta=theta, src=src)

    def assert_bitwise(fluxes, expected):
        for name, value in expected.items():
            assert np.array_equal(getattr(fluxes, name), value), name

    r = tn.relaxed
    assert_bitwise(tn.fluxes, kernels(r.u, r.pi))
    u1 = data.draw(arrays(float, r.u.shape, elements=st.floats(-10, 10)))
    pi1 = r.pi * data.draw(st.floats(0.5, 2.0))
    f = tn.fluxes
    assert_bitwise(
        evaluate_face_fluxes(mesh, u1, pi1, None, None, p, frozen=f),
        kernels(u1, pi1, f.a, f.theta, f.src))
