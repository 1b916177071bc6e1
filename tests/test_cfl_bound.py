"""The bound that lets the driver's explicit step skip both CFL passes.

With D = max_j (sum_k l_k / |K_j|) max_k max(tau_j a_k, |u*_k|), the
denominator of ``dt_exex``, dt * D bounds the acoustic and the transport
CFL fraction at any dt; ``dt_exex`` keeps dt * D <= k_cfl / 2.  A bound
handed to ``explicit_acoustic`` or ``combined_update`` only skips the exact
check when it is within the limit, so they still raise whenever the exact
fraction is over it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpswe import mesh as meshmod
from lpswe.acoustic import (ACOUSTIC_CFL_LIMIT, acoustic_cfl_fraction,
                            explicit_acoustic)
from lpswe.driver import (BoundaryCondition, _speed_max, dt_exex, dt_imex,
                          prepare_state, time_level)
from lpswe.exceptions import CFLError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.flux_kernels import (evaluate_face_fluxes, hydrostatic_source,
                                impedance, interface_pressures,
                                interface_velocity, theta_policy)
from lpswe.scenarios import bump_topography
from lpswe.transport import (TRANSPORT_CFL_LIMIT, combined_update,
                             transport_cfl_fraction)

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
    """Time-n record over the bump, ghosts filled."""
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
    mesh = meshes[kind]
    p, state, tn = _state(mesh, BCS[bc], *_fields(data, mesh.n_cells))
    r, fluxes = tn.relaxed, tn.fluxes
    D = _speed_max(mesh, r.tau, fluxes)
    dt = dt_exex(mesh, r.tau, fluxes, p, np.inf)
    assert dt * D <= 0.5 * p.k_cfl * (1.0 + 1e-15)
    # The acoustic fraction has at least a factor 2 to spare (no face is
    # longer than the rest of its convex cell's perimeter); the transport
    # fraction can meet the bound, up to the roundoff of its sums.
    assert acoustic_cfl_fraction(mesh, r.tau, fluxes, dt) <= dt * D
    assert (transport_cfl_fraction(mesh, fluxes, dt)
            <= dt * D * (1.0 + 1e-12))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bound_over_limit_still_raises(meshes, kind, data):
    mesh = meshes[kind]
    p, state, tn = _state(mesh, BCS["periodic"],
                          *_fields(data, mesh.n_cells))
    r, fluxes = tn.relaxed, tn.fluxes
    D = _speed_max(mesh, r.tau, fluxes)
    dt = dt_exex(mesh, r.tau, fluxes, p, np.inf)

    # A bound over the limit sends the step to the exact fraction: within
    # it, the result is that of the step without any bound.
    ref = explicit_acoustic(tn, mesh, dt, state.donor)
    ac = explicit_acoustic(tn, mesh, dt, state.donor, cfl_bound=np.inf)
    assert np.array_equal(ac.relaxed.u, ref.relaxed.u)
    out = combined_update(state.conserved, ac, mesh, dt, cfl_bound=np.inf)
    assert np.array_equal(
        out.hu, combined_update(state.conserved, ref, mesh, dt).hu)

    # Over it, both raise.
    dt_big = dt / acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
    assert dt_big * D > ACOUSTIC_CFL_LIMIT
    with pytest.raises(CFLError, match="acoustic CFL"):
        explicit_acoustic(tn, mesh, dt_big, state.donor,
                          cfl_bound=dt_big * D)
    frac = transport_cfl_fraction(mesh, fluxes, dt)
    if frac > 0.0:
        dt_big = 2.0 * dt / frac
        assert dt_big * D > TRANSPORT_CFL_LIMIT
        with pytest.raises(CFLError, match="transport CFL"):
            combined_update(state.conserved, ac, mesh, dt_big,
                            cfl_bound=dt_big * D)


def _cell_max(mesh, w_owner, w_neighbor):
    """Per-cell max of face weights (and 0), owner cells over ``w_owner``
    and interior neighbor cells over ``w_neighbor``: the reference form of
    the maxima, one ``np.maximum.at`` per side."""
    out = np.zeros(mesh.n_total)
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
    mesh = meshes[kind]
    p, state, tn = _state(mesh, BCS[bc], *_fields(data, mesh.n_cells))
    r, fluxes = tn.relaxed, tn.fluxes
    o, nb, n = mesh.face_owner, mesh.face_neighbor, mesh.n_cells
    vt = np.abs(fluxes.u_star)
    D = np.max(mesh.perimeter_ratio * _cell_max(
        mesh, np.maximum(r.tau[o] * fluxes.a, vt),
        np.maximum(r.tau[nb] * fluxes.a, vt)))
    D_t = np.max(mesh.perimeter_ratio * _cell_max(mesh, vt, vt))
    assert _speed_max(mesh, r.tau, fluxes) == D
    assert _speed_max(mesh, None, fluxes) == D_t
    assert dt_exex(mesh, r.tau, fluxes, p, np.inf) == p.k_cfl / (2.0 * D)
    assert dt_imex(mesh, fluxes, p, 1.0) == (
        min(p.k_cfl / (2.0 * D_t), 1.0) if D_t > 0.0 else 1.0)
    w = mesh.face_length * fluxes.a
    dt = data.draw(st.floats(1e-6, 1.0))
    assert acoustic_cfl_fraction(mesh, r.tau, fluxes, dt) == dt * np.max(
        r.tau[:n] * _cell_max(mesh, w, w) / mesh.area)


@pytest.mark.parametrize("policy", ["corrected", "unity"])
@pytest.mark.parametrize("bc", sorted(BCS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_face_fluxes_equal_scalar_kernels(meshes, kind, bc, policy, data):
    # every field of the in-place face evaluation is the composition of
    # the scalar kernels of the 1D reference solver, bit for bit; so are
    # the fluxes of another state with the time-n ones frozen
    mesh = meshes[kind]
    p = Params(theta_policy=policy)
    p, state, tn = _state(mesh, BCS[bc], *_fields(data, mesh.n_cells), p)
    o, nb = mesh.face_owner, mesh.face_neighbor
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    h, z = tn.h, state.topo.z

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
