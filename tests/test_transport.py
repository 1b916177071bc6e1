import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.acceptance import lake_at_rest_errors
from lpswe.acoustic import (explicit_acoustic, implicit_acoustic,
                            implicit_pattern)
from lpswe.driver import (BoundaryCondition, dt_exex, prepare_state,
                          run_steps, time_level)
from lpswe.exceptions import CFLError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.scenarios import bump_topography, dam_break, get_scenario
from lpswe.tests_support import combined_vs_two_step
from lpswe.transport import (combined_update, transport,
                             transport_cfl_fraction)


def _acoustic_step(nx=8, ny=8, dt=1e-4):
    p = Params()
    mesh = meshmod.build_cartesian(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    return p, mesh, state, ac, dt


def test_combined_equals_two_step():
    assert combined_vs_two_step() <= 1e-12


def test_transport_constant_state_preserved():
    p = Params()
    mesh = meshmod.build_triangulated(5, 5)
    h = np.full(mesh.n_cells, 2.0)
    u = np.tile([0.3, -0.1], (mesh.n_cells, 1))
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic,
                          BoundaryCondition(), p)
    ac = explicit_acoustic(time_level(state), mesh, 1e-4, state.donor)
    out = transport(ac.relaxed, ac.fluxes, mesh, 1e-4)
    n = mesh.n_cells
    assert np.max(np.abs(out.h[:n] - 2.0)) < 1e-13
    assert np.max(np.abs(out.hu[:n] / 2.0 - u)) < 1e-13


def test_transport_cfl_fraction_scaling():
    p, mesh, state, ac, dt = _acoustic_step()
    f1 = transport_cfl_fraction(mesh, ac.fluxes, dt)
    f2 = transport_cfl_fraction(mesh, ac.fluxes, 2 * dt)
    assert f2 == pytest.approx(2.0 * f1)
    assert f1 >= 0.0


def test_transport_raises_on_cfl_violation():
    p, mesh, state, ac, dt = _acoustic_step()
    with pytest.raises(CFLError):
        transport(ac.relaxed, ac.fluxes, mesh, dt=1e3)


def test_combined_update_mass_conservation_periodic():
    p = Params()
    mesh = meshmod.build_cartesian(10, 10)
    rng = np.random.default_rng(5)
    h = rng.uniform(0.5, 1.5, mesh.n_cells)
    u = 0.2 * rng.normal(size=(mesh.n_cells, 2))
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic,
                          BoundaryCondition.periodic_all(), p)
    dt = 1e-4
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    out = combined_update(state.conserved, ac, mesh, dt)
    n = mesh.n_cells
    m0 = np.sum(mesh.area * state.conserved.h[:n])
    m1 = np.sum(mesh.area * out.h[:n])
    assert abs(m1 - m0) <= 1e-14 * m0


def test_upwind_direction():
    # pure translation to the right: the upstream (left) value propagates
    p = Params()
    mesh = meshmod.build_cartesian(10, 1)
    h = np.full(10, 1.0)
    h[:5] = 2.0
    u = np.tile([1.0, 0.0], (10, 1))
    # uniform velocity, flat bottom; Pi jumps, so use tiny dt and check
    # the mass flux sign at the jump face only
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(10)), ic,
                          BoundaryCondition(), p)
    dt = 1e-5
    ac = explicit_acoustic(time_level(state), mesh, dt, state.donor)
    out = transport(ac.relaxed, ac.fluxes, mesh, dt)
    # cell 5 receives mass from cell 4
    assert out.h[5] > 1.0
    # far-field cells unaffected
    assert out.h[8] == pytest.approx(1.0, abs=1e-12)


def _single_sum_update(c_n, ac, mesh, dt):
    """The update with the pressure flux summed together with the momentum
    transport flux, face by face: the reference form of ``combined_update``."""
    n = mesh.n_cells
    fl, r1 = ac.fluxes, ac.relaxed
    h1 = 1.0 / r1.tau
    lu = mesh.face_length * fl.u_star
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    wL = mesh.face_length * fl.pi_star_L
    wR = mesh.face_length * fl.pi_star_R
    up = np.where(fl.u_star >= 0.0, mesh.face_owner, mesh.face_neighbor)
    fh = lu * h1[up]
    fx = lu * (r1.u[up, 0] * h1[up])
    fy = lu * (r1.u[up, 1] * h1[up])
    dh = mesh.cell_sums(fh, -fh) / mesh.area
    dm = np.column_stack([mesh.cell_sums(fx + wL * nx, -fx - wR * nx),
                          mesh.cell_sums(fy + wL * ny, -fy - wR * ny)])
    return c_n.h[:n] - dt * dh, c_n.hu[:n] - dt * (dm / mesh.area[:, None])


def _random_periodic_quads():
    mesh = meshmod.build_cartesian(12, 10)
    rng = np.random.default_rng(7)
    h = rng.uniform(0.8, 1.2, mesh.n_cells)
    hu = rng.normal(scale=0.3, size=(mesh.n_cells, 2))
    return mesh, bump_topography(mesh.centroid[:, 0]), ConservedField(h, hu), \
        BoundaryCondition.periodic_all()


def _neumann_triangles():
    mesh = meshmod.build_triangulated(10, 10)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    ic.hu[:] = np.random.default_rng(3).normal(scale=0.2, size=ic.hu.shape)
    return mesh, z, ic, BoundaryCondition()


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
@pytest.mark.parametrize("case", [_random_periodic_quads, _neumann_triangles])
def test_pressure_force_summed_once_matches_single_sum(case, scheme):
    # the acoustic step's force added to the transport sums reassociates
    # the single face sum; both agree to roundoff
    mesh, z, ic, bc = case()
    p = Params(scheme=scheme)
    state = prepare_state(mesh, Topography(z), ic, bc, p)
    tn = time_level(state)
    dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, 1.0)
    if scheme == "EXEX":
        ac = explicit_acoustic(tn, mesh, dt, state.donor)
    else:
        ac = implicit_acoustic(tn, mesh, p, dt, state.donor,
                               implicit_pattern(mesh, state.donor))
    n = mesh.n_cells
    out = combined_update(state.conserved, ac, mesh, dt)
    h, hu = _single_sum_update(state.conserved, ac, mesh, dt)
    assert np.array_equal(out.h[:n], h)
    assert np.max(np.abs(out.hu[:n] - hu)) <= 1e-14 * np.max(np.abs(hu))


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_lake_at_rest_with_pressure_force(scheme):
    # criterion 1's bounds, on triangles over the bump
    p = Params(scheme=scheme)
    sc = get_scenario("lake_at_rest")
    mesh = meshmod.build_triangulated(12, 12)
    topo, ic = sc.build(mesh, p)
    state = run_steps(mesh, topo, ic, sc.bc, p, 30, 0.01)
    surf_err, u_err = lake_at_rest_errors(mesh, topo, state.conserved)
    if scheme == "EXEX":
        assert surf_err <= 1e-14
        assert u_err <= 1e-11
    else:
        assert u_err <= 1e-6
