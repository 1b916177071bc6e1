import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.acceptance import combined_vs_two_step, lake_at_rest_errors
from lpswe.acoustic import (explicit_acoustic, implicit_acoustic,
                            implicit_pattern)
from lpswe.driver import (BoundaryCondition, dt_exex, prepare_state,
                          run_steps, time_level)
from lpswe.exceptions import CFLError, PositivityError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.flux_kernels import evaluate_face_fluxes
from lpswe.scenarios import bump_topography, dam_break, get_scenario
from lpswe.transport import (combined_update, transport,
                             transport_cfl_fraction)


def _acoustic_step(nx=8, ny=8, dt=1e-4):
    p = Params()
    mesh = meshmod.build_cartesian(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    ac = explicit_acoustic(time_level(state), state.mesh, dt)
    return p, state.mesh, state, ac, dt


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
    mesh = state.mesh
    ac = explicit_acoustic(time_level(state), mesh, 1e-4)
    out = transport(ac.relaxed, ac.u_star, mesh, 1e-4)
    assert np.max(np.abs(out.h - 2.0)) < 1e-13
    assert np.max(np.abs(out.hu / 2.0 - u)) < 1e-13


def test_transport_cfl_fraction_scaling():
    p, mesh, state, ac, dt = _acoustic_step()
    f1 = transport_cfl_fraction(mesh, ac.u_star, dt)
    f2 = transport_cfl_fraction(mesh, ac.u_star, 2 * dt)
    assert f2 == pytest.approx(2.0 * f1)
    assert f1 >= 0.0


def test_transport_raises_on_cfl_violation():
    p, mesh, state, ac, dt = _acoustic_step()
    with pytest.raises(CFLError):
        transport(ac.relaxed, ac.u_star, mesh, dt=1e3)


def test_combined_update_mass_conservation_periodic():
    p = Params()
    mesh = meshmod.build_cartesian(10, 10)
    rng = np.random.default_rng(5)
    h = rng.uniform(0.5, 1.5, mesh.n_cells)
    u = 0.2 * rng.normal(size=(mesh.n_cells, 2))
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic,
                          BoundaryCondition.periodic_all(), p)
    mesh, dt = state.mesh, 1e-4
    ac = explicit_acoustic(time_level(state), mesh, dt)
    out = combined_update(state.conserved, ac, mesh, dt)
    m0 = np.sum(mesh.area * state.conserved.h)
    m1 = np.sum(mesh.area * out.h)
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
    mesh, dt = state.mesh, 1e-5
    ac = explicit_acoustic(time_level(state), mesh, dt)
    out = transport(ac.relaxed, ac.u_star, mesh, dt)
    # cell 5 receives mass from cell 4
    assert out.h[5] > 1.0
    # far-field cells unaffected
    assert out.h[8] == pytest.approx(1.0, abs=1e-12)


def _single_sum_update(c_n, ac, fl, mesh, dt):
    """The update with the pressure flux of the sharp-level fluxes ``fl``
    summed together with the momentum transport flux, face by face: the
    reference form of ``combined_update``."""
    r1 = ac.relaxed
    h1 = 1.0 / r1.tau
    lu = mesh.face_length * fl.u_star
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    wL = mesh.face_length * fl.pi_star_L
    wR = mesh.face_length * fl.pi_star_R
    up = np.where(fl.u_star >= 0.0, mesh.face_owner, mesh.face_outer)
    fh = lu * h1[up]
    fx = lu * (r1.u[up, 0] * h1[up])
    fy = lu * (r1.u[up, 1] * h1[up])
    dh = mesh.cell_sums(fh, -fh) / mesh.area
    dm = np.column_stack([mesh.cell_sums(fx + wL * nx, -fx - wR * nx),
                          mesh.cell_sums(fy + wL * ny, -fy - wR * ny)])
    return c_n.h - dt * dh, c_n.hu - dt * (dm / mesh.area[:, None])


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
    mesh = state.mesh
    tn = time_level(state)
    dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, 1.0)
    if scheme == "EXEX":
        ac = explicit_acoustic(tn, mesh, dt)
        fl = tn.fluxes     # the explicit sharp level is time n
    else:
        ac = implicit_acoustic(tn, mesh, p, dt, implicit_pattern(mesh))
        # the sharp-level fluxes the step evaluated and did not keep
        fl = evaluate_face_fluxes(mesh, ac.relaxed.u, ac.relaxed.pi, None,
                                  None, p, frozen=tn.fluxes)
    assert np.array_equal(fl.u_star, ac.u_star)
    out = combined_update(state.conserved, ac, mesh, dt)
    h, hu = _single_sum_update(state.conserved, ac, fl, mesh, dt)
    assert np.array_equal(out.h, h)
    assert np.max(np.abs(out.hu - hu)) <= 1e-14 * np.max(np.abs(hu))


def _oversize_update_error():
    # the explicit step at the EXEX dt, the update at 30 times that dt:
    # over the transport CFL limit, the update is what fails
    mesh, _, ic, bc = _random_periodic_quads()
    p = Params()
    state = prepare_state(mesh, Topography(np.zeros(mesh.n_cells)), ic, bc,
                          p)
    mesh = state.mesh
    tn = time_level(state)
    dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, 1.0)
    ac = explicit_acoustic(tn, mesh, dt)
    assert transport_cfl_fraction(mesh, ac.u_star, 30 * dt) > 1.0
    with pytest.raises(PositivityError) as exc:
        combined_update(state.conserved, ac, mesh, 30 * dt)
    return len(mesh.parts), exc.value


@pytest.mark.parts
def test_oversize_dt_update_positivity_error(monkeypatch):
    # no CFL check in the update: an oversize dt meets the positivity
    # check, which names the lowest bad cell in one part and in several
    n_parts, err = _oversize_update_error()
    assert n_parts == 1
    assert err.cell == 77
    assert str(err).startswith("updated h non-positive in cell 77 ")
    monkeypatch.setattr(meshmod, "PART_FACES", 60)
    n_parts, in_parts = _oversize_update_error()
    assert n_parts > 1
    assert (str(in_parts), in_parts.cell) == (str(err), err.cell)


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
