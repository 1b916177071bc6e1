import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.acoustic import (acoustic_cfl_fraction, assemble_implicit,
                            explicit_acoustic, implicit_acoustic,
                            solve_implicit)
from lpswe.driver import BoundaryCondition, apply_bc, prepare_state
from lpswe.exceptions import CFLError, PositivityError, SolverError
from lpswe.fields import (ConservedField, Params, RelaxedField, Topography,
                          to_relaxed)
from lpswe.flux_kernels import evaluate_face_fluxes
from lpswe.scenarios import bump_topography, dam_break


def _setup(nx=6, ny=6, scheme="EXEX", bc=None):
    p = Params(scheme=scheme)
    mesh = meshmod.build_cartesian(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic,
                          bc or BoundaryCondition(), p)
    apply_bc(state.conserved, mesh, state.donor)
    r = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    return p, mesh, state, r


def test_explicit_lake_at_rest_fixed_point():
    p = Params()
    mesh = meshmod.build_triangulated(8, 8)
    z = bump_topography(mesh.centroid[:, 0])
    h = 0.5 - z
    ic = ConservedField(h, np.zeros((len(h), 2)))
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    apply_bc(state.conserved, mesh, state.donor)
    r = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    ac = explicit_acoustic(r, mesh, state.topo, p, dt=1e-4,
                           donor=state.donor)
    n = mesh.n_cells
    assert np.max(np.abs(ac.relaxed.u[:n])) < 1e-14
    assert np.max(np.abs(ac.relaxed.tau[:n] - r.tau[:n])) == 0.0


def test_explicit_cfl_strict_raises():
    p, mesh, state, r = _setup()
    fr = acoustic_cfl_fraction(
        mesh, r.tau,
        evaluate_face_fluxes(mesh, r.u, r.pi, state.conserved.h,
                             state.topo.z, p),
        dt=1.0)
    assert fr > 0.5
    with pytest.raises(CFLError):
        explicit_acoustic(r, mesh, state.topo, p, dt=1.0, cfl_strict=True)


def test_explicit_warns_when_not_strict():
    # slightly above the CFL limit: warns but still completes
    p, mesh, state, r = _setup()
    fl = evaluate_face_fluxes(mesh, r.u, r.pi, state.conserved.h,
                              state.topo.z, p)
    dt = 0.6 / acoustic_cfl_fraction(mesh, r.tau, fl, 1.0)
    with pytest.warns(UserWarning, match="CFL"):
        explicit_acoustic(r, mesh, state.topo, p, dt=dt)


def test_tau_positivity_error_has_suggestion():
    # one-sided strong compression: tau collapses in the stalled cells
    p = Params()
    mesh = meshmod.build_cartesian(4, 1)
    h = np.ones(4)
    u = np.zeros((4, 2))
    u[:2, 0] = 50.0
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(4)), ic,
                          BoundaryCondition(), p)
    apply_bc(state.conserved, mesh, state.donor)
    r = to_relaxed(state.conserved, p, n_interior=4)
    with pytest.raises(PositivityError) as exc:
        explicit_acoustic(r, mesh, state.topo, p, dt=0.5)
    assert exc.value.suggested_dt is not None
    assert exc.value.suggested_dt > 0.0


def test_implicit_matches_explicit_small_dt():
    # for dt -> 0 both updates agree to O(dt^2)
    p_ex, mesh, state, r = _setup()
    p_im = Params(scheme="IMEX")
    n = mesh.n_cells
    for dt in (1e-5, 5e-6):
        ex = explicit_acoustic(r.copy(), mesh, state.topo, p_ex, dt,
                               donor=state.donor)
        im = implicit_acoustic(r.copy(), mesh, state.topo, p_im, dt,
                               state.donor)
        du = np.max(np.abs(ex.relaxed.u[:n] - im.relaxed.u[:n]))
        dpi = np.max(np.abs(ex.relaxed.pi[:n] - im.relaxed.pi[:n]))
        # difference scales like dt^2 times the flux divergence
        assert du < 2e3 * dt * dt
        assert dpi < 2e6 * dt * dt


def test_implicit_lake_at_rest_fixed_point():
    # Pi = g h^2 / 2, u = 0 must be reproduced by the solve exactly
    p = Params(scheme="IMEX")
    mesh = meshmod.build_triangulated(6, 6)
    z = bump_topography(mesh.centroid[:, 0])
    h = 0.5 - z
    ic = ConservedField(h, np.zeros((len(h), 2)))
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    apply_bc(state.conserved, mesh, state.donor)
    r = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    system = assemble_implicit(r, mesh, state.topo, p, 0.05, state.donor)
    n = mesh.n_cells
    x = np.empty(3 * n)
    x[0::3] = 0.0
    x[1::3] = 0.0
    x[2::3] = r.pi[:n]
    # the rest state is a fixed point of the linear system
    assert np.max(np.abs(system.A @ x - system.b)) < 1e-12


def _check_implicit_operator_against_explicit(build, nx, ny, bc):
    # A x - b = (x - x^n) + dt T D F(x) and the explicit update is
    # E(x) = x - dt T D F(x), with the fluxes F at x and the time-n theta:
    # so A x - b = 2x - x^n - E(x) for any state x
    p = Params(scheme="IMEX")
    mesh = build(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    # time-n motion, so that theta is nonzero on most faces
    rng = np.random.default_rng(7)
    ic.hu[:] = ic.h[:, None] * rng.normal(scale=0.5, size=ic.hu.shape)
    state = prepare_state(mesh, Topography(z), ic, bc, p)
    apply_bc(state.conserved, mesh, state.donor)
    r = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    h_n = state.conserved.h
    fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, state.topo.z, p)
    assert np.mean(fluxes_n.theta > 0.0) > 0.9

    n = mesh.n_cells
    u = rng.normal(size=(mesh.n_total, 2))
    pi = r.pi * (1.0 + 0.1 * rng.normal(size=mesh.n_total))
    u[n:] = u[state.donor]
    pi[n:] = pi[state.donor]
    fluxes_x = evaluate_face_fluxes(mesh, u, pi, h_n, state.topo.z, p,
                                    theta=fluxes_n.theta)
    dt = 0.4 / acoustic_cfl_fraction(mesh, r.tau, fluxes_x, 1.0)
    system = assemble_implicit(r, mesh, state.topo, p, dt, state.donor,
                               fluxes_n=fluxes_n, h_n=h_n)
    ex = explicit_acoustic(RelaxedField(r.tau, u, pi), mesh, state.topo, p,
                           dt, fluxes=fluxes_x, h_n=h_n)

    x = np.column_stack([u[:n], pi[:n]]).ravel()
    e = np.column_stack([ex.relaxed.u[:n], ex.relaxed.pi[:n]]).ravel()
    lhs = system.A @ x - system.b
    rhs = 2.0 * x - system.x0 - e
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(x))


def test_implicit_operator_matches_explicit_kernels():
    # interior and periodic couplings on triangles
    _check_implicit_operator_against_explicit(
        meshmod.build_triangulated, 8, 8, BoundaryCondition.periodic_all())


@pytest.mark.parametrize("build, nx, ny, bc", [
    # two faces of one cell couple to the same neighbor block
    (meshmod.build_cartesian, 6, 2, BoundaryCondition.periodic_all()),
    # the neumann ghosts above and below map back onto their owner
    (meshmod.build_cartesian, 5, 1, BoundaryCondition.periodic_x()),
    # neumann ghosts on every side
    (meshmod.build_triangulated, 5, 4, BoundaryCondition()),
], ids=["quad6x2-periodic", "quad5x1-periodic_x", "tri5x4-neumann"])
def test_implicit_operator_matches_explicit_kernels_ghost_layouts(
        build, nx, ny, bc):
    _check_implicit_operator_against_explicit(build, nx, ny, bc)


def test_solver_residual_contract():
    p, mesh, state, r = _setup(scheme="IMEX")
    system = assemble_implicit(r, mesh, state.topo, p, 0.01, state.donor)
    u, pi = solve_implicit(system, tol=1e-10)
    res = np.linalg.norm(system.A @ np.ravel(
        np.column_stack([u, pi])) - system.b)
    assert res <= 1e-10 * np.linalg.norm(system.b)


def test_solver_rejects_bad_tol():
    p, mesh, state, r = _setup(scheme="IMEX")
    system = assemble_implicit(r, mesh, state.topo, p, 0.01, state.donor)
    with pytest.raises(ValueError):
        solve_implicit(system, tol=0.0)


def test_solver_error_carries_residual():
    p, mesh, state, r = _setup(scheme="IMEX")
    system = assemble_implicit(r, mesh, state.topo, p, 0.01, state.donor)
    with pytest.raises(SolverError) as exc:
        solve_implicit(system, tol=1e-300)
    assert exc.value.residual > 1e-300 * np.linalg.norm(system.b)
    assert "missed tolerance" in str(exc.value)


def test_implicit_large_dt_stable():
    # dt far beyond the acoustic CFL must still produce finite positive tau
    p, mesh, state, r = _setup(scheme="IMEX")
    ac = implicit_acoustic(r, mesh, state.topo, p, 0.05, state.donor)
    n = mesh.n_cells
    assert np.all(ac.relaxed.tau[:n] > 0.0)
    assert np.all(np.isfinite(ac.relaxed.u[:n]))


def test_ghosts_refreshed_after_explicit_step():
    p, mesh, state, r = _setup()
    ac = explicit_acoustic(r, mesh, state.topo, p, 1e-4, donor=state.donor)
    n = mesh.n_cells
    assert np.array_equal(ac.relaxed.tau[n:], ac.relaxed.tau[state.donor])
    assert np.array_equal(ac.relaxed.pi[n:], ac.relaxed.pi[state.donor])


def test_explicit_step_without_pi_update():
    # the driver's EXEX path skips the Pi update, which the combined update
    # does not read; tau and u must be those of the full step
    p, mesh, state, r = _setup(bc=BoundaryCondition.periodic_all())
    full = explicit_acoustic(r, mesh, state.topo, p, 1e-4, donor=state.donor)
    lean = explicit_acoustic(r, mesh, state.topo, p, 1e-4, donor=state.donor,
                             update_pi=False)
    assert lean.relaxed.pi is None
    assert np.array_equal(lean.relaxed.tau, full.relaxed.tau)
    assert np.array_equal(lean.relaxed.u, full.relaxed.u)
