import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.acoustic import (acoustic_cfl_fraction, assemble_implicit,
                            explicit_acoustic, implicit_acoustic,
                            implicit_pattern, solve_implicit)
from lpswe.driver import (BoundaryCondition, apply_bc, build_donor,
                          prepare_state)
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
        explicit_acoustic(r, mesh, state.topo, p, dt=1.0)


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
    # within the acoustic CFL limit, so tau is what fails
    fl = evaluate_face_fluxes(mesh, r.u, r.pi, state.conserved.h,
                              state.topo.z, p)
    dt = 0.45 / acoustic_cfl_fraction(mesh, r.tau, fl, 1.0)
    with pytest.raises(PositivityError) as exc:
        explicit_acoustic(r, mesh, state.topo, p, dt=dt)
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


def _check_implicit_operator_against_explicit(mesh, bc):
    # A x - b = (x - x^n) + dt T D F(x) and the explicit update is
    # E(x) = x - dt T D F(x), with the fluxes F at x and the time-n theta:
    # so A x - b = 2x - x^n - E(x) for any state x
    p = Params(scheme="IMEX")
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
        meshmod.build_triangulated(8, 8), BoundaryCondition.periodic_all())


@pytest.mark.parametrize("build, nx, ny, bc", [
    # two faces of one cell couple to the same neighbor block
    (meshmod.build_cartesian, 6, 2, BoundaryCondition.periodic_all()),
    # the neumann ghosts above and below map back onto their owner
    (meshmod.build_cartesian, 5, 1, BoundaryCondition.periodic_x()),
    # neumann ghosts on every side
    (meshmod.build_triangulated, 5, 4, BoundaryCondition()),
    # triangles, quads and a pentagon (the mixed_mesh fixture)
    ("mixed", 0, 0, BoundaryCondition()),
    ("mixed", 0, 0, BoundaryCondition.periodic_all()),
], ids=["quad6x2-periodic", "quad5x1-periodic_x", "tri5x4-neumann",
        "mixed-neumann", "mixed-periodic"])
def test_implicit_operator_matches_explicit_kernels_ghost_layouts(
        build, nx, ny, bc, mixed_mesh):
    mesh = mixed_mesh if build == "mixed" else build(nx, ny)
    _check_implicit_operator_against_explicit(mesh, bc)


def test_solver_residual_contract():
    p, mesh, state, r = _setup(scheme="IMEX")
    system = assemble_implicit(r, mesh, state.topo, p, 0.01, state.donor)
    u, pi = solve_implicit(system, tol=1e-10)
    res = np.linalg.norm(system.A @ np.ravel(
        np.column_stack([u, pi])) - system.b)
    assert res <= 1e-10 * np.linalg.norm(system.b)


def test_assembly_leaves_pattern_unchanged():
    # A is built on the pattern's own index arrays, and a run reuses the
    # pattern over its attempts: assembly must leave them as they were
    p, mesh, state, r = _setup(scheme="IMEX")
    pattern = implicit_pattern(mesh, state.donor)
    indptr, indices = pattern.indptr.copy(), pattern.indices.copy()
    assemble_implicit(r, mesh, state.topo, p, 0.01, state.donor,
                      pattern=pattern)
    A = assemble_implicit(r, mesh, state.topo, p, 0.02, state.donor,
                          pattern=pattern).A
    fresh = assemble_implicit(r, mesh, state.topo, p, 0.02, state.donor,
                              pattern=implicit_pattern(mesh, state.donor)).A
    assert np.array_equal(A.indptr, fresh.indptr)
    assert np.array_equal(A.indices, fresh.indices)
    assert np.array_equal(A.data, fresh.data)
    assert np.array_equal(pattern.indptr, indptr)
    assert np.array_equal(pattern.indices, indices)


def _dense_face_operator(mesh, donor, d, magnitude=False):
    """D F as a dense matrix, face by face from the flux formulas of
    ``assemble_implicit``, with per-face scalars d = (theta a, 1, a^2, a)
    given as four independent arrays.  With ``magnitude`` the faces'
    entries are summed in absolute value, so nothing cancels."""
    n = mesh.n_cells
    DF = np.zeros((3 * n, 3 * n))
    for f in range(mesh.n_faces):
        o, nb = mesh.face_owner[f], mesh.face_neighbor[f]
        m = nb if nb < n else donor[nb - n]
        nx, ny = mesh.face_normal[f]
        ta, one, a2, a = (q[f] for q in d)
        hl = 0.5 * mesh.face_length[f]
        # rows: l n_x Pi_face, l n_y Pi_face, l a^2 u_star; columns: the
        # (u1, u2, Pi) of o, then of m
        J_o = hl * np.array([[ta * nx * nx, ta * nx * ny, one * nx],
                             [ta * ny * nx, ta * ny * ny, one * ny],
                             [a2 * nx, a2 * ny, a]])
        J_m = hl * np.array([[-ta * nx * nx, -ta * nx * ny, one * nx],
                             [-ta * ny * nx, -ta * ny * ny, one * ny],
                             [a2 * nx, a2 * ny, -a]])
        for row, sign in ((o, 1.0), (nb, -1.0)):
            if row < n:
                for col, J in ((o, J_o), (m, J_m)):
                    block = np.abs(J) if magnitude else sign * J
                    DF[3 * row:3 * row + 3, 3 * col:3 * col + 3] += block
    return DF


@pytest.mark.parametrize("build, nx, ny, bc", [
    ("mixed", 0, 0, BoundaryCondition()),
    ("mixed", 0, 0, BoundaryCondition.periodic_all()),
    # the neumann ghosts above and below map back onto their owner
    (meshmod.build_cartesian, 5, 1, BoundaryCondition.periodic_x()),
    (meshmod.build_triangulated, 5, 4, BoundaryCondition()),
], ids=["mixed-neumann", "mixed-periodic", "quad5x1-periodic_x",
        "tri5x4-neumann"])
def test_pattern_stores_exactly_the_nonzeros(build, nx, ny, bc, mixed_mesh):
    # a stored structural zero fails no value test but slows every product
    # with A, so the stored entries are checked against the geometry
    mesh = mixed_mesh if build == "mixed" else build(nx, ny)
    donor = build_donor(mesh, bc)
    pattern = implicit_pattern(mesh, donor)
    N = 3 * mesh.n_cells
    rows = np.repeat(np.arange(N), np.diff(pattern.indptr))
    stored = np.zeros((N, N), bool)
    stored[rows, pattern.indices] = True
    assert np.count_nonzero(stored) == len(pattern.indices)
    assert np.all(np.diff(pattern.indices)[np.diff(rows) == 0] > 0)
    assert np.array_equal(rows[pattern.diag], np.arange(N))
    assert np.array_equal(pattern.indices[pattern.diag], np.arange(N))

    # the |geometric factors| are nonzero exactly where some face
    # contributes
    ones = [np.ones(mesh.n_faces)] * 4
    geometric = _dense_face_operator(mesh, donor, ones, magnitude=True) != 0
    assert np.array_equal(stored, geometric | np.eye(N, dtype=bool))

    d = list(np.random.default_rng(3).uniform(0.5, 2.0, (4, mesh.n_faces)))
    DF = _dense_face_operator(mesh, donor, d)
    assert not np.any(DF[~stored])
    np.testing.assert_allclose(pattern.S @ np.concatenate(d),
                               DF[rows, pattern.indices],
                               rtol=0.0, atol=1e-14 * np.max(np.abs(DF)))


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
