import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lpswe
from lpswe import mesh as meshmod
from lpswe.acoustic import (LinearSystem, TimeLevel, acoustic_cfl_fraction,
                            assemble_implicit, explicit_acoustic,
                            implicit_acoustic, implicit_pattern,
                            solve_implicit)
from lpswe.driver import (BoundaryCondition, apply_bc, prepare_state,
                          time_level)
from lpswe.exceptions import CFLError, PositivityError, SolverError
from lpswe.fields import ConservedField, Params, RelaxedField, Topography
from lpswe.flux_kernels import evaluate_face_fluxes
from lpswe.scenarios import bump_topography, dam_break


def _setup(nx=6, ny=6, scheme="EXEX", bc=None):
    p = Params(scheme=scheme)
    mesh = meshmod.build_cartesian(nx, ny)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic,
                          bc or BoundaryCondition(), p)
    return p, state.mesh, state, time_level(state)


def test_explicit_lake_at_rest_fixed_point():
    p = Params()
    mesh = meshmod.build_triangulated(8, 8)
    z = bump_topography(mesh.centroid[:, 0])
    h = 0.5 - z
    ic = ConservedField(h, np.zeros((len(h), 2)))
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    tn = time_level(state)
    ac = explicit_acoustic(tn, state.mesh, 1e-4)
    assert np.max(np.abs(ac.relaxed.u)) < 1e-14
    assert np.max(np.abs(ac.relaxed.tau - tn.relaxed.tau)) == 0.0


def test_explicit_cfl_strict_raises():
    p, mesh, state, tn = _setup()
    assert acoustic_cfl_fraction(mesh, tn.relaxed.tau, tn.fluxes, 1.0) > 0.5
    with pytest.raises(CFLError):
        explicit_acoustic(tn, mesh, 1.0)


def _tau_positivity_error():
    # one-sided strong compression: tau collapses in the stalled cells
    p = Params()
    mesh = meshmod.build_cartesian(4, 1)
    h = np.ones(4)
    u = np.zeros((4, 2))
    u[:2, 0] = 50.0
    ic = ConservedField(h, h[:, None] * u)
    state = prepare_state(mesh, Topography(np.zeros(4)), ic,
                          BoundaryCondition(), p)
    mesh = state.mesh
    tn = time_level(state)
    # within the acoustic CFL limit, so tau is what fails
    dt = 0.45 / acoustic_cfl_fraction(mesh, tn.relaxed.tau, tn.fluxes, 1.0)
    with pytest.raises(PositivityError) as exc:
        explicit_acoustic(tn, mesh, dt)
    return len(mesh.parts), exc.value


def test_tau_positivity_error_has_suggestion(monkeypatch):
    n_parts, err = _tau_positivity_error()
    assert n_parts == 1
    assert err.suggested_dt is not None
    assert err.suggested_dt > 0.0
    # in parts (13 faces cut into up to four), the error is the same
    monkeypatch.setattr(meshmod, "PART_FACES", 3)
    n_parts, in_parts = _tau_positivity_error()
    assert n_parts > 1
    assert (str(in_parts), in_parts.cell, in_parts.suggested_dt) == (
        str(err), err.cell, err.suggested_dt)


def test_implicit_matches_explicit_small_dt():
    # for dt -> 0 both updates agree to O(dt^2)
    p, mesh, state, tn = _setup(scheme="IMEX")
    pattern = implicit_pattern(mesh)
    for dt in (1e-5, 5e-6):
        ex = explicit_acoustic(tn, mesh, dt)
        im = implicit_acoustic(tn, mesh, p, dt, pattern)
        du = np.max(np.abs(ex.relaxed.u - im.relaxed.u))
        dpi = np.max(np.abs(ex.relaxed.pi - im.relaxed.pi))
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
    tn = time_level(state)
    system = assemble_implicit(tn, state.mesh, 0.05,
                               implicit_pattern(state.mesh))
    x = np.empty(3 * mesh.n_cells)
    x[0::3] = 0.0
    x[1::3] = 0.0
    x[2::3] = tn.relaxed.pi
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
    mesh = state.mesh
    tn = time_level(state)
    r = tn.relaxed
    assert np.mean(tn.fluxes.theta > 0.0) > 0.9

    n = mesh.n_cells
    u = rng.normal(size=(n, 2))
    pi = r.pi * (1.0 + 0.1 * rng.normal(size=n))
    fluxes_x = evaluate_face_fluxes(mesh, u, pi, None, None, p,
                                    frozen=tn.fluxes)
    dt = 0.4 / acoustic_cfl_fraction(mesh, r.tau, fluxes_x, 1.0)
    system = assemble_implicit(tn, mesh, dt, implicit_pattern(mesh))
    ex = explicit_acoustic(TimeLevel(RelaxedField(r.tau, u, pi), fluxes_x),
                           mesh, dt)

    x = np.column_stack([u, pi]).ravel()
    e = np.column_stack([ex.relaxed.u, ex.relaxed.pi]).ravel()
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
    # the neumann faces above and below read their own owner
    (meshmod.build_cartesian, 5, 1, BoundaryCondition.periodic_x()),
    # neumann faces on every side
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
    p, mesh, state, tn = _setup(scheme="IMEX")
    system = assemble_implicit(tn, mesh, 0.01, implicit_pattern(mesh))
    u, pi = solve_implicit(system, tol=1e-10)
    res = np.linalg.norm(system.A @ np.ravel(
        np.column_stack([u, pi])) - system.b)
    assert res <= 1e-10 * np.linalg.norm(system.b)


def test_assembly_leaves_pattern_unchanged():
    # A is built on the pattern's own index arrays, and a run reuses the
    # pattern over its attempts: assembly must leave them as they were
    p, mesh, state, tn = _setup(scheme="IMEX")
    pattern = implicit_pattern(mesh)
    indptr, indices = pattern.indptr.copy(), pattern.indices.copy()
    assemble_implicit(tn, mesh, 0.01, pattern)
    A = assemble_implicit(tn, mesh, 0.02, pattern).A
    fresh = assemble_implicit(tn, mesh, 0.02, implicit_pattern(mesh)).A
    assert np.array_equal(A.indptr, fresh.indptr)
    assert np.array_equal(A.indices, fresh.indices)
    assert np.array_equal(A.data, fresh.data)
    assert np.array_equal(pattern.indptr, indptr)
    assert np.array_equal(pattern.indices, indices)


def _dense_face_operator(mesh, d, magnitude=False):
    """D F as a dense matrix, face by face from the flux formulas of
    ``assemble_implicit``, with per-face scalars d = (theta a, 1, a^2, a)
    given as four independent arrays.  With ``magnitude`` the faces'
    entries are summed in absolute value, so nothing cancels."""
    n = mesh.n_cells
    DF = np.zeros((3 * n, 3 * n))
    for f in range(mesh.n_faces):
        o, nb = mesh.face_owner[f], mesh.face_neighbor[f]
        m = mesh.face_outer[f]
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
    # the neumann faces above and below read their own owner
    (meshmod.build_cartesian, 5, 1, BoundaryCondition.periodic_x()),
    (meshmod.build_triangulated, 5, 4, BoundaryCondition()),
    # the periodic faces across x read their own owner
    (meshmod.build_cartesian, 1, 3, BoundaryCondition.periodic_all()),
    # an interior and a periodic face join the same two cells
    (meshmod.build_cartesian, 2, 2, BoundaryCondition.periodic_all()),
    (meshmod.build_triangulated, 3, 2, BoundaryCondition.periodic_all()),
], ids=["mixed-neumann", "mixed-periodic", "quad5x1-periodic_x",
        "tri5x4-neumann", "quad1x3-periodic", "quad2x2-periodic",
        "tri3x2-periodic"])
def test_pattern_stores_exactly_the_nonzeros(build, nx, ny, bc, mixed_mesh):
    # a stored structural zero fails no value test but slows every product
    # with A, so the stored entries are checked against the geometry
    mesh = apply_bc(mixed_mesh if build == "mixed" else build(nx, ny), bc)
    pattern = implicit_pattern(mesh)
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
    geometric = _dense_face_operator(mesh, ones, magnitude=True) != 0
    assert np.array_equal(stored, geometric | np.eye(N, dtype=bool))

    d = list(np.random.default_rng(3).uniform(0.5, 2.0, (4, mesh.n_faces)))
    DF = _dense_face_operator(mesh, d)
    assert not np.any(DF[~stored])
    np.testing.assert_allclose(pattern.S @ np.concatenate(d),
                               DF[rows, pattern.indices],
                               rtol=0.0, atol=1e-14 * np.max(np.abs(DF)))


@pytest.mark.parametrize("build, bc", [
    (meshmod.build_cartesian, BoundaryCondition.periodic_x()),
    (meshmod.build_triangulated, BoundaryCondition()),
], ids=["quads-periodic_x", "triangles"])
def test_pattern_memory_peak(build, bc):
    # the pattern build's traced peak, its result included, stays within 2
    # times the bytes of the arrays it returns
    mesh = apply_bc(build(160, 160), bc)
    tracemalloc.start()
    try:
        pattern = implicit_pattern(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    S = pattern.S
    size = sum(a.nbytes for a in (pattern.indptr, pattern.indices,
                                  pattern.diag, S.data, S.indices, S.indptr))
    assert peak <= 2.0 * size


def test_solver_rejects_bad_tol():
    p, mesh, state, tn = _setup(scheme="IMEX")
    system = assemble_implicit(tn, mesh, 0.01, implicit_pattern(mesh))
    with pytest.raises(ValueError):
        solve_implicit(system, tol=0.0)


def test_solver_error_carries_residual():
    p, mesh, state, tn = _setup(scheme="IMEX")
    system = assemble_implicit(tn, mesh, 0.01, implicit_pattern(mesh))
    with pytest.raises(SolverError) as exc:
        solve_implicit(system, tol=1e-300)
    assert exc.value.residual > 1e-300 * np.linalg.norm(system.b)
    assert "missed tolerance" in str(exc.value)


def test_implicit_large_dt_stable():
    # dt far beyond the acoustic CFL must still produce finite positive tau
    p, mesh, state, tn = _setup(scheme="IMEX")
    ac = implicit_acoustic(tn, mesh, p, 0.05, implicit_pattern(mesh))
    assert np.all(ac.relaxed.tau > 0.0)
    assert np.all(np.isfinite(ac.relaxed.u))


def test_explicit_step_without_pi_update():
    # the driver's EXEX path skips the Pi update, which the combined update
    # does not read; tau and u must be those of the full step
    p, mesh, state, tn = _setup(bc=BoundaryCondition.periodic_all())
    full = explicit_acoustic(tn, mesh, 1e-4)
    lean = explicit_acoustic(tn, mesh, 1e-4, update_pi=False)
    assert lean.relaxed.pi is None
    assert np.array_equal(lean.relaxed.tau, full.relaxed.tau)
    assert np.array_equal(lean.relaxed.u, full.relaxed.u)


@settings(max_examples=60, deadline=None)
@given(n_cells=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_bicgstab_matches_dense_solve(n_cells, seed):
    # nonsymmetric A = I + R / (2 ||R||): cond(A) <= 3, so the residual
    # contract bounds the error by 3 tol relative to ||x||
    rng = np.random.default_rng(seed)
    n = 3 * n_cells
    R = rng.normal(size=(n, n))
    A = np.eye(n) + 0.5 * R / np.linalg.norm(R, 2)
    b = rng.normal(size=n)
    system = LinearSystem(sp.csr_matrix(A), b, rng.normal(size=n))
    u, pi = solve_implicit(system, tol=1e-12)
    x = np.linalg.solve(A, b)
    err = np.column_stack([u, pi]).ravel() - x
    assert np.linalg.norm(err) <= 1e-11 * np.linalg.norm(x)
    assert system.residual <= 1e-12


def test_bicgstab_breakdown_raises_finite_solver_error():
    # a skew-symmetric A with integer entries makes rhat.v = r.Ar exactly 0
    # in the first iteration: every attempt breaks down before it moves x
    rng = np.random.default_rng(5)
    K = np.triu(rng.integers(-9, 10, (6, 6)), 1).astype(float)
    A = K - K.T
    b = np.arange(1.0, 7.0)
    system = LinearSystem(sp.csr_matrix(A), b, np.zeros(6))
    with pytest.raises(SolverError) as exc:
        solve_implicit(system, tol=1e-10)
    assert exc.value.residual == np.linalg.norm(b)
    assert system.iterations == 0
    assert system.residual == 1.0


def test_bicgstab_reports_iterations_and_residual():
    p, mesh, state, tn = _setup(scheme="IMEX")
    pattern = implicit_pattern(mesh)
    runs = []
    for _ in range(2):
        system = assemble_implicit(tn, mesh, 0.01, pattern)
        u, pi = solve_implicit(system, tol=1e-10)
        x = np.column_stack([u, pi]).ravel()
        true = (np.linalg.norm(system.A @ x - system.b)
                / np.linalg.norm(system.b))
        assert system.iterations > 0
        assert system.residual == true <= 1e-10
        runs.append((system.iterations, system.residual))
    assert runs[0] == runs[1]


def _exit_code(script):
    """Exit code of ``script`` run by a fresh interpreter on this lpswe."""
    src = os.path.dirname(os.path.dirname(lpswe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                 else [])))
    return subprocess.run([sys.executable, "-c", script], env=env).returncode


def test_bicgstab_imex_step_leaves_scipy_sparse_linalg_unloaded():
    # the solve needs no scipy.sparse.linalg, whose import costs every
    # process about 10 MB resident
    script = """if True:
        import sys
        import scipy.sparse
        if "scipy.sparse.linalg" in sys.modules:
            sys.exit(3)   # this scipy loads it with scipy.sparse
        from lpswe import mesh, run_steps
        from lpswe.fields import Params
        from lpswe.scenarios import get_scenario
        p = Params(scheme="IMEX")
        sc = get_scenario("dam_break")
        m = mesh.build_cartesian(4, 4)
        topo, ic = sc.build(m, p)
        state = run_steps(m, topo, ic, sc.bc, p, 1, 0.01)
        assert state.step == 1 and state.pattern is not None
        sys.exit(4 if "scipy.sparse.linalg" in sys.modules else 0)
    """
    code = _exit_code(script)
    if code == 3:
        pytest.skip("scipy.sparse itself imports scipy.sparse.linalg")
    assert code == 0


def test_explicit_run_leaves_scipy_sparse_unloaded():
    # only the implicit step needs scipy.sparse (about 20 MB resident and
    # 0.2 s of start-up), and it imports it on first use.  Neither the
    # import nor a run in one mesh part starts a thread or loads
    # concurrent.futures; the first step in parts starts the pool.
    script = """if True:
        import sys, threading
        import lpswe, lpswe.cli
        if threading.active_count() != 1:
            sys.exit(5)
        from lpswe import driver, mesh
        from lpswe.fields import Params
        from lpswe.scenarios import get_scenario
        sc = get_scenario("dam_break")
        m = mesh.build_cartesian(6, 6)
        p = Params(scheme="EXEX")
        topo, ic = sc.build(m, p)
        assert driver.run(m, topo, ic, sc.bc, p, 0.01).steps > 0
        if "scipy.sparse" in sys.modules:
            sys.exit(3)
        if threading.active_count() != 1 or "concurrent.futures" in sys.modules:
            sys.exit(6)
        mesh.PART_FACES = 20
        parts = driver.run(mesh.build_cartesian(6, 6), topo, ic, sc.bc, p,
                           0.01)
        assert parts.mesh_parts == min(2 * mesh.WORKERS, 84 // 20)
        threads = threading.active_count()
        if (threads > 1) != (parts.threads > 1) or threads > parts.threads:
            sys.exit(7)
        p = Params(scheme="IMEX")
        state = driver.run_steps(m, topo, ic, sc.bc, p, 1, 0.01)
        assert state.step == 1
        sys.exit(0 if "scipy.sparse" in sys.modules else 4)
    """
    assert _exit_code(script) == 0
