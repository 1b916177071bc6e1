import dataclasses
import os
import signal
import sys
import time
import weakref

import numpy as np
import pytest

import lpswe.acoustic as acoustic
import lpswe.driver as drv
from lpswe import mesh as meshmod
from lpswe.acceptance import lake_at_rest_errors
from lpswe.driver import (BoundaryCondition, apply_bc, dt_exex, dt_imex,
                          prepare_state, run, run_steps, time_level)
from lpswe.exceptions import (CFLError, ConfigError, LpsweError,
                              PositivityError, SolverError)
from lpswe.fields import ConservedField, Params, Topography, to_relaxed
from lpswe.flux_kernels import evaluate_face_fluxes
from lpswe.io import write_report
from lpswe.scenarios import bump_topography, dam_break, get_scenario
from lpswe.transport import combined_update, transport_cfl_fraction


def test_bc_validation():
    with pytest.raises(ConfigError):
        BoundaryCondition(left="periodic", right="neumann")
    with pytest.raises(ConfigError):
        BoundaryCondition(top="open")
    bc = BoundaryCondition.periodic_all()
    assert bc.left == bc.top == "periodic"


def test_absorbing_is_neumann_alias():
    assert BoundaryCondition(top="absorbing") == BoundaryCondition()
    assert (BoundaryCondition.periodic_x(y_kind="absorbing")
            == BoundaryCondition.periodic_x())
    assert BoundaryCondition.periodic_x().bottom == "neumann"


@pytest.mark.parametrize("bc", [
    BoundaryCondition(), BoundaryCondition.periodic_x(),
    BoundaryCondition.periodic_all()], ids=["neumann", "periodic_x",
                                            "periodic_all"])
@pytest.mark.parametrize("build", [
    lambda: meshmod.build_cartesian(4, 3),
    lambda: meshmod.build_triangulated(3, 4),
    lambda: meshmod.build_cartesian(6, 3, (0.0, 2.0, 0.0, 1.0)),
    "mixed",
], ids=["cartesian", "triangulated", "cartesian-2x1-domain", "mixed"])
def test_apply_bc_outer_cells(build, bc, mixed_mesh):
    # the build sets the zero-gradient closure: an interior face reads its
    # neighbor, a boundary face its own owner; apply_bc makes a periodic
    # face read the owner of the face across the domain
    m = mixed_mesh if build == "mixed" else build()
    built = m.face_outer.copy()
    assert built.dtype == np.intp and built.shape == (m.n_faces,)
    inner = m.face_neighbor < m.n_cells
    assert np.array_equal(built[inner], m.face_neighbor[inner])
    assert np.array_equal(built[~inner], m.face_owner[~inner])
    bound = apply_bc(m, bc)
    assert np.array_equal(m.face_outer, built)
    outer = bound.face_outer
    assert outer.dtype == np.intp and outer.shape == (m.n_faces,)
    assert np.array_equal(outer[inner], m.face_neighbor[inner])
    x0, x1, y0, y1 = m.bbox
    kinds = {meshmod.LEFT: bc.left, meshmod.RIGHT: bc.right,
             meshmod.BOTTOM: bc.bottom, meshmod.TOP: bc.top}
    for f, side in zip(m.boundary_faces, m.boundary_sides()):
        if kinds[side] == "neumann":
            assert outer[f] == m.face_owner[f]
            continue
        # the paired face: same midpoint shifted by the domain's width or
        # height, found by a search over all boundary faces
        shift = {meshmod.LEFT: (x1 - x0, 0.0), meshmod.RIGHT: (x0 - x1, 0.0),
                 meshmod.BOTTOM: (0.0, y1 - y0),
                 meshmod.TOP: (0.0, y0 - y1)}[side]
        d = np.hypot(*(m.face_midpoint[m.boundary_faces]
                       - m.face_midpoint[f] - shift).T)
        g = m.boundary_faces[np.argmin(d)]
        assert d.min() <= 1e-12
        assert outer[f] == m.face_owner[g] and outer[g] == m.face_owner[f]


@pytest.mark.parametrize("left_y, right_y, message", [
    ([0.5], [], "2 faces on one side and 1 on the other"),
    ([0.3], [0.5], "do not pair up")], ids=["count", "position"])
def test_apply_bc_rejects_unpaired_periodic_faces(left_y, right_y, message):
    # one unit square cell, its left and right sides split at these y
    verts = ([(0.0, 0.0), (1.0, 0.0)] + [(1.0, y) for y in right_y]
             + [(1.0, 1.0), (0.0, 1.0)] + [(0.0, y) for y in left_y])
    m = meshmod._mesh_from_cells(verts, [0, len(verts)],
                                 np.arange(len(verts)))
    with pytest.raises(ConfigError, match=message):
        apply_bc(m, BoundaryCondition.periodic_x())


@pytest.mark.parametrize("build", [meshmod.build_cartesian,
                                   meshmod.build_triangulated])
def test_kernels_take_a_mesh_as_built(build):
    # a mesh as built is bound to zero-gradient sides: apply_bc returns it
    # as it is, and the kernels give on it the bits they give on a mesh
    # built alike and bound by apply_bc
    p = Params(scheme="IMEX")
    built = build(3, 3)
    assert apply_bc(built, BoundaryCondition()) is built
    bound = apply_bc(build(3, 3), BoundaryCondition())
    rng = np.random.default_rng(11)
    n = built.n_cells
    c = ConservedField(rng.uniform(0.5, 1.5, n),
                       rng.uniform(-0.2, 0.2, (n, 2)))
    z = rng.uniform(0.0, 0.2, n)
    dz = z[bound.face_outer] - z[bound.face_owner]
    r = to_relaxed(c, p)
    got = []
    for mesh in (built, bound):
        fl = evaluate_face_fluxes(mesh, r.u, r.pi, c.h, dz, p)
        dt = dt_exex(mesh, r.tau, fl, p, 1.0)
        ac = acoustic.explicit_acoustic(acoustic.TimeLevel(r, fl), mesh, dt)
        new = combined_update(c, ac, mesh, dt)
        pat = acoustic.implicit_pattern(mesh)
        got.append([*dataclasses.astuple(fl), np.float64(dt), new.h, new.hu,
                    pat.indptr, pat.indices, pat.diag, pat.S.toarray()])
    for a, b in zip(*got):
        assert a.tobytes() == b.tobytes()


def _fluxes(mesh, p, h0=1.0, u0=(0.5, 0.0)):
    n = mesh.n_cells
    h = np.full(n, h0)
    u = np.tile(u0, (n, 1))
    c = ConservedField(h, h[:, None] * u)
    r = to_relaxed(c, p)
    return r, evaluate_face_fluxes(mesh, r.u, r.pi, h,
                                   np.zeros(mesh.n_faces), p)


def test_dt_exex_uniform_state_formula():
    # uniform h=1, u=(0.5,0) on unit cells of size 1/n: ratio = 4n,
    # face speed max(tau*a, |u|) with a = 1.01*sqrt(g), u_star in {0.5, 0}
    p = Params()
    n = 4
    mesh = meshmod.build_cartesian(n, n)
    r, fluxes = _fluxes(mesh, p)
    a = 1.01 * np.sqrt(p.g)
    expected = p.k_cfl / (2.0 * 4.0 * n * max(a, 0.5))
    assert dt_exex(mesh, r.tau, fluxes, p, 1.0) == pytest.approx(
        expected, rel=1e-12)


def test_dt_imex_only_transport_speed():
    p = Params(scheme="IMEX")
    n = 4
    mesh = meshmod.build_cartesian(n, n)
    r, fluxes = _fluxes(mesh, p)
    expected = p.k_cfl / (2.0 * 4.0 * n * 0.5)
    u_star = fluxes.u_star
    assert dt_imex(mesh, u_star, p, 1.0) == pytest.approx(expected, rel=1e-12)
    assert dt_imex(mesh, u_star, p, 1e-6) == 1e-6  # dt_max clamp


def test_run_reaches_final_time_exactly():
    p = Params()
    sc = get_scenario("lake_at_rest")
    mesh = meshmod.build_cartesian(8, 8)
    topo, ic = sc.build(mesh, p)
    rep = run(mesh, topo, ic, sc.bc, p, 0.037)
    assert rep.t_final == pytest.approx(0.037, rel=1e-12)
    assert rep.steps == len(rep.dt_history)
    assert rep.steps >= 10  # dt_max = tf/10 caps the step size


def test_report_mass_drift_includes_first_step(tmp_path):
    # Neumann faces read h = 1 + x and u = (1, 0) of their own owner: more
    # water leaves on the right than enters on the left, so one step
    # changes the mass
    p = Params(dt_max=1e-3)
    mesh = meshmod.build_cartesian(8, 8)
    h = 1.0 + mesh.centroid[:, 0]
    ic = ConservedField(h, np.stack([h, np.zeros_like(h)], axis=1))
    rep = run(mesh, Topography(np.zeros(mesh.n_cells)), ic,
              BoundaryCondition(), p, 1e-3)
    assert rep.steps == 1
    m0 = np.sum(mesh.area * h)
    m1 = np.sum(mesh.area * rep.final.h)
    drift = abs(m1 - m0) / m0
    assert drift > 1e-4
    write_report(rep, tmp_path / "report.txt")
    assert f"mass_drift_rel = {drift:.3e}" in (
        tmp_path / "report.txt").read_text()


def test_max_froude_matches_per_cell_formula():
    # run() tracks max |hu|^2 / h^3 and takes one sqrt at the end; the
    # per-cell Froude number |hu| / h / sqrt(g h) must give the same max
    p = Params()
    sc = get_scenario("vortex_flat")
    mesh = meshmod.build_cartesian(16, 16, sc.domain)
    topo, ic = sc.build(mesh, p)
    per_step = []

    def per_cell(state, dt):
        h = state.conserved.h
        speed = np.hypot(state.conserved.hu[:, 0],
                         state.conserved.hu[:, 1]) / h
        per_step.append(np.max(speed / np.sqrt(p.g * h)))

    rep = run(mesh, topo, ic, sc.bc, p, 0.01, callback=per_cell)
    assert len(per_step) == rep.steps >= 10
    assert rep.max_froude > 0.0
    assert rep.max_froude == pytest.approx(max(per_step), rel=1e-14)


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_lake_at_rest_on_mixed_mesh(mixed_mesh, scheme):
    # criterion 1 on triangles, quads and a pentagon, with its bounds
    p = Params(scheme=scheme)
    sc = get_scenario("lake_at_rest")
    topo, ic = sc.build(mixed_mesh, p)
    rep = run(mixed_mesh, topo, ic, sc.bc, p, 0.1)
    assert rep.t_final == pytest.approx(0.1, rel=1e-12)
    surf_err, u_err = lake_at_rest_errors(mixed_mesh, topo, rep.final)
    if scheme == "EXEX":
        assert surf_err <= 1e-14
        assert u_err <= 1e-11
    else:
        assert u_err <= 1e-6


def test_run_steps_advances_fixed_count():
    p = Params()
    sc = get_scenario("lake_at_rest")
    mesh = meshmod.build_cartesian(6, 6)
    topo, ic = sc.build(mesh, p)
    state = run_steps(mesh, topo, ic, sc.bc, p, 7, dt_max=1e-3)
    assert state.step == 7
    assert state.t > 0.0


def test_imex_lagged_dt_bootstrap():
    # first IMEX step uses the explicit formula, later steps the lagged one
    p = Params(scheme="IMEX")
    sc = get_scenario("lake_at_rest")
    mesh = meshmod.build_cartesian(8, 8)
    topo, ic = sc.build(mesh, p)
    rep = run(mesh, topo, ic, sc.bc, p, 0.1)
    # at rest the transport speed is ~0 so dt jumps to dt_max after step 1
    assert rep.dt_history[1] == pytest.approx(0.1 / 10.0)
    assert rep.dt_history[0] < rep.dt_history[1]


def test_imex_builds_implicit_pattern_once(monkeypatch):
    # the sparsity of the implicit system depends on the mesh and its
    # boundary conditions only: one build serves every attempt of a run,
    # rejected ones too
    builds, attempts = [], []
    build, attempt = drv.implicit_pattern, drv.implicit_acoustic

    def counted_build(mesh):
        builds.append(mesh)
        return build(mesh)

    def counted_attempt(*args, **kwargs):
        attempts.append(kwargs.get("pattern"))
        return attempt(*args, **kwargs)

    monkeypatch.setattr(drv, "implicit_pattern", counted_build)
    monkeypatch.setattr(acoustic, "implicit_pattern", counted_build)
    monkeypatch.setattr(drv, "implicit_acoustic", counted_attempt)
    p = Params(scheme="IMEX", dt_max=0.05)
    sc = get_scenario("dam_break")
    mesh = meshmod.build_triangulated(10, 10)
    topo, ic = sc.build(mesh, p)
    rep = run(mesh, topo, ic, sc.bc, p, 0.05)
    assert len(attempts) > rep.steps      # at least one rejected attempt
    assert len(builds) == 1
    assert all(pattern is attempts[0] for pattern in attempts)


def test_error_message_includes_step_number(monkeypatch):
    p = Params()
    mesh = meshmod.build_cartesian(4, 4)
    h = np.full(16, 1.0)
    u = np.zeros((16, 2))
    ic = ConservedField(h, h[:, None] * u)
    topo = Topography(np.zeros(16))

    def boom(state, t_remaining, dt_max):
        raise LpsweError("boom")

    monkeypatch.setattr(drv, "advance", boom)
    with pytest.raises(LpsweError, match="step 0: boom"):
        run(mesh, topo, ic, BoundaryCondition(), p, 0.01)


def _imex_dam_break():
    p = Params(scheme="IMEX")
    sc = get_scenario("dam_break")
    mesh = meshmod.build_cartesian(8, 8)
    topo, ic = sc.build(mesh, p)
    return p, sc, mesh, topo, ic


def test_imex_gives_up_after_repeated_rejections(monkeypatch):
    # a transport fraction that never falls under 1 rejects every attempt;
    # each retry runs at k_cfl/frac of the dt before, and the step gives up
    # after 20 attempts
    dts = []

    def always_over(mesh, u_star, dt):
        dts.append(dt)
        return 2.0

    monkeypatch.setattr(drv, "transport_cfl_fraction", always_over)
    p, sc, mesh, topo, ic = _imex_dam_break()
    with pytest.raises(CFLError,
                       match=r"^step 0: IMEX step rejected repeatedly") \
            as exc:
        run(mesh, topo, ic, sc.bc, p, 0.01)
    assert len(dts) == 20
    assert all(b == p.k_cfl * a / 2.0 for a, b in zip(dts, dts[1:]))
    # the message names the last attempt's dt and fraction, and the causes
    assert str(exc.value) == (
        f"step 0: IMEX step rejected repeatedly: last attempt dt = "
        f"{dts[-1]:.3e}, transport CFL fraction 2.000e+00; 20 attempts "
        f"failed on the transport CFL, 0 on positivity")


def test_imex_give_up_message_counts_positivity(monkeypatch):
    # rejections by positivity leave the last attempt without a fraction
    def never_positive(tn, mesh, p, dt, pattern):
        raise PositivityError("forced", cell=0)

    monkeypatch.setattr(drv, "implicit_acoustic", never_positive)
    p, sc, mesh, topo, ic = _imex_dam_break()
    with pytest.raises(CFLError, match=r"^step 0: IMEX step rejected "
                       r"repeatedly: last attempt dt = \S+, transport CFL "
                       r"fraction nan; 0 attempts failed on the transport "
                       r"CFL, 20 on positivity$"):
        run(mesh, topo, ic, sc.bc, p, 0.01)


@pytest.mark.parametrize("suggested", [0.3, 0.8, None])
def test_imex_positivity_retry_dt(monkeypatch, suggested):
    # an attempt that fails positivity is re-solved at half its dt, or at
    # the error's suggested dt when that is smaller
    dts = []
    attempt = drv.implicit_acoustic

    def first_fails(tn, mesh, p, dt, pattern):
        dts.append(dt)
        if len(dts) == 1:
            raise PositivityError(
                "forced", cell=0,
                suggested_dt=None if suggested is None else suggested * dt)
        return attempt(tn, mesh, p, dt, pattern=pattern)

    monkeypatch.setattr(drv, "implicit_acoustic", first_fails)
    p, sc, mesh, topo, ic = _imex_dam_break()
    state = prepare_state(mesh, topo, ic, sc.bc, p)
    dt = drv.advance(state, np.inf, 0.01)
    first, second = dts
    expected = 0.5 * first if suggested is None else min(0.5 * first,
                                                         suggested * first)
    assert second == expected
    assert dt == second


def test_solver_error_keeps_residual_and_step():
    # one BiCGSTAB iteration (and two restarts) cannot solve the first
    # IMEX dam-break system to the default tolerance
    p = Params(scheme="IMEX", solver_maxiter=1)
    sc = get_scenario("dam_break")
    mesh = meshmod.build_cartesian(10, 10)
    topo, ic = sc.build(mesh, p)
    with pytest.raises(SolverError, match=r"^step 0: .*missed tolerance") \
            as exc:
        run(mesh, topo, ic, sc.bc, p, 0.01)
    assert exc.value.residual > p.solver_tol


@pytest.mark.parts
def test_positivity_error_keeps_cell_and_step(monkeypatch):
    # in parts, cell 5 sits in a part that a pool thread runs, and the
    # calling thread's parts hold bad cells too: the lowest bad cell is
    # reported, as in one part
    p = Params()
    h = np.full(16, 1.0)
    h[[5, 9, 13]] = 0.0
    ic = ConservedField(h, np.zeros((16, 2)))
    for grain in (None, 8):
        if grain:
            monkeypatch.setattr(meshmod, "PART_FACES", grain)
        mesh = meshmod.build_cartesian(4, 4)
        parts = [range(q.cells.start, q.cells.stop) for q in mesh.parts]
        if grain:
            assert len(parts) == min(2 * meshmod.WORKERS, 40 // grain) > 1
            i = next(i for i, cells in enumerate(parts) if 5 in cells)
            assert meshmod.WORKERS == 1 or i % meshmod.WORKERS
        with pytest.raises(PositivityError, match=r"^step 0: h non-positive "
                           r"in cell 5 \(h = 0.000e\+00\)$") as exc:
            run(mesh, Topography(np.zeros(16)), ic, BoundaryCondition(), p,
                0.01)
        assert exc.value.cell == 5


def _reference_advance(state, dt_max):
    """The driver's step with the time-n record kept whole: time-n fluxes,
    the scheme's dt, the acoustic step and the combined update.  It
    asserts the CFL limits that the dt must meet, with the exact
    fractions: the acoustic one (EXEX) and the transport one."""
    mesh, p = state.mesh, state.params
    tn = time_level(state)
    if p.scheme == "EXEX":
        dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, dt_max)
        assert acoustic.acoustic_cfl_fraction(mesh, tn.relaxed.tau,
                                              tn.fluxes, dt) <= 0.5
        ac = acoustic.explicit_acoustic(tn, mesh, dt)
    else:
        if state.next_dt is None:
            state.next_dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p,
                                    dt_max)
        dt = state.next_dt
        pattern = acoustic.implicit_pattern(mesh)
        for _ in range(20):
            try:
                ac = acoustic.implicit_acoustic(tn, mesh, p, dt, pattern)
            except PositivityError as exc:
                dt = min(0.5 * dt, exc.suggested_dt or 0.5 * dt)
                continue
            frac = transport_cfl_fraction(mesh, ac.u_star, dt)
            if frac <= 1.0:
                break
            dt = p.k_cfl * dt / frac
        else:
            pytest.fail("IMEX step rejected repeatedly")
        state.rate = ac.rate
        state.next_dt = dt_imex(mesh, ac.u_star, p, dt_max)
    assert transport_cfl_fraction(mesh, ac.u_star, dt) <= 1.0
    state.conserved = combined_update(state.conserved, ac, mesh, dt)
    return dt


def _periodic_quads():
    mesh = meshmod.build_cartesian(12, 10)
    rng = np.random.default_rng(7)
    h = rng.uniform(0.8, 1.2, mesh.n_cells)
    hu = rng.normal(scale=0.3, size=(mesh.n_cells, 2))
    return (mesh, bump_topography(mesh.centroid[:, 0]),
            ConservedField(h, hu), BoundaryCondition.periodic_all())


def _neumann_triangles_dam_break():
    mesh = meshmod.build_triangulated(10, 10)
    z = bump_topography(mesh.centroid[:, 0])
    return (mesh, z, dam_break(mesh.centroid[:, 0], z), BoundaryCondition())


@pytest.mark.parts
@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
@pytest.mark.parametrize("case", [_periodic_quads,
                                  _neumann_triangles_dam_break])
def test_advance_bitwise_equals_exact_check_stepper(monkeypatch, case,
                                                    scheme):
    # advance() frees the time-n arrays its explicit step does not read;
    # h and hu must not change by a single bit, and every dt meets both
    # CFL limits.  With a small grain, advance() runs the mesh in parts on
    # the thread pool, and h, hu and every dt still equal those of one
    # part.
    mesh, z, ic, bc = case()
    p = Params(scheme=scheme)
    state = prepare_state(mesh, Topography(z), ic, bc, p)
    ref = prepare_state(mesh, Topography(z), ic, bc, p)
    assert len(state.mesh.parts) == len(ref.mesh.parts) == 1
    monkeypatch.setattr(meshmod, "PART_FACES", 60)
    split = prepare_state(case()[0], Topography(z), ic, bc, p)
    n_parts = len(split.mesh.parts)
    assert n_parts == min(2 * meshmod.WORKERS, mesh.n_faces // 60)
    assert n_parts >= (3 if meshmod.WORKERS > 1 else 2)
    for _ in range(25):
        dt = drv.advance(state, np.inf, 0.01)
        assert _reference_advance(ref, 0.01) == dt
        assert drv.advance(split, np.inf, 0.01) == dt
    for s in (ref, split):
        assert np.array_equal(state.conserved.h, s.conserved.h)
        assert np.array_equal(state.conserved.hu, s.conserved.hu)


@pytest.mark.parts
@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_parts_on_more_threads_than_cpus(monkeypatch, scheme):
    # 16 parts on 8 threads switching every microsecond: each part writes
    # its own slices, so h, hu and t stay those of the one-part run
    mesh, z, ic, bc = _periodic_quads()
    p = Params(scheme=scheme)
    ref = run_steps(mesh, Topography(z), ic, bc, p, 10, 0.01)
    monkeypatch.setattr(meshmod, "WORKERS", 8)
    monkeypatch.setattr(meshmod, "PART_FACES", 16)
    monkeypatch.setattr(meshmod, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        state = run_steps(_periodic_quads()[0], Topography(z), ic, bc, p,
                          10, 0.01)
    finally:
        sys.setswitchinterval(interval)
        if meshmod._pool is not None:
            meshmod._pool.shutdown(wait=False)
    assert len(state.mesh.parts) == 16
    assert state.t == ref.t
    assert np.array_equal(state.conserved.h, ref.conserved.h)
    assert np.array_equal(state.conserved.hu, ref.conserved.hu)


@pytest.mark.parts
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_after_the_pool_started_runs_parts(monkeypatch):
    # the child has none of the pool's threads: it starts a pool of its
    # own instead of waiting forever on the parent's
    monkeypatch.setattr(meshmod, "WORKERS", 2)
    monkeypatch.setattr(meshmod, "PART_FACES", 60)
    monkeypatch.setattr(meshmod, "_pool", None)
    mesh, z, ic, bc = _periodic_quads()
    ref = run_steps(mesh, Topography(z), ic, bc, Params(), 2, 0.01)
    assert len(ref.mesh.parts) == 4 and meshmod._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 2    # the child never returns into the test run
        try:
            state = run_steps(mesh, Topography(z), ic, bc, Params(), 2,
                              0.01)
            code = int(not np.array_equal(state.conserved.h, ref.conserved.h))
        finally:
            os._exit(code)
    try:
        for _ in range(300):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's step did not finish in 30 s")
    finally:
        meshmod._pool.shutdown(wait=False)
    assert os.waitstatus_to_exitcode(status) == 0


def test_bicgstab_warm_start_keeps_steps_and_h(monkeypatch):
    # each solve starts from x^n + dt rate, the last accepted solve's rate;
    # started from x^n instead, the run takes the same steps, ends with h
    # equal within the solver tolerance, and takes more iterations
    p = Params(scheme="IMEX")
    sc = get_scenario("dam_break")
    mesh = meshmod.build_triangulated(16, 16)
    topo, ic = sc.build(mesh, p)
    iterations = []
    solve = acoustic.solve_implicit

    def counted(system, *args):
        out = solve(system, *args)
        iterations.append(system.iterations)
        return out

    monkeypatch.setattr(acoustic, "solve_implicit", counted)
    warm = run(mesh, topo, ic, sc.bc, p, 0.1)
    warm_iterations = sum(iterations)
    iterations.clear()
    attempt = drv.implicit_acoustic

    def from_xn(*args, **kwargs):
        return dataclasses.replace(attempt(*args, **kwargs), rate=None)

    monkeypatch.setattr(drv, "implicit_acoustic", from_xn)
    cold = run(mesh, topo, ic, sc.bc, p, 0.1)
    assert warm.steps == cold.steps
    assert np.max(np.abs(warm.final.h - cold.final.h)) <= 1e-10
    assert warm_iterations < sum(iterations)


@pytest.mark.parts
@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_update_runs_without_the_time_n_record(monkeypatch, scheme):
    # the combined update reads the acoustic result only: at its entry the
    # time-n relaxed state and every time-n face array are freed, except
    # the u_star an explicit step hands on; refcounting makes this exact.
    # An explicit step frees a, theta, src and Pi before its acoustic step,
    # which reads only u_star, pi_star_L, pi_star_R, tau and u.
    time_n, alive, at_acoustic = {}, [], []
    relax, evaluate, acoustic_step, update = (
        drv.to_relaxed, drv.evaluate_face_fluxes, drv.explicit_acoustic,
        drv.combined_update)

    def record_relaxed(*args, **kwargs):
        r = relax(*args, **kwargs)
        time_n.clear()
        time_n.update((k, weakref.ref(getattr(r, k)))
                      for k in ("tau", "u", "pi"))
        return r

    def record_fluxes(*args):
        fl = evaluate(*args)
        time_n.update((k, weakref.ref(getattr(fl, k)))
                      for k in ("u_star", "pi_star_L", "pi_star_R", "a",
                                "theta", "src"))
        return fl

    def check_acoustic(*args, **kwargs):
        at_acoustic.append({k for k, ref in time_n.items()
                            if ref() is not None})
        return acoustic_step(*args, **kwargs)

    def check(c_n, ac, *args, **kwargs):
        alive.append({k for k, ref in time_n.items() if ref() is not None})
        if scheme == "EXEX":
            assert ac.u_star is time_n["u_star"]()
        return update(c_n, ac, *args, **kwargs)

    monkeypatch.setattr(drv, "to_relaxed", record_relaxed)
    monkeypatch.setattr(drv, "evaluate_face_fluxes", record_fluxes)
    monkeypatch.setattr(drv, "explicit_acoustic", check_acoustic)
    monkeypatch.setattr(drv, "combined_update", check)
    mesh, z, ic, bc = _neumann_triangles_dam_break()
    run_steps(mesh, Topography(z), ic, bc, Params(scheme=scheme), 5, 0.01)
    # the implicit step's u_star is its sharp level's, not time n's
    assert alive == [{"u_star"} if scheme == "EXEX" else set()] * 5
    read = {"u_star", "pi_star_L", "pi_star_R", "tau", "u"}
    assert at_acoustic == ([read] * 5 if scheme == "EXEX" else [])


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_run_on_prepared_inputs_keeps_dz(scheme):
    # run() prepares its inputs again; a prepared topography keeps its
    # face bottom jump, and the run is bitwise that on the raw inputs
    p = Params(scheme=scheme)
    sc = get_scenario("dam_break")
    mesh = meshmod.build_triangulated(8, 8)
    topo, ic = sc.build(mesh, p)
    state = prepare_state(mesh, topo, ic, sc.bc, p)
    assert prepare_state(mesh, state.topo, state.conserved, sc.bc,
                         p).topo.dz is state.topo.dz
    raw = run(mesh, topo, ic, sc.bc, p, 0.02)
    prepared = run(mesh, state.topo, state.conserved, sc.bc, p, 0.02)
    assert raw.steps == prepared.steps > 0
    assert np.array_equal(raw.final.h, prepared.final.h)
    assert np.array_equal(raw.final.hu, prepared.final.hu)


def test_run_replaces_dz_of_another_binding():
    # a jump prepared under the zero-gradient closure is 0 on the faces
    # that periodic_x pairs; a periodic run must use its own binding's jump,
    # which keeps this lake at rest
    mesh = meshmod.build_cartesian(6, 4)
    z = np.random.default_rng(1).uniform(0.0, 0.1, mesh.n_cells)
    ic = ConservedField(1.0 - z, np.zeros((mesh.n_cells, 2)))
    p = Params()
    neumann = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    bc = BoundaryCondition.periodic_x()
    stale = run(mesh, neumann.topo, ic, bc, p, 0.01)
    fresh = run(mesh, Topography(z), ic, bc, p, 0.01)
    assert np.array_equal(stale.final.h, fresh.final.h)
    assert np.array_equal(stale.final.hu, fresh.final.hu)
    assert np.max(np.abs(fresh.final.h + z - 1.0)) < 1e-12


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
def test_run_and_advance_leave_initial_unchanged(scheme):
    # prepare_state holds the caller's arrays without a copy, so no step
    # may write into them; the final state has one entry per cell
    p = Params(scheme=scheme)
    sc = get_scenario("vortex_flat")
    mesh = meshmod.build_triangulated(6, 6, sc.domain)
    topo, ic = sc.build(mesh, p)
    before = ic.h.copy(), ic.hu.copy(), topo.z.copy()
    rep = run(mesh, topo, ic, sc.bc, p, 0.002)
    state = prepare_state(mesh, topo, ic, sc.bc, p)
    drv.advance(state, np.inf, 0.01)
    assert rep.steps > 0 and state.step == 1
    assert np.array_equal(ic.h, before[0])
    assert np.array_equal(ic.hu, before[1])
    assert np.array_equal(topo.z, before[2])
    assert rep.final.h.shape == (mesh.n_cells,)
    assert rep.final.hu.shape == (mesh.n_cells, 2)
