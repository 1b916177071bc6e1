import numpy as np
import pytest

import lpswe.acoustic as acoustic
import lpswe.driver as drv
from lpswe import mesh as meshmod
from lpswe.acceptance import lake_at_rest_errors
from lpswe.driver import (BoundaryCondition, apply_bc, build_donor, dt_exex,
                          dt_imex, ghost_topography, prepare_state, run,
                          run_steps, time_level)
from lpswe.exceptions import (CFLError, ConfigError, LpsweError,
                              PositivityError, SolverError)
from lpswe.fields import ConservedField, Params, Topography, to_relaxed
from lpswe.flux_kernels import evaluate_face_fluxes
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


def test_neumann_donor_is_adjacent_owner():
    m = meshmod.build_cartesian(3, 3)
    donor = build_donor(m, BoundaryCondition())
    assert np.array_equal(donor, m.face_owner[m.boundary_faces])


def test_periodic_donor_pairs_opposite_cells():
    m = meshmod.build_cartesian(4, 1)
    donor = build_donor(m, BoundaryCondition.periodic_x(y_kind="neumann"))
    sides = m.boundary_sides()
    left = np.nonzero(sides == meshmod.LEFT)[0]
    right = np.nonzero(sides == meshmod.RIGHT)[0]
    # ghost behind the left boundary face must hold the rightmost cell
    assert donor[left[0]] == m.face_owner[m.boundary_faces[right[0]]]
    assert donor[right[0]] == m.face_owner[m.boundary_faces[left[0]]]


def test_apply_bc_copies_donor_values():
    m = meshmod.build_cartesian(3, 2)
    bc = BoundaryCondition()
    donor = build_donor(m, bc)
    h = np.arange(1.0, m.n_total + 1.0)
    c = ConservedField(h, np.zeros((m.n_total, 2)))
    apply_bc(c, m, donor)
    assert np.array_equal(c.h[m.n_cells:], c.h[donor])


def test_ghost_topography_matches_donor():
    m = meshmod.build_cartesian(4, 4)
    donor = build_donor(m, BoundaryCondition())
    z = bump_topography(m.centroid[:, 0])
    topo = ghost_topography(z, m, donor)
    assert len(topo.z) == m.n_total
    assert np.array_equal(topo.z[m.n_cells:], topo.z[donor])


def _fluxes(mesh, p, h0=1.0, u0=(0.5, 0.0)):
    n = mesh.n_total
    h = np.full(n, h0)
    u = np.tile(u0, (n, 1))
    c = ConservedField(h, h[:, None] * u)
    r = to_relaxed(c, p, n_interior=mesh.n_cells)
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
    assert dt_imex(mesh, fluxes, p, 1.0) == pytest.approx(expected, rel=1e-12)
    assert dt_imex(mesh, fluxes, p, 1e-6) == 1e-6  # dt_max clamp


def test_run_reaches_final_time_exactly():
    p = Params()
    sc = get_scenario("lake_at_rest")
    mesh = meshmod.build_cartesian(8, 8)
    topo, ic = sc.build(mesh, p)
    rep = run(mesh, topo, ic, sc.bc, p, 0.037)
    assert rep.t_final == pytest.approx(0.037, rel=1e-12)
    assert rep.steps == len(rep.dt_history)
    assert rep.steps >= 10  # dt_max = tf/10 caps the step size


def test_max_froude_matches_per_cell_formula():
    # run() tracks max |hu|^2 / h^3 and takes one sqrt at the end; the
    # per-cell Froude number |hu| / h / sqrt(g h) must give the same max
    p = Params()
    sc = get_scenario("vortex_flat")
    mesh = meshmod.build_cartesian(16, 16, sc.domain)
    topo, ic = sc.build(mesh, p)
    n = mesh.n_cells
    per_step = []

    def per_cell(state, dt):
        h = state.conserved.h[:n]
        speed = np.hypot(state.conserved.hu[:n, 0],
                         state.conserved.hu[:n, 1]) / h
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
    # the sparsity of the implicit system depends on the mesh and donors
    # only: one build serves every attempt of a run, rejected ones too
    builds, attempts = [], []
    build, attempt = drv.implicit_pattern, drv.implicit_acoustic

    def counted_build(mesh, donor):
        builds.append(mesh)
        return build(mesh, donor)

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

    def always_over(mesh, fluxes, dt):
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
    def never_positive(tn, mesh, p, dt, donor, pattern):
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

    def first_fails(tn, mesh, p, dt, donor, pattern):
        dts.append(dt)
        if len(dts) == 1:
            raise PositivityError(
                "forced", cell=0,
                suggested_dt=None if suggested is None else suggested * dt)
        return attempt(tn, mesh, p, dt, donor, pattern=pattern)

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


def test_positivity_error_keeps_cell_and_step():
    p = Params()
    mesh = meshmod.build_cartesian(4, 4)
    h = np.full(16, 1.0)
    h[5] = 0.0
    ic = ConservedField(h, np.zeros((16, 2)))
    with pytest.raises(PositivityError, match=r"^step 0: h non-positive") \
            as exc:
        run(mesh, Topography(np.zeros(16)), ic, BoundaryCondition(), p, 0.01)
    assert exc.value.cell == 5


def _reference_advance(state, dt_max):
    """The driver's step with every CFL check exact: time-n fluxes, the
    scheme's dt, the acoustic step (Pi updated) and the combined update,
    no bound passed."""
    mesh, p = state.mesh, state.params
    tn = time_level(state)
    if p.scheme == "EXEX":
        dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, dt_max)
        ac = acoustic.explicit_acoustic(tn, mesh, dt, state.donor)
        assert ac.relaxed.pi is not None
    else:
        if state.next_dt is None:
            state.next_dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p,
                                    dt_max)
        dt = state.next_dt
        pattern = acoustic.implicit_pattern(mesh, state.donor)
        for _ in range(20):
            try:
                ac = acoustic.implicit_acoustic(tn, mesh, p, dt, state.donor,
                                                pattern)
            except PositivityError as exc:
                dt = min(0.5 * dt, exc.suggested_dt or 0.5 * dt)
                continue
            frac = transport_cfl_fraction(mesh, ac.fluxes, dt)
            if frac <= 1.0:
                break
            dt = p.k_cfl * dt / frac
        else:
            pytest.fail("IMEX step rejected repeatedly")
        state.next_dt = dt_imex(mesh, ac.fluxes, p, dt_max)
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


@pytest.mark.parametrize("scheme", ["EXEX", "IMEX"])
@pytest.mark.parametrize("case", [_periodic_quads,
                                  _neumann_triangles_dam_break])
def test_advance_bitwise_equals_exact_check_stepper(case, scheme):
    # advance() skips the Pi update and the CFL passes its dt bound makes
    # redundant; h and hu must not change by a single bit
    mesh, z, ic, bc = case()
    p = Params(scheme=scheme)
    state = prepare_state(mesh, Topography(z), ic, bc, p)
    ref = prepare_state(mesh, Topography(z), ic, bc, p)
    for _ in range(25):
        dt = drv.advance(state, np.inf, 0.01)
        assert _reference_advance(ref, 0.01) == dt
    assert np.array_equal(state.conserved.h, ref.conserved.h)
    assert np.array_equal(state.conserved.hu, ref.conserved.hu)
