# acceptance.py

"""Desk-scale verification suite.

Each criterion is a function returning a CriterionResult; the CLI `verify`
command and the acceptance test module both run these.  ``run_case`` makes
each run once per process, and ``EXPERIMENTS`` names the runs that
`lpswe reproduce` writes out and the criteria they feed, so `verify` and
`reproduce` share them.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import mesh as meshmod
from .driver import (BoundaryCondition, advance, prepare_state, run,
                     run_steps)
from .fields import ConservedField, Params, Topography
from .io import MeshSpec
from .reference1d import State1D, run1d
from .scenarios import (VORTEX_BACKGROUND_U, bump_topography, dam_break,
                        error_norms, get_scenario, line_cut, vortex_exact)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _velocity(conserved, n):
    return conserved.hu[:n] / conserved.h[:n, None]


class Case(NamedTuple):
    """One scenario run on a generated mesh; the key of ``run_case``."""
    scenario: str
    kind: str            # cartesian | tri
    nx: int
    ny: int
    scheme: str
    theta: str = "corrected"
    t_final: float = 0.1

    @property
    def params(self):
        return Params(scheme=self.scheme, theta_policy=self.theta)


@lru_cache(maxsize=None)
def run_case(case: Case):
    """Run ``case`` once per process; returns (mesh, topo, initial, report)."""
    sc = get_scenario(case.scenario)
    mesh = MeshSpec(kind=case.kind, nx=case.nx, ny=case.ny).build(sc.domain)
    topo, ic = sc.build(mesh, case.params)
    report = run(mesh, topo, ic, sc.bc, case.params, case.t_final)
    return mesh, topo, ic, report


class Experiment(NamedTuple):
    """A benchmark experiment: tagged runs and the criteria they feed."""
    criteria: tuple      # keys of ALL_CRITERIA
    runs: dict           # tag -> Case


_LAKE = ("lake_at_rest", "tri", 32, 32)
_DAM = ("dam_break", "tri", 60, 60)
_VFLAT = ("vortex_flat", "cartesian", 80, 80)
_VTOPO = ("vortex_topo", "cartesian", 160, 80)

EXPERIMENTS = {
    "wb": Experiment(("wb",), {
        f"wb_{s}": Case(*_LAKE, s) for s in ("EXEX", "IMEX")}),
    "dambreak": Experiment(("dambreak",), {
        "dambreak2d": Case(*_DAM, "EXEX"),
        "dambreak2d_IMEX": Case(*_DAM, "IMEX")}),
    "vortex_flat": Experiment(("lowfroude", "imexsteps"), {
        f"vortex_{s}_{t}": Case(*_VFLAT, s, t)
        for s in ("EXEX", "IMEX") for t in ("corrected", "unity")}),
    "vortex_topo": Experiment(("vortex_topo",), {
        f"vtopo_{s}_{t}": Case(*_VTOPO, s, t)
        for s, t in (("EXEX", "corrected"), ("EXEX", "unity"),
                     ("IMEX", "corrected"))}),
}


def _run(experiment, tag):
    return run_case(EXPERIMENTS[experiment].runs[tag])


@lru_cache(maxsize=None)
def dam_break_1d(scheme):
    """The 200-cell 1D dam break reference; returns (xc, state, steps)."""
    p = Params(scheme=scheme)
    nx = 200
    dx = 1.0 / nx
    xc = (np.arange(nx) + 0.5) * dx
    z = bump_topography(xc)
    ic = dam_break(xc, z)
    s0 = State1D(dx, ic.h, np.zeros(nx), np.zeros(nx), z)
    s, steps = run1d(s0, p, 0.1)
    return xc, s, steps


def _crossing(x, H, level):
    """Leftmost linear-interpolated x where H crosses ``level`` upward."""
    above = H >= level
    idx = np.nonzero(~above[:-1] & above[1:])[0]
    if idx.size == 0:
        return float("nan")
    i = idx[0]
    f = (level - H[i]) / (H[i + 1] - H[i])
    return float(x[i] + f * (x[i + 1] - x[i]))


def lake_at_rest_errors(mesh, topo, conserved):
    """Max deviations from the lake at rest: free surface |h + z - 0.5|
    and velocity components |u|, over the interior cells."""
    n = mesh.n_cells
    surf_err = float(np.max(np.abs(conserved.h[:n] + topo.z[:n] - 0.5)))
    u_err = float(np.max(np.abs(_velocity(conserved, n))))
    return surf_err, u_err


def criterion_1_well_balanced():
    mesh, topo, _, rep_ex = _run("wb", "wb_EXEX")
    surf_err, u_err = lake_at_rest_errors(mesh, topo, rep_ex.final)
    _, _, _, rep_im = _run("wb", "wb_IMEX")
    _, u_err_im = lake_at_rest_errors(mesh, topo, rep_im.final)
    passed = surf_err <= 1e-14 and u_err <= 1e-11 and u_err_im <= 1e-6
    return CriterionResult(
        "well-balanced lake at rest",
        passed,
        f"EXEX |H-0.5|inf={surf_err:.2e} (<=1e-14), "
        f"|u|inf={u_err:.2e} (<=1e-11); IMEX |u|inf={u_err_im:.2e} (<=1e-6)")


def criterion_2_conservation():
    p = Params(scheme="EXEX")
    sc = get_scenario("vortex_flat")
    mesh = meshmod.build_cartesian(32, 32, sc.domain)
    topo, ic = sc.build(mesh, p)
    bc = BoundaryCondition.periodic_all()
    n = mesh.n_cells
    mass0 = float(np.sum(mesh.area * ic.h))
    mom0 = (mesh.area[:, None] * ic.hu).sum(axis=0)
    state = run_steps(mesh, topo, ic, bc, p, 220, dt_max=1.0)
    mass1 = float(np.sum(mesh.area * state.conserved.h[:n]))
    mom1 = (mesh.area[:, None] * state.conserved.hu[:n]).sum(axis=0)
    mdrift = abs(mass1 - mass0) / abs(mass0)
    pdrift = np.linalg.norm(mom1 - mom0) / np.linalg.norm(mom0)
    passed = mdrift <= 1e-11 and pdrift <= 1e-11
    return CriterionResult(
        "mass/momentum conservation (periodic, flat bottom, 220 steps)",
        passed,
        f"mass drift={mdrift:.2e}, momentum drift={pdrift:.2e} (<=1e-11)")


def criterion_3_positivity():
    p = Params(scheme="EXEX")
    mesh = meshmod.build_cartesian(20, 20)
    topo = Topography(np.zeros(mesh.n_cells))
    bc = BoundaryCondition()
    rng = np.random.default_rng(20240824)
    xc, yc = mesh.centroid[:, 0], mesh.centroid[:, 1]
    failures = 0
    min_h = np.inf
    for _ in range(100):
        # Random planar split with random states on each side.
        nx, ny = rng.normal(size=2)
        side = (xc - rng.uniform(0.2, 0.8)) * nx + (yc - 0.5) * ny > 0.0
        h = np.where(side, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        ang = rng.uniform(0.0, 2.0 * np.pi, size=2)
        sp = rng.uniform(0.0, 2.0, size=2)
        u = np.where(side[:, None],
                     sp[0] * np.array([np.cos(ang[0]), np.sin(ang[0])]),
                     sp[1] * np.array([np.cos(ang[1]), np.sin(ang[1])]))
        ic = ConservedField(h, h[:, None] * u)
        hist_min = [np.inf]

        try:
            state = prepare_state(mesh, topo, ic, bc, p)
            for _ in range(200):
                advance(state, np.inf, 1.0)
                hist_min[0] = min(hist_min[0],
                                  state.conserved.h[:mesh.n_cells].min())
        except Exception:
            failures += 1
            continue
        if hist_min[0] <= 0.0:
            failures += 1
        min_h = min(min_h, hist_min[0])
    passed = failures == 0
    return CriterionResult(
        "positivity fuzz (100 random fields x 200 EXEX steps)",
        passed, f"failures={failures}, min h seen={min_h:.3e}")


def criterion_4_dam_break():
    details = []
    passed = True
    for case in EXPERIMENTS["dambreak"].runs.values():
        mesh, topo, _, report = run_case(case)
        n = mesh.n_cells
        x2, H2 = line_cut(report.final.h[:n] + topo.z[:n], mesh, 0.5)
        x1, s1, _ = dam_break_1d(case.scheme)
        H1 = s1.h + s1.z
        Href = np.interp(x2, x1, H1)
        l1 = float(np.mean(np.abs(H2 - Href)))
        # front markers: H = 0.6 sits on the shock jump, H = 0.9 inside the
        # rarefaction fan (steep there, so the crossing localizes well)
        shock2 = _crossing(x2, H2, 0.6)
        shock1 = _crossing(x1, H1, 0.6)
        rare2 = _crossing(x2, H2, 0.9)
        rare1 = _crossing(x1, H1, 0.9)
        dsh = abs(shock2 - shock1)
        dra = abs(rare2 - rare1)
        ok = l1 <= 0.05 * 0.5 and dsh <= 3.0 / 200 and dra <= 3.0 / 200
        passed = passed and ok
        details.append(f"{case.scheme}: L1={l1:.4f} (<=0.025), "
                       f"dshock={dsh:.4f}, drare={dra:.4f} (<=0.015)")
    return CriterionResult("dam break 1D/2D agreement", passed,
                           "; ".join(details))


def vortex_velocity_error(mesh, conserved, t):
    """Area-weighted L2 error of the speed |u| against the exact flat
    vortex at time t."""
    n = mesh.n_cells
    u = _velocity(conserved, n)
    xc, yc = mesh.centroid[:, 0], mesh.centroid[:, 1]
    _, ue, ve = vortex_exact(xc, yc, t, Params())
    num_mag = np.hypot(u[:, 0], u[:, 1])
    ex_mag = np.hypot(ue, ve)
    _, _, l2 = error_norms(num_mag, ex_mag, mesh.area)
    return l2


def criterion_5_low_froude():
    details = []
    passed = True
    for scheme in ("EXEX", "IMEX"):
        mesh_c, _, _, rep_c = _run("vortex_flat", f"vortex_{scheme}_corrected")
        mesh_u, _, _, rep_u = _run("vortex_flat", f"vortex_{scheme}_unity")
        e_c = vortex_velocity_error(mesh_c, rep_c.final, rep_c.t_final)
        e_u = vortex_velocity_error(mesh_u, rep_u.final, rep_u.t_final)
        ok = e_c <= 0.5 * e_u
        passed = passed and ok
        details.append(f"{scheme}: L2 |u| err corrected={e_c:.4f} vs "
                       f"unity={e_u:.4f} (ratio {e_c / e_u:.2f} <= 0.5)")
    return CriterionResult("low-Froude correction efficacy", passed,
                           "; ".join(details))


def criterion_6_imex_step_count():
    *_, rep_ex = _run("vortex_flat", "vortex_EXEX_corrected")
    *_, rep_im = _run("vortex_flat", "vortex_IMEX_corrected")
    ratio = rep_ex.steps / max(rep_im.steps, 1)
    passed = rep_im.steps * 10 <= rep_ex.steps
    return CriterionResult(
        "IMEX large-time-step (flat vortex)", passed,
        f"EXEX {rep_ex.steps} steps vs IMEX {rep_im.steps} "
        f"(ratio {ratio:.1f} >= 10)")


def core_swirl_speed(mesh, conserved, t):
    """Max swirl speed |u - (VORTEX_BACKGROUND_U, 0)| over the vortex core
    disc (radius 0.25 around the center advected to time t).

    The uniform background advection is subtracted: no scheme diffuses a
    uniform flow, so only the swirl measures pressure diffusion."""
    n = mesh.n_cells
    u = _velocity(conserved, n)
    center = np.array([0.5 + VORTEX_BACKGROUND_U * t, 0.5])
    r = np.hypot(mesh.centroid[:, 0] - center[0],
                 mesh.centroid[:, 1] - center[1])
    core = r <= 0.25
    return float(np.max(np.hypot(u[core, 0] - VORTEX_BACKGROUND_U,
                                 u[core, 1])))


def criterion_7_vortex_topography():
    mesh, _, ic, rep_c = _run("vortex_topo", "vtopo_EXEX_corrected")
    *_, rep_u = _run("vortex_topo", "vtopo_EXEX_unity")
    *_, rep_i = _run("vortex_topo", "vtopo_IMEX_corrected")
    v0 = core_swirl_speed(mesh, ic, 0.0)
    v_c = core_swirl_speed(mesh, rep_c.final, rep_c.t_final)
    v_u = core_swirl_speed(mesh, rep_u.final, rep_u.t_final)
    v_i = core_swirl_speed(mesh, rep_i.final, rep_i.t_final)
    ok_retain = v_c >= 0.5 * v0 and v_i >= 0.5 * v0
    ok_destroy = v_u < 0.5 * v0
    ok_steps = rep_i.steps * 10 <= rep_c.steps
    passed = ok_retain and ok_destroy and ok_steps
    return CriterionResult(
        "non-flat-bottom vortex", passed,
        f"core max swirl |u-U|: initial={v0:.2f}, "
        f"EXEX corrected={v_c:.2f} ({100 * v_c / v0:.0f}%), "
        f"IMEX corrected={v_i:.2f} ({100 * v_i / v0:.0f}%) need >=50%; "
        f"EXEX theta=1={v_u:.2f} ({100 * v_u / v0:.0f}%) need <50%; "
        f"steps EXEX={rep_c.steps} IMEX={rep_i.steps}")


def criterion_8_equivalence_oracles():
    from .tests_support import (combined_vs_two_step, implicit_vs_dense,
                                strip_vs_1d)
    d1 = combined_vs_two_step()
    d2 = strip_vs_1d()
    d3 = implicit_vs_dense()
    passed = d1 <= 1e-12 and d2 <= 1e-12 and d3 <= 1e-12
    return CriterionResult(
        "scheme-equivalence oracles", passed,
        f"combined-vs-two-step {d1:.1e}, strip-vs-1D {d2:.1e}, "
        f"implicit-vs-dense {d3:.1e} (<=1e-12)")


def _rotate_cell_index(n):
    """Cell permutation of a 90-degree rotation on an n-by-n cartesian
    mesh: cell (i, j) maps to (n-1-j, i)."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    src = (j * n + i).ravel()
    dst = (i * n + (n - 1 - j)).ravel()
    perm = np.empty(n * n, dtype=np.intp)
    perm[dst] = src
    return perm


def _rotate_field(c: ConservedField, n):
    perm = _rotate_cell_index(n)
    h = c.h[perm]
    hu = np.empty_like(c.hu[: n * n])
    hu[:, 0] = -c.hu[perm, 1]
    hu[:, 1] = c.hu[perm, 0]
    return ConservedField(h, hu)


def criterion_9_rotational_invariance():
    p = Params(scheme="EXEX")
    nn = 40
    mesh = meshmod.build_cartesian(nn, nn)
    sc = get_scenario("vortex_flat")
    topo, ic = sc.build(mesh, p)
    bc = BoundaryCondition.periodic_all()
    ic_full = ConservedField(ic.h[:mesh.n_cells], ic.hu[:mesh.n_cells])
    sa = run_steps(mesh, topo, ic_full.copy(), bc, p, 50, dt_max=1.0)
    sb = run_steps(mesh, topo, _rotate_field(ic_full, nn), bc, p, 50,
                   dt_max=1.0)
    n = mesh.n_cells
    ref = _rotate_field(
        ConservedField(sa.conserved.h[:n], sa.conserved.hu[:n]), nn)
    dh = np.max(np.abs(sb.conserved.h[:n] - ref.h))
    dm = np.max(np.abs(sb.conserved.hu[:n] - ref.hu))
    err = max(dh / np.max(np.abs(ref.h)), dm / np.max(np.abs(ref.hu)))
    passed = err <= 1e-12
    return CriterionResult(
        "rotational invariance (50 steps)", passed,
        f"relative Linf mismatch={err:.2e} (<=1e-12)")


def criterion_10_convergence():
    errs, hs = [], []
    for n in (40, 80, 160):
        case = Case("vortex_flat", "cartesian", n, n, "EXEX", t_final=0.05)
        mesh, _, _, report = run_case(case)
        xc, yc = mesh.centroid[:, 0], mesh.centroid[:, 1]
        he, _, _ = vortex_exact(xc, yc, report.t_final, case.params)
        _, l1, _ = error_norms(report.final.h[:mesh.n_cells], he, mesh.area)
        errs.append(l1)
        hs.append(1.0 / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    passed = 0.7 <= slope <= 1.3
    return CriterionResult(
        "first-order convergence (smooth vortex)", passed,
        f"L1(h) errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
        f"observed order {slope:.2f} (in [0.7, 1.3])")


ALL_CRITERIA = [
    ("wb", criterion_1_well_balanced),
    ("conservation", criterion_2_conservation),
    ("positivity", criterion_3_positivity),
    ("dambreak", criterion_4_dam_break),
    ("lowfroude", criterion_5_low_froude),
    ("imexsteps", criterion_6_imex_step_count),
    ("vortex_topo", criterion_7_vortex_topography),
    ("oracles", criterion_8_equivalence_oracles),
    ("rotation", criterion_9_rotational_invariance),
    ("convergence", criterion_10_convergence),
]


def run_criteria(only=None):
    results = []
    for key, fn in ALL_CRITERIA:
        if only and key not in only:
            continue
        results.append((key, fn()))
    return results
