"""Run one lpswe benchmark workload and print its metrics as JSON.

Started by ``run.py`` in a fresh interpreter whose BLAS/OpenMP pools are
pinned to one thread before numpy loads.  Each repetition is a full time to
solution: mesh build, ``Scenario.build`` and ``driver.prepare_state`` (the
set-up), then ``driver.run`` to the workload's ``t_final`` (the solve).
Repetitions run back to back, one at a time, until ``--seconds`` are used
(at least ``MIN_REPS``); medians over them are reported.  With ``--trace 1``
every second repetition runs with spans installed (see ``spans.py``) and
the per-layer metrics come from those; the untraced ones give the baseline
for ``trace.overhead_frac``.
"""

import os
import sys

from run import THREAD_ENV

# The thread pools are sized when numpy loads, so this has to hold first.
if any(os.environ.get(k) != v for k, v in THREAD_ENV.items()):
    sys.exit("bench.py: start it through run.py (thread variables unset)")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from lpswe import driver, scenarios  # noqa: E402
from lpswe import mesh as meshmod  # noqa: E402
from lpswe.exceptions import LpsweError  # noqa: E402
from lpswe.fields import ConservedField, Params  # noqa: E402
from lpswe.reference1d import State1D, run1d  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_REPS = 3
# h_err_l1 must stay within this relative distance of the value recorded in
# reference.json for the same input; a faster but less accurate change (a
# looser solve, a larger dt) moves it further than that.
H_ERR_RTOL = 0.01
# Cells of the 1D dam-break reference (as in acceptance criterion 4).
REF1D_CELLS = 200
DAM_RANGE = (0.45, 0.55)


@dataclass(frozen=True)
class Workload:
    scenario: str     # "vortex" (vortex_flat) or "dambreak" (over the bump)
    scheme: str
    mesh: str         # mesh constructor in lpswe.mesh
    n: int            # cells per side
    t_final: float


WORKLOADS = {
    # Explicit face kernels are ~95% of the solve, the mesh build ~85% of
    # set-up; the implicit layer is not used.
    "exex_vortex_320": Workload("vortex", "EXEX", "build_cartesian", 320,
                                4e-4),
    # Low Froude: IMEX dt ~12x the EXEX dt, periodic wrap-around adds LU
    # fill; solve_implicit + assemble_implicit are ~98% of the solve.
    "imex_vortex_80": Workload("vortex", "IMEX", "build_cartesian", 80, 4e-3),
    # Triangles (another sparsity pattern), Froude ~0.5 so many small
    # solves, and the only workload where the lagged-dt reject/retry fires.
    "imex_dambreak_tri40": Workload("dambreak", "IMEX", "build_triangulated",
                                    40, 0.1),
}
# Same code paths on meshes small enough for the benchmark's own test.
SMOKE = {
    "exex_vortex_320": replace(WORKLOADS["exex_vortex_320"], n=32),
    "imex_vortex_80": replace(WORKLOADS["imex_vortex_80"], n=16),
    "imex_dambreak_tri40": replace(WORKLOADS["imex_dambreak_tri40"], n=20),
}

EXPLICIT_LAYERS = ("flux_kernels.evaluate_face_fluxes",
                   "acoustic.explicit_acoustic", "transport.combined_update",
                   "transport.transport_cfl_fraction", "driver.dt_exex",
                   "driver.dt_imex")
IMPLICIT_LAYERS = ("acoustic.solve_implicit", "acoustic.assemble_implicit")
# Counts that must repeat exactly between repetitions of one input.
EXACT_COUNTS = ("driver.steps", "flux_kernels.evaluate_face_fluxes.calls",
                "acoustic.implicit_acoustic.calls",
                "acoustic.solve_implicit.calls",
                "acoustic.assemble_implicit.nnz", "acoustic.imex_rejections")
# Per-layer metrics taken from the spans, with their units.
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "scenarios.build_s": "s",
    "driver.prepare_state_s": "s",
    "flux_kernels.evaluate_face_fluxes.calls": "count",
    "flux_kernels.evaluate_face_fluxes.self_s": "s",
    "flux_kernels.evaluate_face_fluxes.ns_per_face": "ns",
    "acoustic.explicit_acoustic.self_s": "s",
    "acoustic.explicit_acoustic.ns_per_cell": "ns",
    "transport.combined_update.self_s": "s",
    "transport.combined_update.ns_per_cell": "ns",
    "transport.transport_cfl_fraction.self_s": "s",
    "driver.dt_s": "s", "driver.apply_bc_s": "s", "fields.to_relaxed_s": "s",
    "acoustic.solve_implicit.calls": "count",
    "acoustic.solve_implicit.self_s": "s",
    "acoustic.solve_implicit.ms_p50": "ms",
    "acoustic.solve_implicit.residual_rel_max": "ratio",
    "acoustic.assemble_implicit.self_s": "s",
    "acoustic.assemble_implicit.nnz": "count",
    "acoustic.implicit_acoustic.calls": "count",
    "acoustic.implicit_acoustic.self_s": "s",
    "acoustic.imex_rejections": "count",
    "acoustic.imex_accept_ratio": "ratio",
    "driver.steps": "count",
    "trace.explicit_frac": "fraction", "trace.implicit_frac": "fraction",
}


def _record_nnz(span, args, kwargs, system):
    nnz = getattr(getattr(system, "A", None), "nnz", None)
    if nnz is not None:
        span.attrs["nnz"] = int(nnz)


def _record_residual(span, args, kwargs, result):
    """||Ax - b|| / ||b|| of the returned solution, for the interleaved
    (u1, u2, Pi) unknowns of ``LinearSystem``."""
    system = args[0] if args else kwargs.get("system")
    try:
        u, pi = result
        x = np.column_stack([u, pi]).ravel()
        r = np.linalg.norm(system.A @ x - system.b)
        span.attrs["residual"] = float(r / max(np.linalg.norm(system.b),
                                               1e-300))
    except (AttributeError, TypeError, ValueError):
        pass   # contract changed; the metric is reported absent


# (owner, attribute, span name, hook): each wrapper sits where the caller
# looks the name up.
TRACE_TARGETS = [
    ("lpswe.mesh", "build_cartesian", "mesh.build", None),
    ("lpswe.mesh", "build_triangulated", "mesh.build", None),
    ("lpswe.scenarios.Scenario", "build", "scenarios.build", None),
    ("lpswe.driver", "prepare_state", "driver.prepare_state", None),
    ("lpswe.driver", "run", "driver.run", None),
    ("lpswe.driver", "advance", "driver.advance", None),
    ("lpswe.driver", "apply_bc", "driver.apply_bc", None),
    ("lpswe.driver", "to_relaxed", "fields.to_relaxed", None),
    ("lpswe.driver", "evaluate_face_fluxes",
     "flux_kernels.evaluate_face_fluxes", None),
    ("lpswe.acoustic", "evaluate_face_fluxes",
     "flux_kernels.evaluate_face_fluxes", None),
    ("lpswe.driver", "dt_exex", "driver.dt_exex", None),
    ("lpswe.driver", "dt_imex", "driver.dt_imex", None),
    ("lpswe.driver", "explicit_acoustic", "acoustic.explicit_acoustic", None),
    ("lpswe.driver", "implicit_acoustic", "acoustic.implicit_acoustic", None),
    ("lpswe.acoustic", "assemble_implicit", "acoustic.assemble_implicit",
     _record_nnz),
    ("lpswe.acoustic", "solve_implicit", "acoustic.solve_implicit",
     _record_residual),
    ("lpswe.driver", "combined_update", "transport.combined_update", None),
    ("lpswe.driver", "transport_cfl_fraction",
     "transport.transport_cfl_fraction", None),
    ("lpswe.transport", "transport_cfl_fraction",
     "transport.transport_cfl_fraction", None),
]


@dataclass
class Case:
    """Seed-generated inputs of one workload."""

    scenario: scenarios.Scenario
    key: str            # names the h_err_l1 value in reference.json
    inputs: dict        # the generated parameters, for the report
    h_error: object     # (mesh, final h, t) -> area-weighted L1 error of h


def _vortex_case(w, seed, p):
    # Whole-cell shifts along the periodic axis: every seed poses the same
    # discrete problem up to round-off, at another place in memory.
    shift = (seed % w.n) / w.n

    def initial(xc, yc, z, params):
        h, u, v = scenarios.vortex_exact(xc - shift, yc, 0.0, params)
        return ConservedField(h, np.stack([h * u, h * v], axis=1))

    def h_error(mesh, h, t):
        he, _, _ = scenarios.vortex_exact(mesh.centroid[:, 0] - shift,
                                          mesh.centroid[:, 1], t, p)
        return scenarios.error_norms(h, he, mesh.area)[1]

    sc = scenarios.Scenario(
        name="vortex_flat", domain=(0.0, 1.0, 0.0, 1.0),
        topography=scenarios.flat_topography, initial=initial,
        bc=driver.BoundaryCondition.periodic_x(y_kind="absorbing"))
    return Case(sc, "vortex", {"vortex_x": (0.5 + shift) % 1.0}, h_error)


def dam_positions(n):
    """Dam positions in DAM_RANGE that fall on cell edges of both the
    n-wide 2D mesh and the 1D reference, so both start from the same data."""
    lo, hi = DAM_RANGE
    ks = range(math.ceil(lo * n - 1e-9), math.floor(hi * n + 1e-9) + 1)
    return [k / n for k in ks if (k * REF1D_CELLS) % n == 0]


def _dambreak_case(w, seed, p):
    positions = dam_positions(w.n)
    x_dam = positions[seed % len(positions)]

    def initial(xc, yc, z, params):
        h = np.where(xc <= x_dam, 0.5, 1.0) - z
        return ConservedField(h, np.zeros((len(h), 2)))

    dx = 1.0 / REF1D_CELLS
    x1 = (np.arange(REF1D_CELLS) + 0.5) * dx
    z1 = scenarios.bump_topography(x1)
    h1 = np.where(x1 <= x_dam, 0.5, 1.0) - z1
    ref, _ = run1d(State1D(dx, h1, np.zeros_like(x1), np.zeros_like(x1), z1),
                   p, w.t_final)
    H1 = ref.h + z1

    def h_error(mesh, h, t):
        # y = 0.5 cut against the 1D run, as acceptance criterion 4 does.
        x2, (h2, area) = scenarios.line_cut(np.vstack([h, mesh.area]),
                                            mesh, 0.5)
        href = np.interp(x2, x1, H1) - scenarios.bump_topography(x2)
        return scenarios.error_norms(h2, href, area)[1]

    sc = scenarios.Scenario(
        name="dam_break", domain=(0.0, 1.0, 0.0, 1.0),
        topography=lambda x, y: scenarios.bump_topography(x),
        initial=initial, bc=driver.BoundaryCondition())
    return Case(sc, f"x_dam={x_dam:.4f}", {"x_dam": x_dam}, h_error)


def params(w):
    # dt_max = t_final leaves dt to the scheme's own bounds; the driver's
    # default (t_final / 10) would cap the IMEX dt of a short run.
    return Params(scheme=w.scheme, theta_policy="corrected", dt_max=w.t_final)


def make_case(w, seed, p):
    return (_vortex_case if w.scenario == "vortex" else _dambreak_case)(
        w, seed, p)


def one_rep(w, case, p, reference):
    """Set up and solve once; returns the timings, counts and any failure."""
    rep = {"failure": None}
    try:
        t0 = time.perf_counter()
        mesh = getattr(meshmod, w.mesh)(w.n, w.n)
        topo, ic = case.scenario.build(mesh, p)
        state = driver.prepare_state(mesh, topo, ic, case.scenario.bc, p)
        t1 = time.perf_counter()
        report = driver.run(mesh, state.topo, state.conserved,
                            case.scenario.bc, p, w.t_final)
        t2 = time.perf_counter()
    except LpsweError as exc:
        rep["failure"] = type(exc).__name__
        return rep
    n = mesh.n_cells
    h, hu = report.final.h[:n], report.final.hu[:n]
    rep.update(setup_s=t1 - t0, solve_s=t2 - t1, steps=report.steps,
               cells=n, faces=mesh.n_faces)
    if abs(report.t_final - w.t_final) > 1e-12 * w.t_final:
        rep["failure"] = "t_final not reached"
    elif not (np.all(np.isfinite(h)) and np.all(np.isfinite(hu))):
        rep["failure"] = "non-finite h or hu"
    elif np.any(h <= 0.0):
        rep["failure"] = "h <= 0"
    else:
        rep["h_err_l1"] = err = case.h_error(mesh, h, report.t_final)
        if reference is not None and abs(err / reference - 1.0) > H_ERR_RTOL:
            rep["failure"] = (f"h_err_l1 {err:.6e} not within {H_ERR_RTOL} "
                              f"of reference {reference:.6e}")
    return rep


def peak_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile_tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, and never below the median."""
    n = len(samples)
    pct = max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    return float(np.percentile(samples, pct)), pct


def layer_values(tracer, cells, faces, absent):
    """Per-layer values of one traced repetition; metrics whose hook found
    an unexpected return value are added to ``absent``."""
    sp = tracer.spans
    summary = spans.summarize(sp)
    calls, self_s = Counter(), defaultdict(float)
    for s, (_, slf) in zip(sp, summary):
        calls[s.name] += 1
        self_s[s.name] += slf
    by_name = defaultdict(list)
    for i, s in enumerate(sp):
        by_name[s.name].append(i)

    steps = [i for i in by_name["driver.advance"] if sp[i].error is None]
    attempts = by_name["acoustic.implicit_acoustic"]
    accepted = len({sp[i].parent for i in attempts if sp[i].error is None}
                   & set(steps))
    solves = by_name["acoustic.solve_implicit"]
    nnz = [sp[i].attrs["nnz"] for i in by_name["acoustic.assemble_implicit"]
           if "nnz" in sp[i].attrs]
    residuals = [sp[i].attrs["residual"] for i in solves
                 if "residual" in sp[i].attrs]
    if solves and not residuals:
        absent.add("acoustic.solve_implicit.residual_rel_max")
    if solves and not nnz:
        absent.add("acoustic.assemble_implicit.nnz")
    solve_total = sum(summary[i][0] for i in by_name["driver.run"]) or 1.0

    def per(name, units):
        n = calls[name] * units
        return 1e9 * self_s[name] / n if n else 0.0

    flux = "flux_kernels.evaluate_face_fluxes"
    return {
        "mesh.build_s": self_s["mesh.build"],
        "scenarios.build_s": self_s["scenarios.build"],
        "driver.prepare_state_s": self_s["driver.prepare_state"],
        flux + ".calls": calls[flux],
        flux + ".self_s": self_s[flux],
        flux + ".ns_per_face": per(flux, faces),
        "acoustic.explicit_acoustic.self_s":
            self_s["acoustic.explicit_acoustic"],
        "acoustic.explicit_acoustic.ns_per_cell":
            per("acoustic.explicit_acoustic", cells),
        "transport.combined_update.self_s":
            self_s["transport.combined_update"],
        "transport.combined_update.ns_per_cell":
            per("transport.combined_update", cells),
        "transport.transport_cfl_fraction.self_s":
            self_s["transport.transport_cfl_fraction"],
        "driver.dt_s": self_s["driver.dt_exex"] + self_s["driver.dt_imex"],
        "driver.apply_bc_s": self_s["driver.apply_bc"],
        "fields.to_relaxed_s": self_s["fields.to_relaxed"],
        "acoustic.solve_implicit.calls": len(solves),
        "acoustic.solve_implicit.self_s": self_s["acoustic.solve_implicit"],
        "acoustic.solve_implicit.ms_p50":
            1e3 * statistics.median([summary[i][1] for i in solves])
            if solves else 0.0,
        "acoustic.solve_implicit.residual_rel_max":
            max(residuals) if residuals else 0.0,
        "acoustic.assemble_implicit.self_s":
            self_s["acoustic.assemble_implicit"],
        "acoustic.assemble_implicit.nnz": max(nnz) if nnz else 0,
        "acoustic.implicit_acoustic.calls": len(attempts),
        "acoustic.implicit_acoustic.self_s":
            self_s["acoustic.implicit_acoustic"],
        "acoustic.imex_rejections": len(attempts) - accepted,
        "acoustic.imex_accept_ratio":
            accepted / len(attempts) if attempts else 1.0,
        "driver.steps": len(steps),
        "trace.explicit_frac":
            sum(self_s[k] for k in EXPLICIT_LAYERS) / solve_total,
        "trace.implicit_frac":
            sum(self_s[k] for k in IMPLICIT_LAYERS) / solve_total,
        "_advance_ms": [1e3 * summary[i][0] for i in steps],
    }


def _llc():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                with open(os.path.join(base, entry, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(base, entry, "size")) as f:
                    size = f.read().strip()
                best = max(best, (level, size), key=lambda b: b[0])
    except OSError:
        pass
    return best[1]


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model or platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
            "llc": _llc(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def load_reference(smoke):
    with open(REFERENCE_FILE) as f:
        return json.load(f)["smoke" if smoke else "full"]


def measure(name, seed, seconds, trace, smoke):
    w = (SMOKE if smoke else WORKLOADS)[name]
    p = params(w)
    t_start = time.perf_counter()
    case = make_case(w, seed, p)
    reference = load_reference(smoke).get(name, {}).get(case.key)
    problems = [] if reference is not None else [
        f"no reference h_err_l1 for {name} {case.key}"]

    untraced, tracers, absent, rss_mb = [], [], set(), []
    while True:
        if trace and len(untraced) > len(tracers):
            tracer = spans.Tracer()
            with spans.installed(tracer, TRACE_TARGETS, absent):
                rep = one_rep(w, case, p, reference)
            tracers.append((tracer, rep))
        else:
            untraced.append(one_rep(w, case, p, reference))
        rss_mb.append(peak_rss_mb())
        reps = untraced + [r for _, r in tracers]
        elapsed = time.perf_counter() - t_start
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break

    ok = [r for r in reps if r["failure"] is None]
    failures = [r["failure"] for r in reps if r["failure"] is not None]
    for key in ("steps", "cells", "faces", "h_err_l1"):
        if len({r[key] for r in ok}) > 1:
            problems.append(f"{key} differs between repetitions")
    first = ok[0] if ok else {}
    base = [r for r in untraced if r["failure"] is None]

    def med(key, rows):
        return statistics.median([r[key] for r in rows]) if rows else 0.0

    if not trace:
        metrics = {
            "setup_s": (med("setup_s", base), "s"),
            "solve_s": (med("solve_s", base), "s"),
            # The peak of the first set-up and solve: later repetitions
            # raise the process peak by allocator reuse and fragmentation
            # that depend on how many of them fit in the run.
            "peak_rss_mb": (rss_mb[0], "MB"),
            "h_err_l1": (med("h_err_l1", ok), "m"),
        }
    else:
        metrics = traced_metrics(tracers, base, first, problems, absent)

    report = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "inputs": case.inputs, "scheme": w.scheme, "mesh": f"{w.mesh}({w.n})",
        "t_final": w.t_final, "cells": first.get("cells"),
        "faces": first.get("faces"), "steps": first.get("steps"),
        "repetitions": len(reps), "traced_repetitions": len(tracers),
        "setup_s_all": [r.get("setup_s") for r in reps],
        "solve_s_all": [r.get("solve_s") for r in reps],
        "peak_rss_mb_after_rep": rss_mb,
        "failures": failures, "failed_frac": len(failures) / len(reps),
        "problems": problems, "absent_layers": sorted(absent),
        "reference_h_err_l1": reference, "machine": machine(),
    }
    if tracers:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{name}-seed{seed}.jsonl")
        with open(path, "w") as f:
            for i, (tracer, _) in enumerate(tracers):
                tracer.write(f, i)
        report["spans_file"] = os.path.relpath(path, ROOT)
    result = {
        "correct": not failures and not problems,
        "attempted": len(reps),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return report, result


def traced_metrics(tracers, base, first, problems, absent):
    """Per-layer metrics: medians over the traced repetitions, exact counts
    checked to repeat, and the derived step and overhead figures."""
    rows = [layer_values(t, r["cells"], r["faces"], absent)
            for t, r in tracers if r["failure"] is None]
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        vals = [row[key] for row in rows]
        if not vals:
            metrics[key] = (0, unit)
        elif key in EXACT_COUNTS:
            if len(set(vals)) > 1:
                problems.append(f"{key} differs between repetitions: {vals}")
            metrics[key] = (vals[0], unit)
        else:
            metrics[key] = (statistics.median(vals), unit)
    if rows and first and rows[0]["driver.steps"] != first["steps"]:
        problems.append("traced step count differs from RunReport.steps")

    advance = [ms for row in rows for ms in row["_advance_ms"]]
    tail, pct = _percentile_tail(advance) if advance else (0.0, 0.0)
    metrics["driver.advance_ms_p50"] = (
        statistics.median(advance) if advance else 0.0, "ms")
    metrics["driver.advance_ms_tail"] = (tail, "ms")
    metrics["driver.advance_ms_tail_pct"] = (pct, "%")
    metrics["driver.advance_samples"] = (len(advance), "count")

    solve_untraced = statistics.median([r["solve_s"] for r in base]) \
        if base else 0.0
    solve_traced = statistics.median([r["solve_s"] for _, r in tracers
                                      if r["failure"] is None]) \
        if rows else 0.0
    cell_steps = first.get("steps", 0) * first.get("cells", 0)
    metrics["driver.ns_per_cell_step"] = (
        1e9 * solve_untraced / cell_steps if cell_steps else 0.0, "ns")
    metrics["trace.overhead_frac"] = (
        solve_traced / solve_untraced - 1.0 if solve_untraced else 0.0,
        "fraction")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    report, result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
