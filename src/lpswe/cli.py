# cli.py

"""Command-line interface: run a config, verify the build, reproduce the
benchmark experiments.

Exit codes: 0 success, 1 runtime failure (solver, positivity, failed
criteria), 2 usage or configuration error.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .acceptance import (ALL_CRITERIA, EXPERIMENTS, dam_break_1d,
                         run_case, run_criteria)
from .driver import run
from .exceptions import ConfigError, LpsweError, MeshFormatError
from .io import (MeshSpec, RunConfig, parse_config, write_cut_csv,
                 write_report, write_vtk)
from .scenarios import error_norms, get_scenario, line_cut

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    flags = {"scheme": args.scheme, "theta_policy": args.theta,
             "solver_tol": args.solver_tol}
    try:
        cfg.params = dataclasses.replace(
            cfg.params, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.tf is not None:
        cfg.t_final = args.tf
    if args.mesh:
        cfg.mesh = _parse_mesh_flag(args.mesh)
    return cfg


def _parse_mesh_flag(text) -> MeshSpec:
    """--mesh accepts 'cartesian:NX:NY', 'tri:NX:NY' or a SWMESH file path."""
    parts = text.split(":")
    if parts[0] in ("cartesian", "tri"):
        if len(parts) != 3:
            raise ConfigError(f"--mesh {text!r}: expected kind:nx:ny")
        try:
            return MeshSpec(kind=parts[0], nx=int(parts[1]), ny=int(parts[2]))
        except ValueError:
            raise ConfigError(f"--mesh {text!r}: nx/ny must be integers")
    return MeshSpec(kind="file", path=text)


def _write_outputs(out_dir, tag, sc, p, mesh, topo, report, cut_y=0.5):
    """Write {tag}_final.vtk, {tag}_cut.csv and {tag}_report.txt; returns
    the error norms added to the report when the scenario has an exact
    solution."""
    n = mesh.n_cells
    write_vtk(report.final, topo, mesh, p,
              os.path.join(out_dir, f"{tag}_final.vtk"))
    h = report.final.h[:n]
    u = report.final.hu[:n] / h[:, None]
    H = h + topo.z[:n]
    x, hc = line_cut(h, mesh, cut_y)
    _, uc = line_cut(u[:, 0], mesh, cut_y)
    _, vc = line_cut(u[:, 1], mesh, cut_y)
    _, Hc = line_cut(H, mesh, cut_y)
    _, zc = line_cut(topo.z[:n], mesh, cut_y)
    write_cut_csv(x, hc, uc, vc, Hc, zc,
                  os.path.join(out_dir, f"{tag}_cut.csv"))

    extra = {}
    if sc.exact is not None:
        he, ue, ve = sc.exact(mesh.centroid[:, 0], mesh.centroid[:, 1],
                              report.t_final, p)
        linf, l1, l2 = error_norms(h, he, mesh.area)
        extra["h_error_linf"] = f"{linf:.6e}"
        extra["h_error_l1"] = f"{l1:.6e}"
        extra["h_error_l2"] = f"{l2:.6e}"
        umax = float(np.max(np.hypot(u[:, 0] - ue, u[:, 1] - ve)))
        extra["u_error_linf"] = f"{umax:.6e}"
    write_report(report, os.path.join(out_dir, f"{tag}_report.txt"), extra)
    return extra


def cmd_run(args):
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    sc = get_scenario(cfg.scenario)
    mesh = cfg.mesh.build(sc.domain)
    topo, ic = sc.build(mesh, cfg.params)
    os.makedirs(args.out, exist_ok=True)

    if cfg.output_every > 0:
        def callback(state, dt):
            if state.step % cfg.output_every == 0:
                write_vtk(state.conserved, state.topo, mesh, cfg.params,
                          os.path.join(args.out, f"run_{state.step:06d}.vtk"))
    else:
        callback = None

    report = run(mesh, topo, ic, sc.bc, cfg.params, cfg.t_final,
                 callback=callback)
    extra = _write_outputs(args.out, "run", sc, cfg.params, mesh, topo,
                           report, cfg.cut_y)
    print(f"{cfg.scenario}: {report.steps} steps to t={report.t_final:g}, "
          f"wall {report.wall_time:.2f}s, max Froude "
          f"{report.max_froude:.3e}")
    for k, v in extra.items():
        print(f"  {k} = {v}")
    print(f"outputs in {args.out}")
    return EXIT_OK


def cmd_verify(args):
    only = set(args.only) if args.only else None
    known = {key for key, _ in ALL_CRITERIA}
    if only and not only <= known:
        raise ConfigError(f"unknown criteria {sorted(only - known)}; "
                          f"known: {sorted(known)}")
    return _check_criteria(only)


def _check_criteria(only):
    results = run_criteria(only)
    failed = 0
    for key, res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


def cmd_reproduce(args):
    exp = EXPERIMENTS[args.experiment]
    os.makedirs(args.out, exist_ok=True)
    for tag, case in exp.runs.items():
        mesh, topo, _, report = run_case(case)
        _write_outputs(args.out, tag, get_scenario(case.scenario),
                       case.params, mesh, topo, report)
        print(f"{tag}: {report.steps} steps")
    if args.experiment == "dambreak":
        xc, s, steps = dam_break_1d("EXEX")
        write_cut_csv(xc, s.h, s.u1, s.u2, s.h + s.z, s.z,
                      os.path.join(args.out, "dambreak1d_cut.csv"))
        print(f"dambreak1d: {steps} steps")
    print(f"outputs in {args.out}")
    return _check_criteria(exp.criteria)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lpswe",
        description="Shallow water finite-volume solver "
                    "(Lagrange-projection splitting)")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configuration file")
    p_run.add_argument("config")
    p_run.add_argument("--scheme", choices=("EXEX", "IMEX"))
    p_run.add_argument("--theta", choices=("corrected", "unity"))
    p_run.add_argument("--mesh", help="cartesian:NX:NY, tri:NX:NY, "
                                      "or a SWMESH file")
    p_run.add_argument("--tf", type=float, help="final time override")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--solver-tol", dest="solver_tol", type=float)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--only", nargs="+", metavar="ID",
                       help="subset of criteria, e.g. wb conservation")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run a benchmark experiment")
    p_rep.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep 0 for --help.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, MeshFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LpsweError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
