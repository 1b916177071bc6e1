# cli.py

"""Command-line interface: run a config, verify the build, reproduce the
benchmark experiments.

Exit codes: 0 success, 1 runtime failure (solver, positivity, failed
criteria), 2 usage or configuration error.
"""

import argparse
import os
import sys

import numpy as np

from .acceptance import (ALL_CRITERIA, core_swirl_speed, lake_at_rest_errors,
                         run_criteria, vortex_velocity_error)
from .driver import run
from .exceptions import ConfigError, LpsweError, MeshFormatError
from .fields import Params
from .io import (MeshSpec, RunConfig, parse_config, write_cut_csv,
                 write_report, write_vtk)
from .reference1d import State1D, run1d
from .scenarios import (bump_topography, dam_break, error_norms,
                        get_scenario, line_cut)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    pkw = dict(
        g=cfg.params.g, kappa=cfg.params.kappa, k_cfl=cfg.params.k_cfl,
        theta_policy=cfg.params.theta_policy, scheme=cfg.params.scheme,
        solver_tol=cfg.params.solver_tol,
        solver_maxiter=cfg.params.solver_maxiter, dt_max=cfg.params.dt_max)
    if args.scheme:
        pkw["scheme"] = args.scheme
    if args.theta:
        pkw["theta_policy"] = args.theta
    if args.solver_tol is not None:
        pkw["solver_tol"] = args.solver_tol
    cfg.params = Params(**pkw)
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


def _do_run(cfg: RunConfig, out_dir, tag="run"):
    sc = get_scenario(cfg.scenario)
    mesh = cfg.mesh.build(sc.domain)
    topo, ic = sc.build(mesh, cfg.params)
    os.makedirs(out_dir, exist_ok=True)

    snapshots = []
    if cfg.output_every > 0:
        def callback(state, dt):
            if state.step % cfg.output_every == 0:
                path = os.path.join(out_dir, f"{tag}_{state.step:06d}.vtk")
                write_vtk(state.conserved, state.topo, mesh,
                          cfg.params, path)
                snapshots.append(path)
    else:
        callback = None

    report = run(mesh, topo, ic, sc.bc, cfg.params, cfg.t_final,
                 callback=callback)
    n = mesh.n_cells

    write_vtk(report.final, topo, mesh, cfg.params,
              os.path.join(out_dir, f"{tag}_final.vtk"))
    h = report.final.h[:n]
    u = report.final.hu[:n] / h[:, None]
    H = h + topo.z[:n]
    x, hc = line_cut(h, mesh, cfg.cut_y)
    _, uc = line_cut(u[:, 0], mesh, cfg.cut_y)
    _, vc = line_cut(u[:, 1], mesh, cfg.cut_y)
    _, Hc = line_cut(H, mesh, cfg.cut_y)
    _, zc = line_cut(topo.z[:n], mesh, cfg.cut_y)
    write_cut_csv(x, hc, uc, vc, Hc, zc,
                  os.path.join(out_dir, f"{tag}_cut.csv"))

    extra = {}
    if sc.exact is not None:
        he, ue, ve = sc.exact(mesh.centroid[:, 0], mesh.centroid[:, 1],
                              report.t_final, cfg.params)
        linf, l1, l2 = error_norms(h, he, mesh.area)
        extra["h_error_linf"] = f"{linf:.6e}"
        extra["h_error_l1"] = f"{l1:.6e}"
        extra["h_error_l2"] = f"{l2:.6e}"
        umax = float(np.max(np.hypot(u[:, 0] - ue, u[:, 1] - ve)))
        extra["u_error_linf"] = f"{umax:.6e}"
    write_report(report, os.path.join(out_dir, f"{tag}_report.txt"), extra)
    return report, extra, mesh, ic


def cmd_run(args):
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    report, extra, _, _ = _do_run(cfg, args.out)
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
    results = run_criteria(only)
    failed = 0
    for key, res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


def _reproduce_wb(out_dir, args):
    print("lake at rest, triangulated mesh, T_f = 0.1")
    print(f"{'scheme':8s} {'|H - 0.5|inf':>14s} {'|u|inf':>14s}")
    for scheme in ("EXEX", "IMEX"):
        cfg = RunConfig(scenario="lake_at_rest",
                        mesh=MeshSpec(kind="tri", nx=32, ny=32),
                        params=Params(scheme=scheme), t_final=0.1)
        sc = get_scenario(cfg.scenario)
        mesh = cfg.mesh.build(sc.domain)
        topo, ic = sc.build(mesh, cfg.params)
        report = run(mesh, topo, ic, sc.bc, cfg.params, cfg.t_final)
        surf, umax = lake_at_rest_errors(mesh, topo, report.final)
        print(f"{scheme:8s} {surf:14.3e} {umax:14.3e}")
    return EXIT_OK


def _reproduce_dambreak(out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    cfg = RunConfig(scenario="dam_break",
                    mesh=MeshSpec(kind="tri", nx=60, ny=60),
                    params=Params(scheme="EXEX"), t_final=0.1)
    _do_run(cfg, out_dir, tag="dambreak2d")

    nx = 200
    dx = 1.0 / nx
    xc = (np.arange(nx) + 0.5) * dx
    z = bump_topography(xc)
    ic = dam_break(xc, z)
    s0 = State1D(dx, ic.h, np.zeros(nx), np.zeros(nx), z)
    s, steps = run1d(s0, cfg.params, cfg.t_final)
    write_cut_csv(xc, s.h, s.u1, s.u2, s.h + z, z,
                  os.path.join(out_dir, "dambreak1d_cut.csv"))
    print(f"1D reference: {steps} steps; outputs in {out_dir}")
    return EXIT_OK


def _reproduce_vortex_flat(out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    print("traveling vortex, flat bottom, 80x80, T_f = 0.1")
    print(f"{'scheme':8s} {'theta':10s} {'steps':>6s} {'L2 |u| err':>12s}")
    for scheme in ("EXEX", "IMEX"):
        for theta in ("corrected", "unity"):
            cfg = RunConfig(scenario="vortex_flat",
                            mesh=MeshSpec(kind="cartesian", nx=80, ny=80),
                            params=Params(scheme=scheme, theta_policy=theta),
                            t_final=0.1)
            report, _, mesh, _ = _do_run(cfg, out_dir,
                                         tag=f"vortex_{scheme}_{theta}")
            l2 = vortex_velocity_error(mesh, report.final, report.t_final)
            print(f"{scheme:8s} {theta:10s} {report.steps:6d} {l2:12.4e}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _reproduce_vortex_topo(out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    print("traveling vortex over Gaussian bump, 160x80, T_f = 0.1")
    print(f"{'scheme':8s} {'theta':10s} {'steps':>6s} "
          f"{'core max swirl':>15s} {'kept':>5s}")
    for scheme, theta in (("EXEX", "corrected"), ("EXEX", "unity"),
                          ("IMEX", "corrected")):
        cfg = RunConfig(scenario="vortex_topo",
                        mesh=MeshSpec(kind="cartesian", nx=160, ny=80),
                        params=Params(scheme=scheme, theta_policy=theta),
                        t_final=0.1)
        report, _, mesh, ic = _do_run(cfg, out_dir,
                                      tag=f"vtopo_{scheme}_{theta}")
        v0 = core_swirl_speed(mesh, ic, 0.0)
        v = core_swirl_speed(mesh, report.final, report.t_final)
        print(f"{scheme:8s} {theta:10s} {report.steps:6d} {v:15.2f} "
              f"{100 * v / v0:4.0f}%")
    print(f"initial core max swirl {v0:.2f}; outputs in {out_dir}")
    return EXIT_OK


_EXPERIMENTS = {
    "wb": _reproduce_wb,
    "dambreak": _reproduce_dambreak,
    "vortex_flat": _reproduce_vortex_flat,
    "vortex_topo": _reproduce_vortex_topo,
}


def cmd_reproduce(args):
    return _EXPERIMENTS[args.experiment](args.out, args)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lpswe",
        description="Shallow water finite-volume solver "
                    "(Lagrange-projection splitting)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scheme", choices=("EXEX", "IMEX"))
        p.add_argument("--theta", choices=("corrected", "unity"))
        p.add_argument("--mesh", help="cartesian:NX:NY, tri:NX:NY, "
                                      "or a SWMESH file")
        p.add_argument("--tf", type=float, help="final time override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--solver-tol", dest="solver_tol", type=float)

    p_run = sub.add_parser("run", help="run a configuration file")
    p_run.add_argument("config")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--only", nargs="+", metavar="ID",
                       help="subset of criteria, e.g. wb conservation")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run a benchmark experiment")
    p_rep.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    common(p_rep)
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
