# io.py

"""Run configuration parsing and file output (legacy VTK, CSV, reports)."""

import configparser
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigError
from .fields import Params

_FMT = "%.17g"


@dataclass
class MeshSpec:
    kind: str = "cartesian"        # cartesian | tri | file
    nx: int = 50
    ny: int = 50
    domain: Optional[tuple] = None  # defaults to the scenario domain
    path: Optional[str] = None

    def build(self, default_domain):
        from . import mesh as meshmod
        if self.kind == "file":
            if not self.path:
                raise ConfigError("mesh kind 'file' requires a path")
            return meshmod.read_mesh(self.path)
        domain = self.domain if self.domain is not None else default_domain
        if self.kind == "cartesian":
            return meshmod.build_cartesian(self.nx, self.ny, domain)
        if self.kind == "tri":
            return meshmod.build_triangulated(self.nx, self.ny, domain)
        raise ConfigError(f"unknown mesh kind {self.kind!r}")


@dataclass
class RunConfig:
    scenario: str = "lake_at_rest"
    mesh: MeshSpec = field(default_factory=MeshSpec)
    params: Params = field(default_factory=Params)
    t_final: float = 0.1
    output_every: int = 0     # VTK snapshot cadence in steps; 0 = final only
    cut_y: float = 0.5


_RUN_KEYS = {
    "scheme": str, "theta": str, "tf": float, "g": float, "kappa": float,
    "k_cfl": float, "solver_tol": float, "solver_maxiter": int,
    "dt_max": float, "output_every": int, "cut_y": float,
}
_MESH_KEYS = {"kind": str, "nx": int, "ny": int, "path": str, "domain": str}
_SCENARIO_KEYS = {"name": str}


def parse_config(path) -> RunConfig:
    """Parse the key = value config format (strict: unknown keys error)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    cfg = RunConfig()
    pkw = {}

    def typed(section, key, spec):
        if key not in spec:
            raise ConfigError(
                f"{path}: unknown key {key!r} in section [{section}]")
        raw = cp.get(section, key)
        try:
            return spec[key](raw)
        except ValueError:
            raise ConfigError(
                f"{path}: bad value {raw!r} for {section}.{key}")

    for section in cp.sections():
        if section == "run":
            for key in cp.options(section):
                val = typed(section, key, _RUN_KEYS)
                if key == "scheme":
                    pkw["scheme"] = val
                elif key == "theta":
                    pkw["theta_policy"] = val
                elif key == "tf":
                    cfg.t_final = val
                elif key == "output_every":
                    cfg.output_every = val
                elif key == "cut_y":
                    cfg.cut_y = val
                else:
                    pkw[key] = val
        elif section == "mesh":
            for key in cp.options(section):
                val = typed(section, key, _MESH_KEYS)
                if key == "domain":
                    parts = val.split()
                    if len(parts) != 4:
                        raise ConfigError(
                            f"{path}: mesh.domain needs 4 numbers")
                    cfg.mesh.domain = tuple(float(t) for t in parts)
                else:
                    setattr(cfg.mesh, key, val)
        elif section == "scenario":
            for key in cp.options(section):
                cfg.scenario = typed(section, key, _SCENARIO_KEYS)
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")

    from .scenarios import REGISTRY
    if cfg.scenario not in REGISTRY:
        raise ConfigError(f"{path}: unknown scenario {cfg.scenario!r}")
    try:
        cfg.params = Params(**pkw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    return cfg


_VTK_CELL_TYPES = {3: 5, 4: 9}     # triangle, quad; polygon otherwise


def write_vtk(conserved, topo, mesh, p: Params, path) -> None:
    """Legacy ASCII VTK unstructured grid with per-cell scalars
    h, z, H = h+z, Froude, and the velocity vector."""
    n = mesh.n_cells
    h = conserved.h[:n]
    hu = conserved.hu[:n]
    u = hu / h[:, None]
    z = topo.z[:n]
    froude = np.hypot(u[:, 0], u[:, 1]) / np.sqrt(p.g * h)

    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("lpswe fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.vertices)} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{_FMT % x} {_FMT % y} 0\n")
        fh.write(f"CELLS {n} {len(mesh.cell_vertex_ids) + n}\n")
        for cv in np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1]):
            fh.write(str(len(cv)) + " " + " ".join(map(str, cv)) + "\n")
        fh.write(f"CELL_TYPES {n}\n")
        for k in np.diff(mesh.cell_offsets):
            fh.write(f"{_VTK_CELL_TYPES.get(k, 7)}\n")
        fh.write(f"CELL_DATA {n}\n")
        for name, arr in (("h", h), ("z", z), ("H", h + z),
                          ("Froude", froude)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in arr:
                fh.write(_FMT % v + "\n")
        fh.write("VECTORS velocity double\n")
        for ux, uy in u:
            fh.write(f"{_FMT % ux} {_FMT % uy} 0\n")


def write_cut_csv(x, h, u, v, H, z, path) -> None:
    """CSV line-cut profile: header x,h,u,v,H,z; one row per sample."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,h,u,v,H,z\n")
        for row in zip(x, h, u, v, H, z):
            fh.write(",".join(_FMT % val for val in row) + "\n")


def write_report(report, path, extra=None) -> None:
    """Plain-text run report (steps, wall time, mass drift, max Froude)."""
    mass = report.mass_history
    drift = 0.0
    if mass:
        drift = abs(mass[-1] - mass[0]) / max(abs(mass[0]), 1e-300)
    lines = [
        f"steps = {report.steps}",
        f"wall_time_s = {report.wall_time:.3f}",
        f"t_final = {_FMT % report.t_final}",
        f"dt_min = {_FMT % min(report.dt_history)}" if report.dt_history
        else "dt_min = n/a",
        f"dt_max = {_FMT % max(report.dt_history)}" if report.dt_history
        else "dt_max = n/a",
        f"mass_drift_rel = {drift:.3e}",
        f"max_froude = {report.max_froude:.6e}",
    ]
    if extra:
        lines.extend(f"{k} = {v}" for k, v in extra.items())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
