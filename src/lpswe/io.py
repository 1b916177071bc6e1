# io.py

"""Run configuration parsing and file output (legacy VTK, CSV, reports)."""

import configparser
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import mesh as meshmod
from .exceptions import ConfigError
from .fields import Params
from .scenarios import REGISTRY

_FMT = "%.17g"

# Mesh kinds built from nx, ny and the domain; the other kind is "file".
GRID_KINDS = {"cartesian": meshmod.build_cartesian,
              "tri": meshmod.build_triangulated}


@dataclass
class MeshSpec:
    kind: str = "cartesian"        # a GRID_KINDS key, or file
    nx: int = 50
    ny: int = 50
    domain: Optional[tuple] = None  # defaults to the scenario domain
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (*GRID_KINDS, "file"):
            raise ValueError(f"unknown mesh kind {self.kind!r}")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError("nx and ny must be >= 1")
        d = self.domain
        if d is not None and not (len(d) == 4 and np.isfinite(d).all()
                                  and d[0] < d[1] and d[2] < d[3]):
            raise ValueError("domain needs 4 numbers x0 x1 y0 y1, finite, "
                             "with x0 < x1 and y0 < y1")

    def build(self, default_domain):
        if self.kind == "file":
            if not self.path:
                raise ConfigError("mesh kind 'file' requires a path")
            return meshmod.read_mesh(self.path)
        domain = self.domain if self.domain is not None else default_domain
        return GRID_KINDS[self.kind](self.nx, self.ny, domain=domain)


@dataclass
class RunConfig:
    scenario: str = "lake_at_rest"
    mesh: MeshSpec = field(default_factory=MeshSpec)
    params: Params = field(default_factory=Params)
    t_final: float = 0.1
    output_every: int = 0     # VTK snapshot cadence in steps; 0 = final only
    cut_y: float = 0.5

    def __post_init__(self):
        if self.scenario not in REGISTRY:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"known: {sorted(REGISTRY)}")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and >= 0")
        if self.output_every < 0:
            raise ValueError("output_every must be >= 0")
        if not math.isfinite(self.cut_y):
            raise ValueError("cut_y must be finite")


# section -> key -> (cast, target).  The target is a field of RunConfig,
# or of its mesh or params ("params.kappa").  A bad value raises
# ValueError, from the cast or from the dataclass that checks the field.
_KEYS = {
    "scenario": {"name": (str, "scenario")},
    "mesh": {"kind": (str, "mesh.kind"), "nx": (int, "mesh.nx"),
             "ny": (int, "mesh.ny"), "path": (str, "mesh.path"),
             "domain": (lambda text: tuple(map(float, text.split())),
                        "mesh.domain")},
    "run": {"scheme": (str, "params.scheme"),
            "theta": (str, "params.theta_policy"), "tf": (float, "t_final"),
            "g": (float, "params.g"), "kappa": (float, "params.kappa"),
            "k_cfl": (float, "params.k_cfl"),
            "solver_tol": (float, "params.solver_tol"),
            "solver_maxiter": (int, "params.solver_maxiter"),
            "dt_max": (float, "params.dt_max"),
            "output_every": (int, "output_every"), "cut_y": (float, "cut_y")},
}


def _replace(obj, target, value):
    """``obj`` with its dotted field ``target`` set to ``value``.  Each
    dataclass on the way is built anew, so it checks the new value."""
    name, _, rest = target.partition(".")
    if rest:
        value = _replace(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def parse_config(path, flags=()) -> RunConfig:
    """Parse the key = value config format (strict: unknown keys error),
    then apply ``flags``: (where, section, key, text) items such as
    ("--tf", "run", "tf", "0.5").  File and flag items go through the same
    casts, and an error names the file or the flag it came from."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if cp.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")

    cfg = RunConfig()
    items = [(path, section, key, cp.get(section, key))
             for section in cp.sections() for key in cp.options(section)]
    for where, section, key, text in items + list(flags):
        if section not in _KEYS:
            raise ConfigError(f"{where}: unknown section [{section}]")
        if key not in _KEYS[section]:
            raise ConfigError(
                f"{where}: unknown key {key!r} in section [{section}]")
        cast, target = _KEYS[section][key]
        try:
            cfg = _replace(cfg, target, cast(text))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value {text!r} for "
                              f"{section}.{key}: {exc}") from None
    if cfg.mesh.kind == "file" and not cfg.mesh.path:
        raise ConfigError(f"{path}: mesh kind 'file' requires a path")
    return cfg


_VTK_CELL_TYPES = {3: 5, 4: 9}     # triangle, quad; polygon otherwise


def write_vtk(conserved, topo, mesh, p: Params, path) -> None:
    """Legacy ASCII VTK unstructured grid with per-cell scalars
    h, z, H = h+z, Froude, and the velocity vector."""
    n = mesh.n_cells
    h, z = conserved.h, topo.z
    u = conserved.hu / h[:, None]
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
