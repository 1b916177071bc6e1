# scenarios.py

"""Benchmark scenarios: initial conditions, topographies, exact solutions,
error norms and line cuts.

Cell values are point samples at centroids (first-order scheme).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .driver import BoundaryCondition
from .exceptions import ConfigError
from .fields import ConservedField, Params, Topography

VORTEX_GAMMA = 15.0
VORTEX_OMEGA = 4.0 * np.pi
VORTEX_BACKGROUND_H = 110.0
VORTEX_BACKGROUND_U = 0.6
VORTEX_PERIOD = 5.0 / 3.0


def bump_topography(x, y=None):
    """Smooth bump of height 0.3 between x = 0.325 and x = 0.675,
    independent of y."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.zeros_like(x)
    with np.errstate(over="ignore"):
        m = (x > 0.325) & (x <= 0.375)
        z[m] = 0.5 * np.exp(2.0 - 0.1 / (x[m] - 0.325))
        m = (x > 0.375) & (x < 0.425)
        z[m] = 1.0 - 0.5 * np.exp(2.0 - 0.1 / (0.425 - x[m]))
        m = (x >= 0.425) & (x <= 0.575)
        z[m] = 1.0
        m = (x > 0.575) & (x < 0.625)
        z[m] = 1.0 - 0.5 * np.exp(2.0 - 0.1 / (x[m] - 0.575))
        m = (x >= 0.625) & (x < 0.675)
        z[m] = 0.5 * np.exp(2.0 - 0.1 / (0.675 - x[m]))
    z *= 0.3
    return float(z[0]) if scalar else z


def flat_topography(x, y=None):
    return np.zeros_like(np.asarray(x, dtype=float))


def vortex_gaussian_topography(x, y):
    """Gaussian bump 10*exp(-5(x-1)^2 - 50(y-0.5)^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 10.0 * np.exp(-5.0 * (x - 1.0) ** 2 - 50.0 * (y - 0.5) ** 2)


def lake_at_rest(H, z_cells) -> ConservedField:
    """Still water with flat free surface: h = H - z, u = 0."""
    z = np.asarray(z_cells, dtype=float)
    if np.any(H - z <= 0.0):
        raise ConfigError(f"surface level H={H} leaves dry cells "
                          f"(max z = {z.max():.3g})")
    h = H - z
    return ConservedField(h, np.zeros((len(h), 2)))


def dam_break(xc, z_cells) -> ConservedField:
    """Planar dam break: total surface 0.5 for x <= 0.5 and 1 otherwise,
    velocity zero."""
    xc = np.asarray(xc, dtype=float)
    z = np.asarray(z_cells, dtype=float)
    H = np.where(xc <= 0.5, 0.5, 1.0)
    if np.any(H - z <= 0.0):
        raise ConfigError("dam break surface leaves dry cells")
    h = H - z
    return ConservedField(h, np.zeros((len(h), 2)))


def _vortex_k(r):
    return (2.0 * np.cos(r) + 2.0 * r * np.sin(r)
            + np.cos(2.0 * r) / 8.0 + r * np.sin(2.0 * r) / 4.0
            + 0.75 * r * r)


def vortex_exact(x, y, t, p: Params):
    """Traveling-vortex closed form (flat bottom).

    The core (omega * r <= pi, r measured from the advected center) carries
    a rigid swirl profile on top of the uniform state (h=110, u=0.6, v=0);
    the whole pattern advects with speed 0.6 along x, periodic on [0, 1].
    """
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                               np.atleast_1d(np.asarray(y, dtype=float)))
    x0 = np.mod(x - VORTEX_BACKGROUND_U * t, 1.0)
    dx = x0 - 0.5
    dy = y - 0.5
    r = np.hypot(dx, dy)
    wr = VORTEX_OMEGA * r
    core = wr <= np.pi

    h = np.full_like(x0, VORTEX_BACKGROUND_H)
    u = np.full_like(x0, VORTEX_BACKGROUND_U)
    v = np.zeros_like(x0)

    amp = VORTEX_GAMMA ** 2 / (p.g * VORTEX_OMEGA ** 2)
    h[core] += amp * (_vortex_k(wr[core]) - _vortex_k(np.pi))
    swirl = VORTEX_GAMMA * (1.0 + np.cos(wr[core]))
    u[core] += swirl * (-dy[core])  # 0.5 - y
    v[core] += swirl * dx[core]
    return h, u, v


def vortex_initial(xc, yc, p: Params) -> ConservedField:
    h, u, v = vortex_exact(xc, yc, 0.0, p)
    hu = np.stack([h * u, h * v], axis=1)
    return ConservedField(h, hu)


def vortex_over_bump(xc, yc, z_cells, p: Params) -> ConservedField:
    """Initial state of ``vortex_topo``: the traveling vortex over the
    Gaussian bump, with the vortex's free surface riding over the bottom.

    The free surface h + z and the velocity are those of the flat-bottom
    vortex, so h = h_vortex - z.  Away from the cores the surface is flat
    at 110 under the uniform advection (0.6, 0), steady up to O(Fr^2) at
    Froude ~0.02.  Taking h = h_vortex instead would raise a 10 m hump of
    free surface over the bump and release gravity waves.  This is the
    construction ``lake_at_rest`` uses for a still surface.

    ``vortex_exact`` wraps x with period 1, so on the length-2 domain a
    second, identical vortex sits at x = 1.5, as far from the bump crest
    at x = 1 as the first one.  The copy is kept: both vortices are the
    period-1 closed form that the flat-bottom case uses, and criterion 7
    measures only the first one.
    """
    h, u, v = vortex_exact(xc, yc, 0.0, p)
    h = h - np.asarray(z_cells, dtype=float)
    return ConservedField(h, np.stack([h * u, h * v], axis=1))


def error_norms(num, ref, areas):
    """(Linf, area-weighted L1, area-weighted L2) of num - ref."""
    num = np.asarray(num, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if num.shape != ref.shape or len(num) != len(areas):
        raise ValueError("field/mesh size mismatch in error_norms")
    e = np.abs(num - ref)
    total = areas.sum()
    linf = float(e.max()) if len(e) else 0.0
    l1 = float(np.sum(areas * e) / total)
    l2 = float(np.sqrt(np.sum(areas * e * e) / total))
    return linf, l1, l2


def line_cut(values, mesh, y_line):
    """Samples (x, value) of the cells whose centroid row is nearest to
    the horizontal line y = y_line, sorted by x."""
    cy = mesh.centroid[:, 1]
    d = np.abs(cy - y_line)
    dmin = d.min()
    # absolute slack so that roundoff-level ties (e.g. the two triangle
    # families of a split-quad row) are all kept
    extent = cy.max() - cy.min()
    sel = np.nonzero(d <= dmin + 1e-9 * max(extent, 1.0))[0]
    order = np.argsort(mesh.centroid[sel, 0], kind="stable")
    sel = sel[order]
    vals = np.asarray(values)
    return mesh.centroid[sel, 0], vals[..., sel] if vals.ndim > 1 else vals[sel]


@dataclass
class Scenario:
    """A runnable case: domain, topography/initial-condition samplers,
    boundary conditions, and an optional exact oracle."""

    name: str
    domain: tuple
    topography: Callable          # (x, y) -> z
    initial: Callable             # (xc, yc, z_cells, params) -> ConservedField
    bc: BoundaryCondition
    exact: Optional[Callable] = None   # (x, y, t, params) -> (h, u, v)

    def build(self, mesh, p: Params):
        xc, yc = mesh.centroid[:, 0], mesh.centroid[:, 1]
        z = self.topography(xc, yc)
        return Topography(z=z), self.initial(xc, yc, z, p)


def _make_registry():
    return {
        "lake_at_rest": Scenario(
            name="lake_at_rest",
            domain=(0.0, 1.0, 0.0, 1.0),
            topography=lambda x, y: bump_topography(x),
            initial=lambda xc, yc, z, p: lake_at_rest(0.5, z),
            bc=BoundaryCondition(),
            exact=lambda x, y, t, p: (
                0.5 - bump_topography(x), np.zeros_like(x), np.zeros_like(x)),
        ),
        "dam_break": Scenario(
            name="dam_break",
            domain=(0.0, 1.0, 0.0, 1.0),
            topography=lambda x, y: bump_topography(x),
            initial=lambda xc, yc, z, p: dam_break(xc, z),
            bc=BoundaryCondition(),
        ),
        "vortex_flat": Scenario(
            name="vortex_flat",
            domain=(0.0, 1.0, 0.0, 1.0),
            topography=lambda x, y: flat_topography(x),
            initial=lambda xc, yc, z, p: vortex_initial(xc, yc, p),
            bc=BoundaryCondition.periodic_x(),
            exact=vortex_exact,
        ),
        "vortex_topo": Scenario(
            name="vortex_topo",
            domain=(0.0, 2.0, 0.0, 1.0),
            topography=vortex_gaussian_topography,
            initial=vortex_over_bump,
            bc=BoundaryCondition.periodic_x(),
        ),
    }


REGISTRY = _make_registry()


def get_scenario(name: str) -> Scenario:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(REGISTRY)}")
