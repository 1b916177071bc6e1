# fields.py

"""Cell-centered states: conserved (h, hu), relaxed (tau, u, Pi), topography.

Arrays hold one entry per mesh cell.  No boundary values are stored: a
boundary face reads its outer side from a cell through ``Mesh.face_outer``
(its owner, or across the domain after driver.apply_bc pairs it).
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PositivityError
from .mesh import map_parts


@dataclass
class Params:
    """Scheme parameters.

    kappa scales the interface impedance above the Lagrangian sound speed
    (sub-characteristic condition requires kappa > 1); k_cfl is the safety
    factor in the time-step formulas; theta_policy selects the low-Froude
    pressure-flux correction ("corrected") or the plain flux ("unity").
    """

    g: float = 9.81
    kappa: float = 1.01
    k_cfl: float = 0.9
    theta_policy: str = "corrected"   # corrected | unity
    scheme: str = "EXEX"              # EXEX | IMEX
    solver_tol: float = 1e-13
    solver_maxiter: int = 500
    dt_max: float = None              # defaults to t_final / 10 in the driver

    def __post_init__(self):
        # Each check is false for NaN, so NaN is rejected too.
        if not 0.0 < self.g < math.inf:
            raise ValueError("g must be positive and finite")
        if not 1.0 < self.kappa < math.inf:
            raise ValueError("kappa must be > 1 and finite")
        if not (0.0 < self.k_cfl <= 1.0):
            raise ValueError("k_cfl must be in (0, 1]")
        if self.theta_policy not in ("corrected", "unity"):
            raise ValueError(f"unknown theta_policy {self.theta_policy!r}")
        if self.scheme not in ("EXEX", "IMEX"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.solver_tol > 0.0:
            raise ValueError("solver_tol must be positive")
        if self.solver_maxiter < 1:
            raise ValueError("solver_maxiter must be >= 1")
        if self.dt_max is not None and not 0.0 < self.dt_max < math.inf:
            raise ValueError("dt_max must be positive and finite")


@dataclass
class ConservedField:
    """Water depth h and discharge hu per cell."""

    h: np.ndarray    # (n_cells,)
    hu: np.ndarray   # (n_cells, 2)


@dataclass
class RelaxedField:
    """Acoustic-step working state: tau = 1/h, velocity u, relaxed pressure Pi."""

    tau: np.ndarray  # (n_cells,)
    u: np.ndarray    # (n_cells, 2)
    pi: np.ndarray   # (n_cells,)


@dataclass
class Topography:
    """Fixed bottom elevation per cell."""

    z: np.ndarray           # (n_cells,)
    dz: np.ndarray = None   # (n_faces,) z[outer] - z[owner], per run


def sound_speed(h, g):
    """sqrt(g*h); h may be scalar or array, must be non-negative."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise ValueError("negative depth in sound_speed")
    return np.sqrt(g * h)


def _check_positive(x, what, first=0):
    """Raise PositivityError for the lowest entry of ``x`` <= 0, whose cell
    is ``first`` plus its index."""
    bad = np.nonzero(x <= 0.0)[0]
    if bad.size:
        j = int(bad[0])
        raise PositivityError(f"{what} non-positive in cell {first + j} "
                              f"({what} = {x[j]:.3e})", cell=first + j)


def _relax_cells(cells, c, p, out):
    """``to_relaxed`` on the cells ``cells``, into ``out``."""
    h = c.h[cells]
    _check_positive(h, "h", cells.start)
    tau = np.divide(1.0, h, out=out.tau[cells])
    np.multiply(c.hu[cells], tau[:, None], out=out.u[cells])
    pi = np.multiply(p.g, h, out=out.pi[cells])
    pi *= h
    pi /= 2.0


def to_relaxed(c: ConservedField, p: Params, parts=None) -> RelaxedField:
    """Re-initialize the relaxed state from (h, hu): tau = 1/h, u = hu/h,
    Pi = g*h^2/2 (the equilibrium pressure).  The cells split into the
    mesh ``parts`` (``Mesh.parts``, by default one part) for
    ``map_parts``; the result does not depend on the split."""
    n = len(c.h)
    out = RelaxedField(np.empty(n), np.empty((n, 2)), np.empty(n))
    cells = [q.cells for q in parts] if parts else [slice(0, n)]
    map_parts(_relax_cells, cells, c, p, out)
    return out
