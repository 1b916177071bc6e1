# fields.py

"""Cell-centered states: conserved (h, hu), relaxed (tau, u, Pi), topography.

Arrays are sized n_total = interior + ghost cells, so that flux kernels can
gather both sides of every face without special cases.  Ghost entries are
populated by the boundary-condition donor copy (see driver.apply_bc).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import PositivityError


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
        if self.g <= 0.0:
            raise ValueError("g must be positive")
        if self.kappa <= 1.0:
            raise ValueError("kappa must be > 1")
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


@dataclass
class ConservedField:
    """Water depth h and discharge hu per cell (interior + ghost)."""

    h: np.ndarray    # (n_total,)
    hu: np.ndarray   # (n_total, 2)

    def copy(self) -> "ConservedField":
        return ConservedField(self.h.copy(), self.hu.copy())


@dataclass
class RelaxedField:
    """Acoustic-step working state: tau = 1/h, velocity u, relaxed pressure Pi."""

    tau: np.ndarray  # (n_total,)
    u: np.ndarray    # (n_total, 2)
    pi: np.ndarray   # (n_total,)


@dataclass
class Topography:
    """Fixed bottom elevation per cell, ghost entries included."""

    z: np.ndarray           # (n_total,)
    dz: np.ndarray = None   # (n_faces,) z[neighbor] - z[owner], per run


def sound_speed(h, g):
    """sqrt(g*h); h may be scalar or array, must be non-negative."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise ValueError("negative depth in sound_speed")
    return np.sqrt(g * h)


def _check_positive(x, n_interior, what):
    bad = np.nonzero(x[:n_interior] <= 0.0)[0]
    if bad.size:
        j = int(bad[0])
        raise PositivityError(
            f"{what} non-positive in cell {j} ({what} = {x[j]:.3e})", cell=j)


def to_relaxed(c: ConservedField, p: Params, n_interior=None) -> RelaxedField:
    """Re-initialize the relaxed state from (h, hu): tau = 1/h, u = hu/h,
    Pi = g*h^2/2 (the equilibrium pressure)."""
    n = len(c.h) if n_interior is None else n_interior
    _check_positive(c.h, n, "h")
    tau = 1.0 / c.h
    u = c.hu * tau[:, None]
    pi = p.g * c.h * c.h / 2.0
    return RelaxedField(tau, u, pi)
