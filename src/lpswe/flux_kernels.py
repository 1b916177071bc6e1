# flux_kernels.py

"""Per-face relaxation flux kernels in the face-normal frame.

All kernels are pure and accept scalars or aligned numpy arrays.  The
evaluation order inside each kernel is fixed as written so that the
lake-at-rest cancellation (pressure jump against the hydrostatic source
bracket) stays at roundoff level.
"""

from dataclasses import dataclass

import numpy as np

from .fields import Params, sound_speed


@dataclass
class FaceFlux:
    """Interface quantities shared by the acoustic and transport steps.

    u_star is the interface normal velocity in the owner's outward frame;
    pi_star_L / pi_star_R are the pressures seen by owner / neighbor
    (they differ by the hydrostatic source bracket).
    """

    u_star: np.ndarray
    pi_star_L: np.ndarray
    pi_star_R: np.ndarray
    a: np.ndarray
    theta: np.ndarray
    src: np.ndarray     # hydrostatic source bracket of the time-n depths


def impedance(h_L, h_R, p: Params, c_L=None, c_R=None):
    """Interface acoustic impedance a = kappa * max(h_L c_L, h_R c_R).

    kappa > 1 enforces the sub-characteristic condition a > h c on both
    sides.  Symmetric in (L, R) by construction.  ``c_L``/``c_R`` are the
    sound speeds of h_L/h_R when the caller has taken them (and checked
    the depths positive); otherwise they are taken here.
    """
    h_L = np.asarray(h_L, dtype=float)
    h_R = np.asarray(h_R, dtype=float)
    if c_L is None:
        if np.any(h_L <= 0.0) or np.any(h_R <= 0.0):
            raise ValueError("non-positive depth in impedance")
        c_L, c_R = sound_speed(h_L, p.g), sound_speed(h_R, p.g)
    return p.kappa * np.maximum(h_L * c_L, h_R * c_R)


def hydrostatic_source(h_L_n, h_R_n, z_L, z_R, g):
    """Hydrostatic source bracket g*(h_L+h_R)/2*(z_R - z_L).

    Always evaluated from time-n depths; antisymmetric under a consistent
    (L <-> R) swap.
    """
    return g * (h_L_n + h_R_n) / 2.0 * (z_R - z_L)


def interface_velocity(u_nL, u_nR, pi_L, pi_R, a, src):
    """Interface normal velocity:
    (u_nL+u_nR)/2 - (pi_R-pi_L)/(2a) - src/(2a)."""
    return (u_nL + u_nR) / 2.0 - (pi_R - pi_L) / (2.0 * a) - src / (2.0 * a)


def theta_policy(u_star_n, h_L, h_R, p: Params, c_L=None, c_R=None):
    """Low-Froude scaling of the pressure-flux velocity-jump term.

    corrected: min(|u_star_n| / max(c_L, c_R), 1), a local Froude estimate
    built from the time-n interface velocity; unity: 1.  The sound speeds
    ``c_L``/``c_R`` are taken from h_L/h_R unless given.
    """
    if p.theta_policy == "unity":
        return np.ones_like(np.asarray(u_star_n, dtype=float))
    if c_L is None:
        c_L, c_R = sound_speed(h_L, p.g), sound_speed(h_R, p.g)
    c = np.maximum(c_L, c_R)
    if np.any(c <= 0.0):
        raise ValueError("zero sound speed on both sides of a face")
    return np.minimum(np.abs(u_star_n) / c, 1.0)


def interface_pressures(pi_L, pi_R, u_nL, u_nR, a, theta, src):
    """Left/right interface pressures around the centered value
    pi_c = (pi_L+pi_R)/2 - theta*a*(u_nR-u_nL)/2:
    owner sees pi_c + src/2, neighbor sees pi_c - src/2."""
    pi_c = (pi_L + pi_R) / 2.0 - theta * a * (u_nR - u_nL) / 2.0
    return pi_c + src / 2.0, pi_c - src / 2.0


def evaluate_face_fluxes(mesh, u, pi, h_n, z, p: Params,
                         theta=None) -> FaceFlux:
    """Vectorized flux evaluation over every face of the mesh.

    ``u``/``pi`` are the states at the flux level; ``h_n`` and ``z`` supply
    the time-n impedance and source bracket.  When ``theta`` is None it is
    computed from the interface velocity of the (u, pi) states themselves,
    which is the correct thing to do only when those are time-n states;
    the implicit path passes the frozen time-n theta explicitly.

    Every cell (ghosts included) borders a face, so the depths are checked
    and the sound speeds taken once per cell, then gathered to the faces.
    """
    o = mesh.face_owner
    nb = mesh.face_neighbor
    nx = mesh.face_normal[:, 0]
    ny = mesh.face_normal[:, 1]

    if np.any(h_n <= 0.0):
        raise ValueError("non-positive depth in impedance")
    c = sound_speed(h_n, p.g)
    h_L, h_R = h_n[o], h_n[nb]
    c_L, c_R = c[o], c[nb]
    a = impedance(h_L, h_R, p, c_L, c_R)
    src = hydrostatic_source(h_L, h_R, z[o], z[nb], p.g)
    pi_o, pi_nb = pi[o], pi[nb]
    ux, uy = u[:, 0], u[:, 1]    # column gathers are cheaper than u[o, 0]
    u_nL = ux[o] * nx + uy[o] * ny
    u_nR = ux[nb] * nx + uy[nb] * ny
    u_star = interface_velocity(u_nL, u_nR, pi_o, pi_nb, a, src)
    if theta is None:
        theta = theta_policy(u_star, h_L, h_R, p, c_L, c_R)
    pi_L, pi_R = interface_pressures(pi_o, pi_nb, u_nL, u_nR, a, theta, src)
    return FaceFlux(u_star=u_star, pi_star_L=pi_L, pi_star_R=pi_R,
                    a=a, theta=theta, src=src)
