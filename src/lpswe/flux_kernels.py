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
from .mesh import map_parts


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


def impedance(h_L, h_R, p: Params):
    """Interface acoustic impedance a = kappa * max(h_L c_L, h_R c_R).

    kappa > 1 enforces the sub-characteristic condition a > h c on both
    sides.  Symmetric in (L, R) by construction.
    """
    h_L = np.asarray(h_L, dtype=float)
    h_R = np.asarray(h_R, dtype=float)
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


def theta_policy(u_star_n, h_L, h_R, p: Params):
    """Low-Froude scaling of the pressure-flux velocity-jump term.

    corrected: min(|u_star_n| / max(c_L, c_R), 1), a local Froude estimate
    built from the time-n interface velocity; unity: 1.
    """
    if p.theta_policy == "unity":
        return np.ones_like(np.asarray(u_star_n, dtype=float))
    c = np.maximum(sound_speed(h_L, p.g), sound_speed(h_R, p.g))
    if np.any(c <= 0.0):
        raise ValueError("zero sound speed on both sides of a face")
    return np.minimum(np.abs(u_star_n) / c, 1.0)


def interface_pressures(pi_L, pi_R, u_nL, u_nR, a, theta, src):
    """Left/right interface pressures around the centered value
    pi_c = (pi_L+pi_R)/2 - theta*a*(u_nR-u_nL)/2:
    owner sees pi_c + src/2, neighbor sees pi_c - src/2."""
    pi_c = (pi_L + pi_R) / 2.0 - theta * a * (u_nR - u_nL) / 2.0
    return pi_c + src / 2.0, pi_c - src / 2.0


def evaluate_face_fluxes(mesh, u, pi, h_n, dz, p: Params,
                         frozen: FaceFlux = None) -> FaceFlux:
    """The kernels above over every face, bit for bit, computed in place
    part by part (``mesh.parts``, through ``map_parts``).

    ``u``/``pi`` are the states at the flux level, read on the outer side
    of a face through ``mesh.face_outer``; ``h_n`` and ``dz`` (the face
    bottom jump z[outer] - z[owner]) give the time-n impedance and
    source bracket, and theta comes from the interface velocity of (u, pi),
    which is right only for time-n states.  The implicit path passes the
    time-n fluxes as ``frozen`` to reuse their a, theta and src instead.
    As h sqrt(g h) and sqrt(g h) grow with h, a and theta take the sound
    speed c = sqrt(g max(h_L, h_R)) of the deeper side only.
    """
    nf = mesh.n_faces
    a, theta, src = ((np.empty(nf) for _ in range(3)) if frozen is None
                     else (frozen.a, frozen.theta, frozen.src))
    out = FaceFlux(np.empty(nf), np.empty(nf), np.empty(nf), a, theta, src)
    map_parts(_face_fluxes, mesh.parts, mesh, u, pi, h_n, dz, p,
              frozen is not None, out)
    return out


def _face_fluxes(part, mesh, u, pi, h_n, dz, p, frozen, out):
    """``evaluate_face_fluxes`` on the faces of ``part``, into ``out``,
    whose arrays hold intermediate values until their own are written."""
    f = part.faces
    o, nb = mesh.face_owner[f], mesh.face_outer[f]
    nx, ny = mesh.face_normal[f, 0], mesh.face_normal[f, 1]
    a, src, theta = out.a[f], out.src[f], out.theta[f]
    pi_L, pi_c = out.pi_star_L[f], out.pi_star_R[f]
    if not frozen:
        if np.any(h_n[part.cells] <= 0.0):
            raise ValueError("non-positive depth in impedance")
        # the cell ids are in range: "wrap" skips the copy of ``out``
        # that the default mode makes
        h_L = np.take(h_n, o, out=src, mode="wrap")
        h_R = np.take(h_n, nb, out=pi_L, mode="wrap")
        np.maximum(h_L, h_R, out=a)
        c = np.multiply(p.g, a, out=theta)
        a *= np.sqrt(c, out=c)
        a *= p.kappa
        src += h_R
        src *= p.g
        src /= 2.0
        src *= dz[f]
    ux, uy = u[:, 0], u[:, 1]    # column gathers are cheaper than u[o, 0]
    u_nL, u_nR, buf = ux[o], ux[nb], uy[o]
    u_nL *= nx
    u_nR *= nx
    u_nL += np.multiply(buf, ny, out=buf)
    u_nR += np.multiply(np.take(uy, nb, out=buf, mode="wrap"), ny, out=buf)
    pi_o, pi_nb = np.take(pi, o, out=pi_c, mode="wrap"), pi[nb]
    two_a = 2.0 * a
    u_star = np.add(u_nL, u_nR, out=out.u_star[f])
    u_star /= 2.0
    u_star -= np.divide(np.subtract(pi_nb, pi_o, out=buf), two_a, out=buf)
    u_star -= np.divide(src, two_a, out=buf)
    if not frozen:
        if p.theta_policy == "unity":
            theta.fill(1.0)
        else:   # theta holds c
            np.divide(np.abs(u_star, out=buf), theta, out=theta)
            np.minimum(theta, 1.0, out=theta)
    du = np.subtract(u_nR, u_nL, out=u_nR)
    du *= np.multiply(theta, a, out=two_a)
    pi_c += pi_nb
    pi_c /= 2.0
    pi_c -= np.divide(du, 2.0, out=du)
    np.divide(src, 2.0, out=buf)
    np.add(pi_c, buf, out=pi_L)
    pi_c -= buf
