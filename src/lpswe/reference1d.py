# reference1d.py

"""Stand-alone 1D solver on a uniform interval mesh with Neumann ghosts.

Built on the same per-interface flux kernels as the 2D code, so the
strip-equivalence property (nx-by-1 cartesian mesh with y-periodic
boundaries) is a genuine cross-check rather than a tautology.  Used as the
comparison oracle for the dam-break cut.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import CFLError, PositivityError
from .fields import Params
from .flux_kernels import (hydrostatic_source, impedance,
                           interface_pressures, interface_velocity,
                           theta_policy)


@dataclass
class State1D:
    """Uniform 1D state: depth, normal and transverse velocity, bottom."""

    dx: float
    h: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    z: np.ndarray

    def copy(self):
        return State1D(self.dx, self.h.copy(), self.u1.copy(),
                       self.u2.copy(), self.z.copy())


def _pad(a):
    """Neumann ghost padding (edge copy)."""
    return np.concatenate(([a[0]], a, [a[-1]]))


def _interface_data(h, u1, pi, z, p: Params):
    hp, up, pp, zp = _pad(h), _pad(u1), _pad(pi), _pad(z)
    hL, hR = hp[:-1], hp[1:]
    a = impedance(hL, hR, p)
    src = hydrostatic_source(hL, hR, zp[:-1], zp[1:], p.g)
    u_star = interface_velocity(up[:-1], up[1:], pp[:-1], pp[1:], a, src)
    theta = theta_policy(u_star, hL, hR, p)
    return a, src, theta, u_star


def _transport(h1, u1_1, u2_1, u_star, dx, dt):
    """Upwind transport of (h, hu1, hu2) built from the acoustic output."""
    nx = len(h1)
    out = []
    dl = dt / dx
    div = u_star[1:] - u_star[:-1]
    if np.any(1.0 + dl * div < 0.0):
        raise CFLError("1D transport convexity factor negative")
    for phi in (h1, h1 * u1_1, h1 * u2_1):
        pp = _pad(phi)
        up_face = np.where(u_star >= 0.0, pp[:-1], pp[1:])
        new = (phi - dl * (u_star[1:] * up_face[1:]
                           - u_star[:-1] * up_face[:-1])
               + dl * phi * div)
        out.append(new)
    hn, m1, m2 = out
    if np.any(hn <= 0.0):
        j = int(np.nonzero(hn <= 0.0)[0][0])
        raise PositivityError(f"1D transport produced h <= 0 in cell {j}",
                              cell=j)
    return hn, m1 / hn, m2 / hn


def step1d(state: State1D, p: Params, dt) -> State1D:
    """One full step (acoustic then transport) at the given dt.

    The scheme variant (explicit or implicit acoustic step) follows
    p.scheme; the transverse velocity u2 is untouched by the acoustic step.
    """
    h, u1, u2, z, dx = state.h, state.u1, state.u2, state.z, state.dx
    tau = 1.0 / h
    pi = p.g * h * h / 2.0

    a, src, theta, _ = _interface_data(h, u1, pi, z, p)

    if p.scheme == "EXEX":
        u_sharp, pi_sharp = u1, pi
    else:
        u_sharp, pi_sharp = _solve_implicit_1d(h, u1, pi, tau, a, src, theta,
                                               dx, dt)

    pp, up = _pad(pi_sharp), _pad(u_sharp)
    u_star = interface_velocity(up[:-1], up[1:], pp[:-1], pp[1:], a, src)
    pi_L, pi_R = interface_pressures(pp[:-1], pp[1:], up[:-1], up[1:],
                                     a, theta, src)

    dl = dt / dx
    tau1 = tau + tau * dl * (u_star[1:] - u_star[:-1])
    if np.any(tau1 <= 0.0):
        j = int(np.nonzero(tau1 <= 0.0)[0][0])
        raise PositivityError(f"1D acoustic produced tau <= 0 in cell {j}",
                              cell=j)
    u1_1 = u1 - tau * dl * (pi_L[1:] - pi_R[:-1])
    u2_1 = u2

    hn, u1n, u2n = _transport(1.0 / tau1, u1_1, u2_1, u_star, dx, dt)
    return State1D(dx, hn, u1n, u2n, z.copy())


def _solve_implicit_1d(h, u1, pi, tau, a, src, theta, dx, dt):
    """Dense solve of the implicit acoustic system over (u1, Pi).

    Neumann ghosts are eliminated by folding their coefficients onto the
    adjacent interior cell.
    """
    nx = len(h)
    A = np.eye(2 * nx)
    b = np.empty(2 * nx)
    b[0::2] = u1
    b[1::2] = pi

    def iu(j):
        return 2 * j

    def ip(j):
        return 2 * j + 1

    for i in range(nx + 1):       # interface between padded cells i-1, i
        jl, jr = i - 1, i          # interior indices; -1 / nx are ghosts
        jl_eff = max(jl, 0)
        jr_eff = min(jr, nx - 1)
        ai, si, thi = a[i], src[i], theta[i]
        # Right cell sees this as its left interface (flux enters with -),
        # left cell as its right interface.
        for cell, other, sgn in ((jl, jr_eff, +1.0), (jr, jl_eff, -1.0)):
            if cell < 0 or cell >= nx:
                continue
            coef = tau[cell] * dt / dx * sgn
            # Momentum row: +coef * Pi_side, Pi_side = (Pi_l+Pi_r)/2
            #   - theta a (u_r - u_l)/2 +/- s/2 (owner/neighbor side).
            A[iu(cell), ip(cell)] += coef * 0.5
            A[iu(cell), ip(other)] += coef * 0.5
            ta = 0.5 * coef * thi * ai
            if sgn > 0:    # cell is left of the interface
                A[iu(cell), iu(other)] += -ta
                A[iu(cell), iu(cell)] += ta
                b[iu(cell)] -= coef * si / 2.0
            else:          # cell is right of the interface
                A[iu(cell), iu(cell)] += -ta
                A[iu(cell), iu(other)] += ta
                b[iu(cell)] -= coef * (-si) / 2.0
            # Pressure row: +coef * a^2 * u_star.
            ca2 = coef * ai * ai
            if sgn > 0:
                uL, uR, pL, pR = cell, other, cell, other
            else:
                uL, uR, pL, pR = other, cell, other, cell
            A[ip(cell), iu(uL)] += 0.5 * ca2
            A[ip(cell), iu(uR)] += 0.5 * ca2
            A[ip(cell), ip(pL)] += ca2 / (2.0 * ai)
            A[ip(cell), ip(pR)] += -ca2 / (2.0 * ai)
            b[ip(cell)] += ca2 * si / (2.0 * ai)

    x = np.linalg.solve(A, b)
    return x[0::2], x[1::2]


def dt_1d(state: State1D, p: Params, dt_max):
    """1D analogue of the 2D time-step formulas (perimeter ratio 2/dx)."""
    h = state.h
    tau = 1.0 / h
    pi = p.g * h * h / 2.0
    a, _, _, u_star = _interface_data(state.h, state.u1, pi, state.z, p)
    vt = np.abs(u_star)
    if p.scheme == "EXEX":
        taup = _pad(tau)
        v = np.maximum(np.maximum(taup[:-1], taup[1:]) * a, vt)
    else:
        v = vt
    denom = (2.0 / state.dx) * v.max()
    if denom <= 0.0:
        return dt_max
    return min(p.k_cfl / (2.0 * denom), dt_max)


def run1d(state: State1D, p: Params, t_final, dt_max=None):
    """Advance to t_final with the 1D dt formula; returns (state, steps)."""
    if dt_max is None:
        dt_max = max(t_final, 1e-300) / 10.0
    s = state.copy()
    t, steps = 0.0, 0
    while t < t_final * (1.0 - 1e-14) and t_final > 0.0:
        dt = min(dt_1d(s, p, dt_max), t_final - t)
        # The IMEX dt is sized from pre-solve speeds; reject and shrink if
        # the solved step violates the transport CFL or positivity.
        for attempt in range(20):
            try:
                s = step1d(s, p, dt)
                break
            except (CFLError, PositivityError):
                if p.scheme == "EXEX" and attempt >= 3:
                    raise    # the explicit dt formula should not need this
                dt *= 0.5
        else:
            raise CFLError("1D step rejected repeatedly")
        t += dt
        steps += 1
    return s, steps
