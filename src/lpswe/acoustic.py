# acoustic.py

"""Acoustic (Lagrangian) step: explicit update or implicit sparse solve.

The explicit variant evaluates the face fluxes at time n.  The implicit
variant solves a linear system in the per-cell unknowns (u1, u2, Pi); the
hydrostatic source bracket and the theta correction stay frozen at time n,
which keeps the system linear.  tau is back-substituted from the solved
interface velocities in both cases.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import CFLError, PositivityError, SolverError
from .fields import Params, RelaxedField
from .flux_kernels import FaceFlux, evaluate_face_fluxes, hydrostatic_source


@dataclass
class AcousticResult:
    """State at t^{n+1-} plus the face fluxes evaluated at the sharp level,
    for reuse by the transport step."""

    relaxed: RelaxedField       # ghost entries populated via the donor copy
    fluxes: FaceFlux
    dt: float


@dataclass
class LinearSystem:
    """Sparse implicit acoustic system over (u1, u2, Pi) per interior cell.

    Unknown ordering is interleaved: cell j owns rows/cols 3j, 3j+1, 3j+2.
    """

    A: sp.csr_matrix
    b: np.ndarray
    x0: np.ndarray      # time-n state (u^n, Pi^n), the Krylov start
    n_cells: int
    dt: float


def _face_cell_sums(mesh, w_owner, w_neighbor):
    """Accumulate per-cell sums of face weights: owner cells receive
    w_owner, interior neighbor cells receive w_neighbor."""
    n = mesh.n_cells
    interior = mesh.face_neighbor < n
    out = np.bincount(mesh.face_owner, weights=w_owner, minlength=n)
    out += np.bincount(mesh.face_neighbor[interior],
                       weights=w_neighbor[interior], minlength=n)
    return out


def _divergence(mesh, fluxes):
    """Per-cell sum of sigma_jk * u_star_jk (the neighbor sees -u_star)."""
    w = mesh.face_length * fluxes.u_star
    return _face_cell_sums(mesh, w, -w) / mesh.area


def acoustic_cfl_fraction(mesh, tau, fluxes, dt):
    """dt * max_j(tau_j * max_k sigma_jk * a_jk); must be <= 1/2 for the
    explicit scheme."""
    n = mesh.n_cells
    m = np.zeros(n)
    w = mesh.face_length * fluxes.a
    np.maximum.at(m, mesh.face_owner, w)
    interior = mesh.face_neighbor < n
    np.maximum.at(m, mesh.face_neighbor[interior], w[interior])
    return dt * np.max(tau[:n] * m / mesh.area)


def _extend_ghosts(arr, donor, n_cells):
    """Fill ghost entries by copying from the donor interior cells."""
    arr[n_cells:] = arr[donor]
    return arr


def _tau_update(mesh, tau, dt, fluxes):
    n = mesh.n_cells
    divu = _divergence(mesh, fluxes)
    tau1 = tau.copy()
    tau1[:n] = tau[:n] + tau[:n] * dt * divu
    bad = np.nonzero(tau1[:n] <= 0.0)[0]
    if bad.size:
        j = int(bad[0])
        suggested = 0.45 * dt / max(dt * abs(divu[j]), 1e-300)
        raise PositivityError(
            f"acoustic step produced tau <= 0 in cell {j}",
            cell=j, suggested_dt=suggested)
    return tau1


def explicit_acoustic(r: RelaxedField, mesh, topo, p: Params, dt,
                      fluxes: FaceFlux = None, h_n=None,
                      cfl_strict=False, donor=None) -> AcousticResult:
    """One explicit acoustic step (sharp level = n).

    ``fluxes`` may be passed in when the time-n fluxes were already
    evaluated (the driver computes them for the time-step formula); ghost
    entries of ``r`` must be populated.  When ``donor`` is given the ghost
    entries of the result are refreshed from their donor cells, which the
    transport upwinding needs for exact flux antisymmetry across periodic
    boundaries.
    """
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes is None:
        fluxes = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)

    frac = acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
    if frac > 0.5 * (1.0 + 1e-12):
        msg = (f"acoustic CFL violated: dt*max(tau*sigma*a) = {frac:.3e} "
               f"> 1/2")
        if cfl_strict:
            raise CFLError(msg)
        warnings.warn(msg, stacklevel=2)

    tau1 = _tau_update(mesh, r.tau, dt, fluxes)

    # u update: owner sees pi_star_L * n, neighbor sees pi_star_R * (-n).
    wL = mesh.face_length * fluxes.pi_star_L
    wR = mesh.face_length * fluxes.pi_star_R
    acc_x = _face_cell_sums(mesh, wL * mesh.face_normal[:, 0],
                            -wR * mesh.face_normal[:, 0]) / mesh.area
    acc_y = _face_cell_sums(mesh, wL * mesh.face_normal[:, 1],
                            -wR * mesh.face_normal[:, 1]) / mesh.area
    u1 = r.u.copy()
    u1[:n, 0] = r.u[:n, 0] - r.tau[:n] * dt * acc_x
    u1[:n, 1] = r.u[:n, 1] - r.tau[:n] * dt * acc_y

    # Pi update with the face-local impedance squared.
    wa = mesh.face_length * fluxes.a * fluxes.a * fluxes.u_star
    acc_pi = _face_cell_sums(mesh, wa, -wa) / mesh.area
    pi1 = r.pi.copy()
    pi1[:n] = r.pi[:n] - r.tau[:n] * dt * acc_pi

    if donor is not None:
        _extend_ghosts(tau1, donor, n)
        _extend_ghosts(u1, donor, n)
        _extend_ghosts(pi1, donor, n)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes, dt)


def assemble_implicit(r: RelaxedField, mesh, topo, p: Params, dt,
                      donor, fluxes_n: FaceFlux = None,
                      h_n=None) -> LinearSystem:
    """Assemble the implicit acoustic system (sharp level = n+1-) as
    A = I + dt diag(tau/|K|) D F, D acting on each of the three fluxes.

    D is the signed face->cell incidence (+1 at the owner, -1 at an interior
    neighbor) and F the Jacobian of the per-face fluxes
    l (n_x Pi_face, n_y Pi_face, a^2 u_star) in the unknowns, with the
    time-n impedance, theta and source bracket frozen:

        Pi_face = (Pi_o + Pi_m)/2 - (theta a / 2) n.(u_m - u_o) +- s/2
        u_star  = n.(u_o + u_m)/2 - (Pi_m - Pi_o)/(2a) - s/(2a)

    Ghost unknowns are eliminated through ``donor``: the ghost behind
    boundary face i carries the unknowns of interior cell donor[i]
    (zero-gradient closure, or the periodic partner).  The source terms go
    to b; owner and neighbor both see +s/2 n in the momentum rows, hence
    |D| there.
    """
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes_n is None:
        fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)
    a, theta = fluxes_n.a, fluxes_n.theta
    o, nb = mesh.face_owner, mesh.face_neighbor
    # Frozen time-n source bracket.
    src = hydrostatic_source(h_n[o], h_n[nb], topo.z[o], topo.z[nb], p.g)

    # T D, with T = dt diag(tau/|K|) applied to the +-1 entries of D.
    nf = mesh.n_faces
    inner = np.nonzero(nb < n)[0]
    T = dt * r.tau[:n] / mesh.area
    TD = sp.csr_matrix(
        (np.r_[T[o], -T[nb[inner]]],
         (np.r_[o, nb[inner]], np.r_[np.arange(nf), inner])), shape=(n, nf))

    m = nb.copy()
    ghost = nb >= n
    m[ghost] = donor[nb[ghost] - n]
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    length = mesh.face_length
    # Face rows 3f, 3f+1, 3f+2 of F hold six entries each, in the columns
    # (u1, u2, Pi) of o, then of m: length times n_x dPi_face, n_y dPi_face
    # and a^2 du_star.  Where m == o (a zero-gradient ghost) the product
    # below sums the repeated columns.
    ta = 0.5 * theta * a
    half = np.full(nf, 0.5)
    dpi = np.stack([ta * nx, ta * ny, half, -ta * nx, -ta * ny, half], 1)
    dus = np.stack([0.5 * nx, 0.5 * ny, 0.5 / a,
                    0.5 * nx, 0.5 * ny, -0.5 / a], 1)
    vals = np.stack([(length * nx)[:, None] * dpi,
                     (length * ny)[:, None] * dpi,
                     (length * a * a)[:, None] * dus], 1)
    cols = np.concatenate([3 * o[:, None] + np.arange(3),
                           3 * m[:, None] + np.arange(3)], 1)
    F = sp.csr_matrix(
        (vals.ravel(), np.repeat(cols, 3, axis=0).ravel(),
         np.arange(0, 18 * nf + 1, 6)), shape=(3 * nf, 3 * n))
    A = (sp.identity(3 * n, format="csr")
         + sp.kron(TD, sp.identity(3), format="csr") @ F)

    x0 = np.column_stack([r.u[:n], r.pi[:n]]).ravel()
    hs = 0.5 * length * src
    b = x0 - np.column_stack([abs(TD) @ (mesh.face_normal * hs[:, None]),
                              -(TD @ (a * hs))]).ravel()
    return LinearSystem(A=A, b=b, x0=x0, n_cells=n, dt=dt)


def solve_implicit(system: LinearSystem, tol, max_iter=500):
    """Solve the implicit system to the residual contract
    ||Ax - b|| <= tol * ||b||.

    BiCGSTAB starts from ``system.x0`` and runs at most ``max_iter``
    iterations per attempt.  Its recursively updated residual can pass
    while the true one misses, so the true residual is checked and the
    iteration restarted from the last iterate at most twice.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    A, b = system.A, system.b
    bound = tol * max(np.linalg.norm(b), 1e-300)
    x = system.x0
    for _ in range(3):
        x, _ = spla.bicgstab(A, b, x0=x, rtol=tol, atol=0.0,
                             maxiter=max_iter)
        res = np.linalg.norm(A @ x - b)
        if res <= bound:
            xr = x.reshape(system.n_cells, 3)
            return xr[:, 0:2].copy(), xr[:, 2].copy()
    raise SolverError(
        f"implicit acoustic solve missed tolerance: "
        f"residual {res:.3e} > {tol:.1e} * ||b||", residual=res)


def implicit_acoustic(r: RelaxedField, mesh, topo, p: Params, dt,
                      donor, fluxes_n: FaceFlux = None,
                      h_n=None) -> AcousticResult:
    """Implicit acoustic step: assemble, solve, back-substitute tau and
    evaluate the sharp-level face fluxes with the frozen time-n theta."""
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes_n is None:
        fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)
    system = assemble_implicit(r, mesh, topo, p, dt, donor,
                               fluxes_n=fluxes_n, h_n=h_n)
    u_sol, pi_sol = solve_implicit(system, p.solver_tol, p.solver_maxiter)

    u1 = r.u.copy()
    pi1 = r.pi.copy()
    u1[:n] = u_sol
    pi1[:n] = pi_sol
    _extend_ghosts(u1, donor, n)
    _extend_ghosts(pi1, donor, n)

    fluxes = evaluate_face_fluxes(mesh, u1, pi1, h_n, topo.z, p,
                                  theta=fluxes_n.theta)
    tau1 = _tau_update(mesh, r.tau, dt, fluxes)
    _extend_ghosts(tau1, donor, n)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes, dt)
