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
    """Assemble the implicit acoustic system (sharp level = n+1-).

    Ghost unknowns are eliminated through ``donor``: the ghost behind
    boundary face i carries the unknowns of interior cell donor[i]
    (zero-gradient closure, or the periodic partner).
    """
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes_n is None:
        fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)
    a, theta = fluxes_n.a, fluxes_n.theta
    # Frozen time-n source bracket.
    src = hydrostatic_source(h_n[mesh.face_owner], h_n[mesh.face_neighbor],
                             topo.z[mesh.face_owner],
                             topo.z[mesh.face_neighbor], p.g)

    o = mesh.face_owner
    nb = mesh.face_neighbor
    m_eff = np.where(nb < n, nb, 0)
    ghost = nb >= n
    m_eff[ghost] = donor[nb[ghost] - n]

    rows_list, cols_list, vals_list = [], [], []
    rhs = np.empty(3 * n)
    rhs[0::3] = r.u[:n, 0]
    rhs[1::3] = r.u[:n, 1]
    rhs[2::3] = r.pi[:n]

    def add(rows, cols, vals):
        rows_list.append(rows)
        cols_list.append(cols)
        vals_list.append(vals)

    def side(cell, other, nx, ny, s, mask):
        """One side of the faces selected by ``mask``: equations of ``cell``
        coupling to ``other`` through the outward normal (nx, ny)."""
        cell, other = cell[mask], other[mask]
        nx, ny, s = nx[mask], ny[mask], s[mask]
        af, th = a[mask], theta[mask]
        sigma = mesh.face_length[mask] / mesh.area[cell]
        coef = r.tau[cell] * dt * sigma
        ru, rv, rp = 3 * cell, 3 * cell + 1, 3 * cell + 2
        ou, ov, op = 3 * other, 3 * other + 1, 3 * other + 2

        # Momentum rows: coef * n * Pi_face, with
        # Pi_face = (Pi_c + Pi_o)/2 - (theta a / 2) n.(u_o - u_c) + s/2.
        half = 0.5 * coef
        ta = 0.5 * coef * th * af
        for row, nc in ((ru, nx), (rv, ny)):
            add(row, rp, nc * half)
            add(row, op, nc * half)
            add(row, ru, nc * ta * nx)
            add(row, rv, nc * ta * ny)
            add(row, ou, -nc * ta * nx)
            add(row, ov, -nc * ta * ny)
        np.subtract.at(rhs, ru, nx * coef * s / 2.0)
        np.subtract.at(rhs, rv, ny * coef * s / 2.0)

        # Pressure row: coef * a^2 * u_star, with
        # u_star = n.(u_c + u_o)/2 - (Pi_o - Pi_c)/(2a) - s/(2a).
        ca2 = coef * af * af
        add(rp, ru, 0.5 * ca2 * nx)
        add(rp, rv, 0.5 * ca2 * ny)
        add(rp, ou, 0.5 * ca2 * nx)
        add(rp, ov, 0.5 * ca2 * ny)
        add(rp, rp, ca2 / (2.0 * af))
        add(rp, op, -ca2 / (2.0 * af))
        np.add.at(rhs, rp, ca2 * s / (2.0 * af))

    all_faces = np.ones(mesh.n_faces, dtype=bool)
    interior = nb < n
    nxf, nyf = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    side(o, m_eff, nxf, nyf, src, all_faces)
    side(nb.copy(), o, -nxf, -nyf, -src, interior)

    # Identity diagonal.
    diag = np.arange(3 * n)
    add(diag, diag, np.ones(3 * n))

    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(3 * n, 3 * n)).tocsr()
    return LinearSystem(A=A, b=rhs, n_cells=n, dt=dt)


def solve_implicit(system: LinearSystem, tol, max_iter=500):
    """Solve the implicit system to the residual contract
    ||Ax - b|| <= tol * ||b||.

    Uses a sparse direct factorization; any solver meeting the residual
    contract is conforming and the residual is always verified.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = system.b
    lu = spla.splu(system.A.tocsc())
    x = lu.solve(b)
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(system.A @ x - b)
    if res > tol * max(bnorm, 1e-300):
        # Up to two passes of iterative refinement before giving up.
        for _ in range(2):
            x = x + lu.solve(b - system.A @ x)
            res = np.linalg.norm(system.A @ x - b)
            if res <= tol * max(bnorm, 1e-300):
                break
        else:
            raise SolverError(
                f"implicit acoustic solve missed tolerance: "
                f"residual {res:.3e} > {tol:.1e} * ||b||", residual=res)
    n = system.n_cells
    xr = x.reshape(n, 3)
    return xr[:, 0:2].copy(), xr[:, 2].copy()


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
