# acoustic.py

"""Acoustic (Lagrangian) step: explicit update or implicit sparse solve.

Both variants start from one time-n record (``TimeLevel``): the relaxed
state with Pi at equilibrium, h and the face fluxes evaluated once by the
driver.  The explicit variant updates with those fluxes.  The implicit
variant solves a linear system in the per-cell unknowns (u1, u2, Pi); the
hydrostatic source bracket and the theta correction stay frozen at time n,
which keeps the system linear.  tau is back-substituted from the solved
interface velocities in both cases.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import CFLError, PositivityError, SolverError
from .fields import Params, RelaxedField
from .flux_kernels import FaceFlux, evaluate_face_fluxes


@dataclass
class TimeLevel:
    """The time-n state a step starts from: ghost entries populated, Pi at
    equilibrium, and the face fluxes of that state."""

    relaxed: RelaxedField
    h: np.ndarray               # depth at time n, ghosts included
    fluxes: FaceFlux


@dataclass
class AcousticResult:
    """State at t^{n+1-} plus the sharp-level face fluxes and their
    pressure force, for reuse by the transport step."""

    relaxed: RelaxedField       # ghost entries populated via the donor copy
    fluxes: FaceFlux
    force: np.ndarray           # (n_cells, 2) sum_k l pi_star n / |K|


@dataclass
class LinearSystem:
    """Sparse implicit acoustic system over (u1, u2, Pi) per interior cell.

    Unknown ordering is interleaved: cell j owns rows/cols 3j, 3j+1, 3j+2.
    """

    A: sp.csr_matrix
    b: np.ndarray
    x0: np.ndarray      # time-n state (u^n, Pi^n), the Krylov start
    n_cells: int


# Largest acoustic CFL fraction the explicit step accepts (1/2 up to
# roundoff).
ACOUSTIC_CFL_LIMIT = 0.5 * (1.0 + 1e-12)


def _pressure_force(mesh, fluxes):
    """Per-cell sum_k l pi_star n / |K|: the owner sees pi_star_L n, the
    neighbor pi_star_R (-n)."""
    wL = mesh.face_length * fluxes.pi_star_L
    wR = -(mesh.face_length * fluxes.pi_star_R)
    force = np.empty((mesh.n_cells, 2))
    for d in (0, 1):
        nd = mesh.face_normal[:, d]
        force[:, d] = mesh.cell_sums(wL * nd, wR * nd) / mesh.area
    return force


def acoustic_cfl_fraction(mesh, tau, fluxes, dt):
    """dt * max_j(tau_j * max_k sigma_jk * a_jk); must be <= 1/2 for the
    explicit scheme.  One max over both sides of every face (tau 0 on a
    ghost side) gives the per-cell max bit for bit: rounding is monotone."""
    n = mesh.n_cells
    w = mesh.face_length * fluxes.a
    tau0 = np.zeros(mesh.n_total)
    tau0[:n] = tau[:n]
    area = np.append(mesh.area, np.ones(mesh.n_ghost))
    return dt * max(np.max(tau0[cells] * w / area[cells])
                    for cells in (mesh.face_owner, mesh.face_neighbor))


def _extend_ghosts(arr, donor, n_cells):
    """Fill ghost entries by copying from the donor interior cells."""
    arr[n_cells:] = arr[donor]
    return arr


def _tau_update(mesh, tau, dt, fluxes):
    n = mesh.n_cells
    # sum_k sigma_jk u_star_jk, the neighbor seeing -u_star
    divu = mesh.cell_sums(mesh.face_length * fluxes.u_star) / mesh.area
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


def explicit_acoustic(tn: TimeLevel, mesh, dt, donor, cfl_bound=None,
                      update_pi=True) -> AcousticResult:
    """One explicit acoustic step (sharp level = n) with the time-n fluxes.

    The ghost entries of the result are refreshed from their ``donor``
    cells, which the transport upwinding needs for exact flux antisymmetry
    across periodic boundaries.

    ``cfl_bound`` is a known upper bound of the acoustic CFL fraction at
    this dt; the exact fraction is computed only when no bound is given or
    the bound is over the limit, and a fraction over 1/2 raises CFLError.
    With ``update_pi`` False the Pi update is skipped and the result's
    ``relaxed.pi`` is None (the combined update does not read it).
    """
    n = mesh.n_cells
    r, fluxes = tn.relaxed, tn.fluxes

    if cfl_bound is None or not cfl_bound <= ACOUSTIC_CFL_LIMIT:
        frac = acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
        if frac > ACOUSTIC_CFL_LIMIT:
            raise CFLError(f"acoustic CFL violated: dt*max(tau*sigma*a) = "
                           f"{frac:.3e} > 1/2")

    tau1 = _tau_update(mesh, r.tau, dt, fluxes)

    force = _pressure_force(mesh, fluxes)
    u1 = r.u.copy()
    u1[:n] -= (r.tau[:n] * dt)[:, None] * force

    pi1 = None
    if update_pi:
        # Pi update with the face-local impedance squared.
        wa = mesh.face_length * fluxes.a * fluxes.a * fluxes.u_star
        acc_pi = mesh.cell_sums(wa) / mesh.area
        pi1 = r.pi.copy()
        pi1[:n] = r.pi[:n] - r.tau[:n] * dt * acc_pi
        _extend_ghosts(pi1, donor, n)

    _extend_ghosts(tau1, donor, n)
    _extend_ghosts(u1, donor, n)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes, force)


@dataclass
class ImplicitPattern:
    """CSR structure of the implicit matrix for one mesh and donor map,
    and the constant map from per-face scalars to its values.

    Row p of ``S`` belongs to the stored entry at data position p: it holds
    the geometric factor +-l w_c w_k / 2 of each face that contributes to
    that entry, in the column q * n_faces + f of scalar q of face f (the
    scalars as in ``assemble_implicit``).  ``diag`` is the position of each
    diagonal entry.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    S: sp.csr_matrix


# Entry (c, k) = (e // 3, e % 3) of a face's 3x3 Jacobian block takes the
# face scalar _SCALAR[e] of (theta a, 1, a^2, a); in the columns of the
# neighbor cell the theta a and a entries change sign.
_SCALAR = np.array([0, 0, 1, 0, 0, 1, 2, 2, 3])
_SIGN_M = np.where((_SCALAR == 0) | (_SCALAR == 3), -1.0, 1.0)


def implicit_pattern(mesh, donor) -> ImplicitPattern:
    """Derive the sparsity of A = I + kron(T D, I3) F, and the map from the
    face scalars to the values of D F, from the mesh and the ghost donors.

    Face f couples the cells o (owner) and m (neighbor, or the donor of its
    ghost) in the 3x3 blocks (o, o), (o, m), (nb, o) and (nb, nb), the last
    two for an interior neighbor nb only.  Its entry in row unknown c and
    column unknown k (0: u1, 1: u2, 2: Pi) is +-l w_c w_k / 2 with
    w = (n_x, n_y, 1) times one face scalar, so it is zero by geometry when
    w_c w_k is.  An entry is stored when some face gives it a nonzero
    factor, or when it is on the diagonal.
    """
    n, nf = mesh.n_cells, mesh.n_faces
    o, nb = mesh.face_owner, mesh.face_neighbor
    inner = np.nonzero(nb < n)[0]
    m = nb.copy()
    ghost = nb >= n
    m[ghost] = donor[nb[ghost] - n]
    w = np.column_stack([mesh.face_normal, np.ones(nf)])
    geo = ((w[:, :, None] != 0.0) & (w[:, None, :] != 0.0)).reshape(nf, 9)

    # One key row * 3n + col per nonzero contribution, slot by slot: the
    # owner rows take the face's entries with sign +, the interior-neighbor
    # rows with sign -; in the columns of m the theta a and a entries take
    # one more sign.  The 3n diagonal keys follow.
    N = 3 * n
    every = np.arange(nf)
    slots = ((every, o, o, np.ones(9)),
             (every, o, m, _SIGN_M),
             (inner, nb, o, -np.ones(9)),
             (inner, nb, nb, -_SIGN_M))
    size = 2 * (np.count_nonzero(geo) + np.count_nonzero(geo[inner]))
    keys = np.empty(size + N, np.int64)
    cols = np.empty(size, np.int32)
    vals = np.empty(size)
    start = 0
    for faces, row_cell, col_cell, sign in slots:
        i, e = np.nonzero(geo[faces])
        f = faces[i]
        stop = start + len(f)
        keys[start:stop] = ((3 * row_cell[f] + e // 3) * N
                            + 3 * col_cell[f] + e % 3)
        cols[start:stop] = _SCALAR[e] * nf + f
        vals[start:stop] = (0.5 * sign[e] * mesh.face_length[f]
                            * w[f, e // 3] * w[f, e % 3])
        start = stop
    keys[size:] = np.arange(N) * (N + 1)
    del geo, i, e, f   # freed before the sort: lowers the peak

    # Sorted, each run of equal keys is one stored entry, in CSR order; the
    # entry of a key is the number of runs starting up to it, less one.
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pos = np.empty(len(keys), np.int32)
    pos[order] = np.cumsum(first, dtype=np.int32) - 1
    del order   # freed before the CSR conversion
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(N + 1) * N).astype(np.int32)
    indices = (keys % N).astype(np.int32)
    diag = pos[size:].copy()
    # Where m == o (a zero-gradient ghost) slots 0 and 1 give one entry the
    # same column twice; the CSR conversion sums them.
    S = sp.csr_matrix((vals, (pos[:size], cols)), shape=(len(indices), 4 * nf))
    return ImplicitPattern(indptr=indptr, indices=indices, diag=diag, S=S)


def assemble_implicit(tn: TimeLevel, mesh, dt,
                      pattern: ImplicitPattern) -> LinearSystem:
    """Assemble the implicit acoustic system (sharp level = n+1-) as
    A = I + dt diag(tau/|K|) D F, D acting on each of the three fluxes.

    D is the signed face->cell incidence (+1 at the owner, -1 at an interior
    neighbor) and F the Jacobian of the per-face fluxes
    l (n_x Pi_face, n_y Pi_face, a^2 u_star) in the unknowns, with the
    time-n impedance, theta and source bracket frozen:

        Pi_face = (Pi_o + Pi_m)/2 - (theta a / 2) n.(u_m - u_o) +- s/2
        u_star  = n.(u_o + u_m)/2 - (Pi_m - Pi_o)/(2a) - s/(2a)

    Ghost unknowns are eliminated through the donors the ``pattern`` was
    built with: the ghost behind boundary face i carries the unknowns of
    interior cell donor[i] (zero-gradient closure, or the periodic
    partner).  The source terms go to b; owner and neighbor both see
    +s/2 n in the momentum rows.

    The structure of A comes from ``pattern`` (``implicit_pattern`` of the
    same mesh and donors); only its values are computed per call, as
    T * (S d) with the face scalars d = (theta a, 1, a^2, a), plus 1 on the
    diagonal.
    """
    n = mesh.n_cells
    r = tn.relaxed
    # Frozen time-n impedance, theta and source bracket.
    a, theta, src = tn.fluxes.a, tn.fluxes.theta, tn.fluxes.src

    # T D F: S sums each entry of D F over its faces, and the rows of cell j
    # carry T_j = dt tau_j / |K_j| times that sum (the entries of its three
    # rows are contiguous in data).
    T = dt * r.tau[:n] / mesh.area
    data = pattern.S @ np.concatenate([theta * a, np.ones(mesh.n_faces),
                                       a * a, a])
    data *= np.repeat(T, np.diff(pattern.indptr[::3]))
    data[pattern.diag] += 1.0
    A = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                      shape=(3 * n, 3 * n))

    x0 = np.column_stack([r.u[:n], r.pi[:n]]).ravel()
    hs = 0.5 * mesh.face_length * src
    nx, ny = mesh.face_normal.T
    wx, wy, wa = nx * hs, ny * hs, a * hs
    b = x0 - np.column_stack([T * mesh.cell_sums(wx, wx),
                              T * mesh.cell_sums(wy, wy),
                              -T * mesh.cell_sums(wa)]).ravel()
    return LinearSystem(A=A, b=b, x0=x0, n_cells=n)


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


def implicit_acoustic(tn: TimeLevel, mesh, p: Params, dt, donor,
                      pattern: ImplicitPattern) -> AcousticResult:
    """Implicit acoustic step: assemble, solve, back-substitute tau and
    evaluate the sharp-level face fluxes with the time-n a, theta and src
    frozen.  ``pattern`` is handed to ``assemble_implicit``."""
    n = mesh.n_cells
    r = tn.relaxed
    system = assemble_implicit(tn, mesh, dt, pattern)
    u_sol, pi_sol = solve_implicit(system, p.solver_tol, p.solver_maxiter)

    u1 = r.u.copy()
    pi1 = r.pi.copy()
    u1[:n] = u_sol
    pi1[:n] = pi_sol
    _extend_ghosts(u1, donor, n)
    _extend_ghosts(pi1, donor, n)

    fluxes = evaluate_face_fluxes(mesh, u1, pi1, None, None, p,
                                  frozen=tn.fluxes)
    tau1 = _tau_update(mesh, r.tau, dt, fluxes)
    _extend_ghosts(tau1, donor, n)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes,
                          _pressure_force(mesh, fluxes))
