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
from .flux_kernels import FaceFlux, evaluate_face_fluxes


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


# Largest acoustic CFL fraction the explicit step accepts (1/2 up to
# roundoff).
ACOUSTIC_CFL_LIMIT = 0.5 * (1.0 + 1e-12)


def _divergence(mesh, fluxes):
    """Per-cell sum of sigma_jk * u_star_jk (the neighbor sees -u_star)."""
    w = mesh.face_length * fluxes.u_star
    return mesh.cell_sums(w, -w) / mesh.area


def acoustic_cfl_fraction(mesh, tau, fluxes, dt):
    """dt * max_j(tau_j * max_k sigma_jk * a_jk); must be <= 1/2 for the
    explicit scheme."""
    n = mesh.n_cells
    w = mesh.face_length * fluxes.a
    return dt * np.max(tau[:n] * mesh.cell_max(w, w) / mesh.area)


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
                      cfl_strict=False, donor=None, cfl_bound=None,
                      update_pi=True) -> AcousticResult:
    """One explicit acoustic step (sharp level = n).

    ``fluxes`` may be passed in when the time-n fluxes were already
    evaluated (the driver computes them for the time-step formula); ghost
    entries of ``r`` must be populated.  When ``donor`` is given the ghost
    entries of the result are refreshed from their donor cells, which the
    transport upwinding needs for exact flux antisymmetry across periodic
    boundaries.

    ``cfl_bound`` is a known upper bound of the acoustic CFL fraction at
    this dt; the exact fraction is computed (and checked) only when no
    bound is given or the bound is over the limit.  With ``update_pi``
    False the Pi update is skipped and the result's ``relaxed.pi`` is None
    (the combined update does not read it).
    """
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes is None:
        fluxes = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)

    if cfl_bound is None or not cfl_bound <= ACOUSTIC_CFL_LIMIT:
        frac = acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
        if frac > ACOUSTIC_CFL_LIMIT:
            msg = (f"acoustic CFL violated: dt*max(tau*sigma*a) = "
                   f"{frac:.3e} > 1/2")
            if cfl_strict:
                raise CFLError(msg)
            warnings.warn(msg, stacklevel=2)

    tau1 = _tau_update(mesh, r.tau, dt, fluxes)

    # u update: owner sees pi_star_L * n, neighbor sees pi_star_R * (-n).
    wL = mesh.face_length * fluxes.pi_star_L
    wR = mesh.face_length * fluxes.pi_star_R
    acc_x = mesh.cell_sums(wL * mesh.face_normal[:, 0],
                           -wR * mesh.face_normal[:, 0]) / mesh.area
    acc_y = mesh.cell_sums(wL * mesh.face_normal[:, 1],
                           -wR * mesh.face_normal[:, 1]) / mesh.area
    u1 = r.u.copy()
    u1[:n, 0] = r.u[:n, 0] - r.tau[:n] * dt * acc_x
    u1[:n, 1] = r.u[:n, 1] - r.tau[:n] * dt * acc_y

    pi1 = None
    if update_pi:
        # Pi update with the face-local impedance squared.
        wa = mesh.face_length * fluxes.a * fluxes.a * fluxes.u_star
        acc_pi = mesh.cell_sums(wa, -wa) / mesh.area
        pi1 = r.pi.copy()
        pi1[:n] = r.pi[:n] - r.tau[:n] * dt * acc_pi

    if donor is not None:
        _extend_ghosts(tau1, donor, n)
        _extend_ghosts(u1, donor, n)
        if update_pi:
            _extend_ghosts(pi1, donor, n)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes, dt)


@dataclass
class ImplicitPattern:
    """CSR structure of the implicit matrix for one mesh and donor map.

    ``owner_pos`` holds the data position of each Jacobian entry
    ``vals[owner_mask]`` in the owner rows, ``neighbor_pos`` that of each
    ``vals[neighbor_mask]`` in the interior-neighbor rows (``vals`` as in
    ``assemble_implicit``, face x 3 fluxes x 6 columns), and ``diag`` the
    position of each diagonal entry.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    owner_mask: np.ndarray
    owner_pos: np.ndarray
    neighbor_mask: np.ndarray
    neighbor_pos: np.ndarray


def implicit_pattern(mesh, donor) -> ImplicitPattern:
    """Derive the sparsity of A = I + kron(T D, I3) F from the mesh and the
    ghost donors.

    Face f couples the cells o (owner) and m (neighbor, or the donor of its
    ghost) in the 3x3 blocks (o, o), (o, m), (nb, o) and (nb, nb), the last
    two for an interior neighbor nb only.  Its entry in row unknown c and
    column unknown k (0: u1, 1: u2, 2: Pi) carries the factor w_c w_k with
    w = (n_x, n_y, 1), so it is zero by geometry when that factor is.  A
    block entry is stored when some face gives it a nonzero factor, or when
    it is on the diagonal.
    """
    n, nf = mesh.n_cells, mesh.n_faces
    o, nb = mesh.face_owner, mesh.face_neighbor
    inner = np.nonzero(nb < n)[0]
    m = nb.copy()
    ghost = nb >= n
    m[ghost] = donor[nb[ghost] - n]

    # Blocks by (row cell, column cell) key, in CSR order; block[s] is the
    # block of slot s: (o, o), (o, m) of every face, then (nb, o), (nb, nb)
    # of the interior faces.
    keys, block = np.unique(
        np.concatenate([o, o, nb[inner], nb[inner]]).astype(np.int64) * n
        + np.concatenate([o, m, o[inner], nb[inner]]), return_inverse=True)
    block = block.astype(np.int32)

    # Stored entries of each block, as bits c*3 + k: the union over its
    # slots of the faces' nonzero factors, plus the diagonal.
    w = np.column_stack([mesh.face_normal != 0.0, np.ones(nf, bool)])
    geo = w[:, :, None] & w[:, None, :]                       # (nf, 3, 3)
    bits = geo.reshape(nf, 9) @ (1 << np.arange(9))
    block_bits = np.zeros(len(keys), bits.dtype)
    np.bitwise_or.at(block_bits, block,
                     np.concatenate([bits, bits, bits[inner], bits[inner]]))
    diag_block = np.searchsorted(keys, np.arange(n) * (n + 1))
    block_bits[diag_block] |= 0b100010001
    stored = (block_bits[:, None] >> np.arange(9)) & 1 == 1

    indptr, indices, pos = _csr_layout(keys // n, keys % n, stored, n)

    # Data position of each Jacobian entry (face, flux c, column k of o,
    # then of m) in the owner rows and in the interior-neighbor rows.
    def entry_pos(first, second, mask):
        return np.concatenate([pos[block[first]].reshape(-1, 3, 3),
                               pos[block[second]].reshape(-1, 3, 3)],
                              axis=2)[mask]

    ni = len(inner)
    owner_mask = np.concatenate([geo, geo], axis=2)
    neighbor_mask = owner_mask.copy()
    neighbor_mask[ghost] = False
    return ImplicitPattern(
        indptr=indptr, indices=indices,
        diag=pos[diag_block][:, [0, 4, 8]].ravel(),
        owner_mask=owner_mask,
        owner_pos=entry_pos(slice(nf), slice(nf, 2 * nf), owner_mask),
        neighbor_mask=neighbor_mask,
        neighbor_pos=entry_pos(slice(2 * nf, 2 * nf + ni),
                               slice(2 * nf + ni, None), owner_mask[inner]))


def _csr_layout(brow, bcol, stored, n):
    """indptr, indices and data positions of the stored entries of 3x3
    blocks: block b sits at block row brow[b] and block column bcol[b], its
    entry (c, k) is stored where stored[b, 3c + k], and pos[b, 3c + k] is
    the data position of that entry.

    np.nonzero lists the entries by block, then c, then k, and the blocks
    are sorted by (brow, bcol); a stable sort by matrix row then keeps the
    columns in order within each row.
    """
    b, c, k = np.nonzero(stored.reshape(-1, 3, 3))
    rows = 3 * brow[b] + c
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(3 * n + 1, np.int32)
    np.cumsum(np.bincount(rows, minlength=3 * n), out=indptr[1:])
    indices = (3 * bcol[b] + k)[order].astype(np.int32)
    del b, c, k, rows      # freed early: lowers the build's peak memory
    pos = np.full(stored.size, -1, np.int32)
    pos[np.flatnonzero(stored)[order]] = np.arange(len(order), dtype=np.int32)
    return indptr, indices, pos.reshape(stored.shape)


def assemble_implicit(r: RelaxedField, mesh, topo, p: Params, dt,
                      donor, fluxes_n: FaceFlux = None,
                      h_n=None, pattern: ImplicitPattern = None
                      ) -> LinearSystem:
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
    to b; owner and neighbor both see +s/2 n in the momentum rows.

    The structure of A comes from ``pattern`` (``implicit_pattern`` of the
    same mesh and donors, built here when not given); only its values are
    computed per call.
    """
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes_n is None:
        fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)
    if pattern is None:
        pattern = implicit_pattern(mesh, donor)
    # Frozen time-n impedance, theta and source bracket.
    a, theta, src = fluxes_n.a, fluxes_n.theta, fluxes_n.src
    o, nb = mesh.face_owner, mesh.face_neighbor

    nf = mesh.n_faces
    nx, ny = mesh.face_normal[:, 0], mesh.face_normal[:, 1]
    length = mesh.face_length
    # Face f holds 3 x 6 Jacobian entries: length times n_x dPi_face,
    # n_y dPi_face and a^2 du_star, in the columns (u1, u2, Pi) of o, then
    # of m.  Where m == o (a zero-gradient ghost) both land on one entry.
    ta = 0.5 * theta * a
    half = np.full(nf, 0.5)
    dpi = np.stack([ta * nx, ta * ny, half, -ta * nx, -ta * ny, half], 1)
    dus = np.stack([0.5 * nx, 0.5 * ny, 0.5 / a,
                    0.5 * nx, 0.5 * ny, -0.5 / a], 1)
    vals = np.stack([(length * nx)[:, None] * dpi,
                     (length * ny)[:, None] * dpi,
                     (length * a * a)[:, None] * dus], 1)

    # T D F: the rows of cell j carry T_j = dt tau_j / |K_j| times the
    # entries of its faces, + as owner and - as interior neighbor.  Each
    # entry is scaled before the sum, as in the product (T D) F, so that
    # the sums that cancel exactly there (closure sums of l n over a cell)
    # cancel here too and are dropped as zeros.
    T = np.zeros(mesh.n_total)
    T[:n] = dt * r.tau[:n] / mesh.area
    nnz = len(pattern.indices)
    data = np.bincount(
        pattern.owner_pos, minlength=nnz,
        weights=(T[o][:, None, None] * vals)[pattern.owner_mask])
    data -= np.bincount(
        pattern.neighbor_pos, minlength=nnz,
        weights=(T[nb][:, None, None] * vals)[pattern.neighbor_mask])
    data[pattern.diag] += 1.0
    A = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                      shape=(3 * n, 3 * n))
    A.eliminate_zeros()

    x0 = np.column_stack([r.u[:n], r.pi[:n]]).ravel()
    hs = 0.5 * length * src
    wx, wy, wa = nx * hs, ny * hs, a * hs
    Tn = T[:n]
    b = x0 - np.column_stack([Tn * mesh.cell_sums(wx, wx),
                              Tn * mesh.cell_sums(wy, wy),
                              -Tn * mesh.cell_sums(wa, -wa)]).ravel()
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
                      h_n=None, pattern: ImplicitPattern = None
                      ) -> AcousticResult:
    """Implicit acoustic step: assemble, solve, back-substitute tau and
    evaluate the sharp-level face fluxes with the frozen time-n theta.
    ``pattern`` is handed to ``assemble_implicit``."""
    n = mesh.n_cells
    if h_n is None:
        h_n = 1.0 / r.tau
    if fluxes_n is None:
        fluxes_n = evaluate_face_fluxes(mesh, r.u, r.pi, h_n, topo.z, p)
    system = assemble_implicit(r, mesh, topo, p, dt, donor,
                               fluxes_n=fluxes_n, h_n=h_n, pattern=pattern)
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
