# acoustic.py

"""Acoustic (Lagrangian) step: explicit update or implicit sparse solve.

Both variants start from one time-n record (``TimeLevel``): the relaxed
state with Pi at equilibrium and the face fluxes evaluated once by the
driver.  Every cell array has one entry per mesh cell; a face reads its
outer side through ``mesh.face_outer``.  The explicit variant updates
with those fluxes.  The implicit variant solves a linear system in the
per-cell unknowns (u1, u2, Pi); the hydrostatic source bracket and the
theta correction stay frozen at time n, which keeps the system linear.
tau is back-substituted from the solved interface velocities in both
cases.

Only the implicit variant needs ``scipy.sparse``; it is imported on first
use, so an explicit run never loads it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import CFLError, PositivityError, SolverError
from .fields import Params, RelaxedField
from .flux_kernels import FaceFlux, evaluate_face_fluxes
from .mesh import map_parts


@dataclass
class TimeLevel:
    """The time-n state a step starts from: Pi at equilibrium, and the face
    fluxes of that state."""

    relaxed: RelaxedField
    fluxes: FaceFlux
    # The last accepted implicit solve's (x_sol - x^n) / dt, interleaved as
    # the unknowns of ``LinearSystem``: the solve starts from x^n + dt rate.
    rate: Optional[np.ndarray] = None


@dataclass
class AcousticResult:
    """State at t^{n+1-} plus what the update reads of the sharp-level
    face fluxes: u_star and their pressure force.  The other face arrays
    are not kept, so a step frees them before its update."""

    relaxed: RelaxedField
    u_star: np.ndarray          # (n_faces,) sharp-level interface velocity
    force: np.ndarray           # (n_cells, 2) sum_k l pi_star n / |K|
    rate: Optional[np.ndarray] = None   # implicit only, see TimeLevel.rate


@dataclass
class LinearSystem:
    """Sparse implicit acoustic system over (u1, u2, Pi) per cell.

    Unknown ordering is interleaved: cell j owns rows/cols 3j, 3j+1, 3j+2.
    ``solve_implicit`` sets the last two fields.
    """

    A: "scipy.sparse.csr_matrix"
    b: np.ndarray
    x0: np.ndarray      # the Krylov start: x^n, or x^n + dt rate
    iterations: int = 0          # BiCGSTAB iterations over all attempts
    residual: float = np.nan     # true ||Ax - b|| / ||b|| of the result


# Largest acoustic CFL fraction the explicit step accepts (1/2 up to
# roundoff).
ACOUSTIC_CFL_LIMIT = 0.5 * (1.0 + 1e-12)


def acoustic_cfl_fraction(mesh, tau, fluxes, dt):
    """dt * max_j(tau_j * max_k sigma_jk * a_jk); must be <= 1/2 for the
    explicit scheme.  One max over the owner side of every face and the
    neighbor side of every interior face gives the per-cell max bit for
    bit: rounding is monotone."""
    w = mesh.face_length * fluxes.a
    o, nb = mesh.face_owner, mesh.face_neighbor
    inner = nb < mesh.n_cells
    nb, w_nb = nb[inner], w[inner]
    return dt * max(np.max(tau[o] * w / mesh.area[o]),
                    np.max(tau[nb] * w_nb / mesh.area[nb], initial=0.0))


def _tau_force(part, mesh, tau, dt, fluxes, tau1, force):
    """tau1 = tau (1 + dt sum_k sigma_jk u_star_jk), the neighbor seeing
    -u_star, and the pressure force sum_k l pi_star n / |K| (the owner
    sees pi_star_L n, the neighbor pi_star_R (-n)) of the cells of
    ``part``, into ``tau1`` and ``force``."""
    cells, span = part.cells, part.span
    l, area, t = mesh.face_length[span], mesh.area[cells], tau[cells]
    divu = part.sums(l * fluxes.u_star[span]) / area
    t1 = np.add(t, t * dt * divu, out=tau1[cells])
    bad = np.nonzero(t1 <= 0.0)[0]
    if bad.size:
        j = int(bad[0])
        suggested = 0.45 * dt / max(dt * abs(divu[j]), 1e-300)
        raise PositivityError(
            f"acoustic step produced tau <= 0 in cell {cells.start + j}",
            cell=cells.start + j, suggested_dt=suggested)
    # The weights (l pi_star_L) n_d and (-(l pi_star_R)) n_d, built in
    # place per direction: two face arrays, not four.
    pi_L, pi_R = fluxes.pi_star_L[span], fluxes.pi_star_R[span]
    for d in (0, 1):
        nd = mesh.face_normal[span, d]
        wL, wR = l * pi_L, l * pi_R
        np.negative(wR, out=wR)
        wL *= nd
        wR *= nd
        force[cells, d] = part.sums(wL, wR) / area


def _explicit_part(part, mesh, r, dt, fluxes, out, force):
    """``explicit_acoustic`` on the cells of ``part``, into ``out``."""
    _tau_force(part, mesh, r.tau, dt, fluxes, out.tau, force)
    cells, span = part.cells, part.span
    tau_dt = r.tau[cells] * dt
    np.subtract(r.u[cells], tau_dt[:, None] * force[cells],
                out=out.u[cells])
    if out.pi is not None:
        # Pi update with the face-local impedance squared.
        a = fluxes.a[span]
        wa = mesh.face_length[span] * a * a * fluxes.u_star[span]
        acc_pi = part.sums(wa) / mesh.area[cells]
        np.subtract(r.pi[cells], tau_dt * acc_pi, out=out.pi[cells])


def explicit_acoustic(tn: TimeLevel, mesh, dt, cfl_bound=None,
                      update_pi=True) -> AcousticResult:
    """One explicit acoustic step (sharp level = n) with the time-n fluxes.

    ``cfl_bound`` is a known upper bound of the acoustic CFL fraction at
    this dt; the exact fraction is computed only when no bound is given or
    the bound is over the limit, and a fraction over 1/2 raises CFLError.
    With ``update_pi`` False the Pi update is skipped and the result's
    ``relaxed.pi`` is None (the combined update does not read it).  The
    update runs part by part (``mesh.parts``, through ``map_parts``).
    """
    r, fluxes = tn.relaxed, tn.fluxes

    if cfl_bound is None or not cfl_bound <= ACOUSTIC_CFL_LIMIT:
        frac = acoustic_cfl_fraction(mesh, r.tau, fluxes, dt)
        if frac > ACOUSTIC_CFL_LIMIT:
            raise CFLError(f"acoustic CFL violated: dt*max(tau*sigma*a) = "
                           f"{frac:.3e} > 1/2")

    n = mesh.n_cells
    out = RelaxedField(np.empty(n), np.empty((n, 2)),
                       np.empty(n) if update_pi else None)
    force = np.empty((n, 2))
    map_parts(_explicit_part, mesh.parts, mesh, r, dt, fluxes, out, force)
    return AcousticResult(out, fluxes.u_star, force)


@dataclass
class ImplicitPattern:
    """CSR structure of the implicit matrix for one mesh bound to its
    boundary conditions (``Mesh.face_outer``), and the constant map from
    per-face scalars to its values.

    Column q * n_faces + f of ``S`` holds the geometric factors
    +-l w_c w_k / 2 of face f for its scalar q (as in ``assemble_implicit``),
    each in the row of the data position it contributes to; ``S`` is
    stored by column.  ``diag`` is the position of each diagonal entry.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    S: "scipy.sparse.csc_matrix"


# Entry e = 3c + k of a face's 3x3 Jacobian block takes the face scalar
# _SCALAR[e] of (theta a, 1, a^2, a); in the columns of the outer cell the
# theta a and a entries change sign.
_SCALAR = np.array([0, 0, 1, 0, 0, 1, 2, 2, 3])
_SIGN_M = np.where((_SCALAR == 0) | (_SCALAR == 3), -1.0, 1.0)
# Bit e of a face's entry mask is set where w_c w_k != 0, w = (n_x, n_y, 1):
# _MASK[(n_x != 0) + 2 (n_y != 0)], octal digit c holding row c.  _DIAG is
# the diagonal's mask, _POP[b] the number of bits set in b < 8, and
# _PER_SCALAR[kind, q] the entries of _MASK[kind] that take scalar q.
_MASK = np.array([0o400, 0o505, 0o660, 0o777], np.int16)
_DIAG = 0o421
_POP = np.array([0, 1, 1, 2, 1, 2, 2, 3], np.int32)
_PER_SCALAR = np.array([[0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 1],
                        [4, 2, 2, 1]])


def implicit_pattern(mesh) -> ImplicitPattern:
    """Derive the sparsity of A = I + kron(T D, I3) F, and the map from the
    face scalars to the values of D F, from the mesh and its outer cells.

    Face f couples the cells o (owner) and m = ``mesh.face_outer[f]``
    (its neighbor, or the cell its boundary closure copies) in the 3x3
    blocks (o, o), (o, m), (nb, o) and (nb, nb), the last two for an
    interior neighbor nb only.  Its entry in row unknown c and
    column unknown k (0: u1, 1: u2, 2: Pi) is +-l w_c w_k / 2 with
    w = (n_x, n_y, 1) times one face scalar, so it is zero by geometry when
    w_c w_k is.  An entry is stored when some face gives it a nonzero
    factor, or when it is on the diagonal: a block stores the OR of its
    faces' entry masks.  Only the block keys are sorted; the entry
    positions follow from the masks by counts.
    """
    import scipy.sparse as sp

    n, nf = mesh.n_cells, mesh.n_faces
    o, nb, m = mesh.face_owner, mesh.face_neighbor, mesh.face_outer
    nx, ny = mesh.face_normal.T
    kind = (nx != 0.0) + 2 * (ny != 0.0)
    # The faces in the order interior, paired boundary (m != o) and
    # zero-gradient boundary (m == o): 4, 2 and 1 slots each.
    group = np.where(nb < n, 0, np.where(m != o, 1, 2))
    perm = np.argsort(group, kind="stable")
    n_in, n_out = np.cumsum(np.bincount(group, minlength=3))[:2]
    fmask = _MASK[kind[perm]]

    # Slot by slot: how many faces in that order have it, the cells of its
    # block, and its signs.  The owner rows take the face's entries with
    # sign +, the interior-neighbor rows with sign -; in the columns of m
    # the theta a and a entries take one more sign.  Where m == o, slot 1
    # falls in slot 0's entries.  One key row * n + col per slot and face,
    # and the n diagonal block keys last.
    slots = ((nf, o, o, np.ones(9)),
             (n_out, o, m, _SIGN_M),
             (n_in, nb, o, -np.ones(9)),
             (n_in, nb, nb, -_SIGN_M))
    keys = np.concatenate([row[perm[:c]] * n + col[perm[:c]]
                           for c, row, col, _ in slots]
                          + [np.arange(n) * (n + 1)])
    masks = np.concatenate([fmask[:c] for c, *_ in slots]
                           + [np.full(n, _DIAG, np.int16)])
    # Sorted, each run of equal keys is one block, in CSR order.
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    blk = np.empty(len(keys), np.int32)       # the block of each key
    blk[order] = np.cumsum(first) - 1
    runs = np.nonzero(first)[0]
    bmask = np.bitwise_or.reduceat(masks[order], runs)
    row, col = np.divmod(keys[runs], n)
    del keys, order, first, masks, runs

    # Row 3j + c holds the entries (c, k) of the blocks (j, *), in column
    # order: cnt counts them per block, and start is each block's first.
    cnt = _POP[(bmask >> np.array([[0], [3], [6]])) & 7]
    before = np.cumsum(cnt, axis=1, dtype=np.int32) - cnt
    lead = np.searchsorted(row, np.arange(n))   # every cell has (j, j)
    indptr = np.zeros(3 * n + 1, np.int32)
    np.cumsum(np.add.reduceat(cnt, lead, axis=1).T, out=indptr[1:])
    start = before + (indptr[:-1].reshape(n, 3).T - before[:, lead])[:, row]
    del cnt, before, lead

    def entry(b, e):
        """Data positions of entry e of the blocks b, whose masks hold it."""
        c, k = divmod(e, 3)
        return start[c][b] + _POP[(bmask[b] >> 3 * c) & ((1 << k) - 1)]

    indices = np.empty(indptr[-1], np.int32)
    for e in range(9):
        b = np.nonzero((bmask >> e) & 1)[0]
        indices[entry(b, e)] = 3 * col[b] + e % 3
    diag = np.column_stack([entry(blk[-n:], e) for e in (0, 4, 8)]).ravel()

    # S by column q * nf + f: face f's factors for scalar q, entry by
    # entry, slot by slot; each slot signs the entry's one l w_c w_k / 2.
    nslot = np.array([4, 2, 1])[group]
    ptr = np.zeros(4 * nf + 1, np.int32)
    np.cumsum(_PER_SCALAR[kind].T * nslot, out=ptr[1:])
    data = np.empty(ptr[-1])
    rows = np.empty(ptr[-1], np.int32)
    free = ptr[:-1].copy()                    # each column's next place
    blocks = np.split(blk[:-n], np.cumsum([c for c, *_ in slots[:-1]]))
    w = (nx, ny, np.ones(nf))
    for e in range(9):
        i = np.nonzero(fmask & (1 << e))[0]
        f = perm[i]
        v = 0.5 * mesh.face_length[f] * w[e // 3][f] * w[e % 3][f]
        qf = _SCALAR[e] * nf + f
        at = free[qf]
        free[qf] += nslot[f]
        for s, ((size, *_, sign), b) in enumerate(zip(slots, blocks)):
            j = np.searchsorted(i, size)
            rows[at[:j] + s] = entry(b[i[:j]], e)
            data[at[:j] + s] = sign[e] * v[:j]
        # Slot 1 of a face with m == o adds its factor to slot 0's, as a
        # sum of duplicates would: an entry may cancel to zero.
        j = np.searchsorted(i, n_out)
        data[at[j:]] += _SIGN_M[e] * v[j:]
    S = sp.csc_matrix((data, rows, ptr), shape=(len(indices), 4 * nf))
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

    The outer side of a boundary face carries the unknowns of its cell
    ``mesh.face_outer`` (its owner for the zero-gradient closure, the
    owner of the paired face for a periodic one).  The source terms go to
    b; owner and neighbor both see +s/2 n in the momentum rows.

    The structure of A comes from ``pattern`` (``implicit_pattern`` of the
    same mesh); only its values are computed per call, as
    T * (S d) with the face scalars d = (theta a, 1, a^2, a), plus 1 on the
    diagonal.  b is built from the time-n x^n; the Krylov start is x^n, or
    x^n + dt ``tn.rate`` when the record carries the last step's rate.
    """
    import scipy.sparse as sp

    n = mesh.n_cells
    r = tn.relaxed
    # Frozen time-n impedance, theta and source bracket.
    a, theta, src = tn.fluxes.a, tn.fluxes.theta, tn.fluxes.src

    # T D F: S sums each entry of D F over its faces, and the rows of cell j
    # carry T_j = dt tau_j / |K_j| times that sum.  They are contiguous in
    # data, scaled in place a block of cells at a time: no second
    # nnz-sized array.
    T = dt * r.tau / mesh.area
    data = pattern.S @ np.concatenate([theta * a, np.ones(mesh.n_faces),
                                       a * a, a])
    ends = pattern.indptr[::3]
    for j in range(0, n, 1024):
        k = min(j + 1024, n)
        data[ends[j]:ends[k]] *= np.repeat(T[j:k], np.diff(ends[j:k + 1]))
    data[pattern.diag] += 1.0
    A = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                      shape=(3 * n, 3 * n))

    xn = np.column_stack([r.u, r.pi]).ravel()
    hs = 0.5 * mesh.face_length * src
    nx, ny = mesh.face_normal.T
    wx, wy, wa = nx * hs, ny * hs, a * hs
    b = xn - np.column_stack([T * mesh.cell_sums(wx, wx),
                              T * mesh.cell_sums(wy, wy),
                              -T * mesh.cell_sums(wa)]).ravel()
    x0 = xn if tn.rate is None else xn + dt * tn.rate
    return LinearSystem(A=A, b=b, x0=x0)


def _bicgstab(A, b, x, atol, max_iter):
    """BiCGSTAB (van der Vorst 1992) on ``x`` in place, in the order of
    scipy's ``bicgstab``, until the updated residual norm is at most
    ``atol`` (also after the half step).  A breakdown (rho, rhat.v, t.t or
    omega of zero) ends it early with x finite.  Returns the iterations
    taken, a half step counted as one."""
    r = b - A @ x
    rhat = r.copy()
    p = r.copy()
    w = np.empty_like(r)
    for it in range(max_iter):
        if np.linalg.norm(r) <= atol:
            return it
        rho = np.dot(rhat, r)
        if rho == 0.0:
            return it
        if it > 0:
            # p = r + beta (p - omega v); v is not read again
            v *= omega
            p -= v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        v = A @ p
        rv = np.dot(rhat, v)
        if rv == 0.0:
            return it
        alpha = rho / rv
        r -= np.multiply(alpha, v, out=w)     # r is s from here on
        x += np.multiply(alpha, p, out=w)
        if np.linalg.norm(r) <= atol:
            return it + 1
        t = A @ r
        tt = np.dot(t, t)
        omega = np.dot(t, r) / tt if tt else 0.0
        if omega == 0.0:
            return it + 1
        x += np.multiply(omega, r, out=w)
        r -= np.multiply(omega, t, out=t)
        rho_prev = rho
    return max_iter


def solve_implicit(system: LinearSystem, tol, max_iter=500):
    """Solve the implicit system to the residual contract
    ||Ax - b|| <= tol * ||b||.

    BiCGSTAB starts from ``system.x0`` and runs at most ``max_iter``
    iterations per attempt.  Its recursively updated residual can pass
    while the true one misses, and a breakdown stops it, so the true
    residual is checked and the iteration restarted from the last iterate
    at most twice.  The iterations and the true relative residual are set
    on ``system``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    A, b = system.A, system.b
    b_norm = max(np.linalg.norm(b), 1e-300)
    bound = tol * b_norm
    x = system.x0.copy()
    system.iterations = 0
    for _ in range(3):
        system.iterations += _bicgstab(A, b, x, bound, max_iter)
        res = np.linalg.norm(A @ x - b)
        system.residual = res / b_norm
        if res <= bound:
            xr = x.reshape(-1, 3)
            return xr[:, 0:2].copy(), xr[:, 2].copy()
    raise SolverError(
        f"implicit acoustic solve missed tolerance: "
        f"residual {res:.3e} > {tol:.1e} * ||b||", residual=res)


def implicit_acoustic(tn: TimeLevel, mesh, p: Params, dt,
                      pattern: ImplicitPattern) -> AcousticResult:
    """Implicit acoustic step: assemble, solve, back-substitute tau and
    evaluate the sharp-level face fluxes with the time-n a, theta and src
    frozen.  ``pattern`` is handed to ``assemble_implicit``."""
    r = tn.relaxed
    system = assemble_implicit(tn, mesh, dt, pattern)
    u1, pi1 = solve_implicit(system, p.solver_tol, p.solver_maxiter)

    rate = np.column_stack([u1 - r.u, pi1 - r.pi]).ravel()
    rate /= dt

    fluxes = evaluate_face_fluxes(mesh, u1, pi1, None, None, p,
                                  frozen=tn.fluxes)
    tau1, force = np.empty(mesh.n_cells), np.empty((mesh.n_cells, 2))
    map_parts(_tau_force, mesh.parts, mesh, r.tau, dt, fluxes, tau1, force)
    return AcousticResult(RelaxedField(tau1, u1, pi1), fluxes.u_star, force,
                          rate)
