# transport.py

"""Transport step (upwind) and the combined conservative update.

The combined update is the production path: it advances (h, hu) from time n
in a single flux loop.  The two-step form (acoustic state then upwind
transport) is algebraically identical and is kept as a test oracle.
"""

import numpy as np

from .acoustic import AcousticResult
from .exceptions import CFLError, PositivityError
from .fields import ConservedField, RelaxedField
from .flux_kernels import FaceFlux

# Largest transport CFL fraction the update accepts (1 up to roundoff).
TRANSPORT_CFL_LIMIT = 1.0 + 1e-12


def transport_cfl_fraction(mesh, fluxes: FaceFlux, dt):
    """dt * max_j sum_{k: u_jk < 0} sigma_jk |u_jk|; must be <= 1."""
    n = mesh.n_cells
    u = fluxes.u_star
    l = mesh.face_length
    # Inflow for the owner when u_star < 0; for the neighbor when u_star > 0.
    w_o = np.where(u < 0.0, l * np.abs(u), 0.0)
    w_n = np.where(u > 0.0, l * np.abs(u), 0.0)
    acc = mesh.cell_sums(w_o, w_n) / mesh.area
    return dt * acc.max() if n else 0.0


def _upwind(mesh, fluxes, phi):
    """Face value of phi upwinded w.r.t. the owner-frame u_star
    (owner value when u_star >= 0)."""
    return np.where(fluxes.u_star >= 0.0,
                    phi[mesh.face_owner], phi[mesh.face_neighbor])


def _check_cfl(mesh, fluxes, dt, cfl_bound=None):
    """Raise CFLError when the transport CFL fraction is over the limit;
    the exact fraction is computed unless ``cfl_bound``, a known upper
    bound of it, is within the limit."""
    if cfl_bound is not None and cfl_bound <= TRANSPORT_CFL_LIMIT:
        return
    frac = transport_cfl_fraction(mesh, fluxes, dt)
    if frac > TRANSPORT_CFL_LIMIT:
        raise CFLError(
            f"transport CFL violated: dt*max inflow sum = {frac:.3e} > 1")


def _check_h_positive(h, n):
    bad = np.nonzero(h[:n] <= 0.0)[0]
    if bad.size:
        j = int(bad[0])
        raise PositivityError(
            f"transport produced h <= 0 in cell {j}", cell=j)


def transport(relaxed_1: RelaxedField, fluxes: FaceFlux, mesh,
              dt) -> ConservedField:
    """Upwind transport of (h, hu) built from the acoustic output:
    phi^{n+1} = L_j phi_j^{n+1-} - dt sum sigma_jk u_jk phi_face, with
    L_j = 1 + dt sum sigma_jk u_jk."""
    _check_cfl(mesh, fluxes, dt)
    n = mesh.n_cells
    h1 = 1.0 / relaxed_1.tau
    hu1 = relaxed_1.u * h1[:, None]

    lu = mesh.face_length * fluxes.u_star
    L = 1.0 + dt * mesh.cell_sums(lu) / mesh.area
    if np.any(L < 0.0):
        raise CFLError("transport convexity factor L_j became negative")

    out_h = h1.copy()
    out_hu = hu1.copy()
    for phi, out, col in ((h1, out_h, None),
                          (hu1[:, 0], out_hu, 0),
                          (hu1[:, 1], out_hu, 1)):
        pf = _upwind(mesh, fluxes, phi)
        flux_sum = mesh.cell_sums(lu * pf) / mesh.area
        new = L * phi[:n] - dt * flux_sum
        if col is None:
            out[:n] = new
        else:
            out[:n, col] = new
    _check_h_positive(out_h, n)
    return ConservedField(out_h, out_hu)


def combined_update(c_n: ConservedField, acoustic: AcousticResult, mesh,
                    dt, cfl_bound=None) -> ConservedField:
    """Single-loop conservative update from time n:
    h^{n+1} = h^n - dt sum sigma h_face u_star;
    hu^{n+1} = hu^n - dt (sum sigma hu_face u_star + force), with the
    pressure force sum sigma Pi_face n of the acoustic step.

    ``cfl_bound`` is a known upper bound of the transport CFL fraction (or
    the fraction itself); the exact fraction is computed only when it is
    not given or over the limit.
    """
    fluxes = acoustic.fluxes
    _check_cfl(mesh, fluxes, dt, cfl_bound)
    n = mesh.n_cells
    r1 = acoustic.relaxed
    h1 = 1.0 / r1.tau

    # h and hu = u h of the upwind cell of each face (w.r.t. the
    # owner-frame u_star), gathered once.
    lu = mesh.face_length * fluxes.u_star
    up = np.where(fluxes.u_star >= 0.0, mesh.face_owner, mesh.face_neighbor)
    h_up = h1[up]
    out_h = c_n.h.copy()
    out_hu = c_n.hu.copy()
    out_h[:n] -= dt * (mesh.cell_sums(lu * h_up) / mesh.area)
    for d in (0, 1):
        f = r1.u[:, d][up]
        f *= h_up
        f *= lu
        dm = mesh.cell_sums(f) / mesh.area
        out_hu[:n, d] -= dt * (dm + acoustic.force[:, d])
    _check_h_positive(out_h, n)
    return ConservedField(out_h, out_hu)
