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
from .mesh import map_parts

# Largest transport CFL fraction the update accepts (1 up to roundoff).
TRANSPORT_CFL_LIMIT = 1.0 + 1e-12


def transport_cfl_fraction(mesh, u_star, dt):
    """dt * max_j sum_{k: u_jk < 0} sigma_jk |u_jk| of the interface
    velocities ``u_star``; must be <= 1."""
    n = mesh.n_cells
    l = mesh.face_length
    # Inflow for the owner when u_star < 0; for the neighbor when u_star > 0.
    w_o = np.where(u_star < 0.0, l * np.abs(u_star), 0.0)
    w_n = np.where(u_star > 0.0, l * np.abs(u_star), 0.0)
    acc = mesh.cell_sums(w_o, w_n) / mesh.area
    return dt * acc.max() if n else 0.0


def _upwind(mesh, u_star, phi):
    """Face value of phi upwinded w.r.t. the owner-frame u_star
    (owner value when u_star >= 0, outer value otherwise)."""
    return np.where(u_star >= 0.0,
                    phi[mesh.face_owner], phi[mesh.face_outer])


def _check_cfl(mesh, u_star, dt, cfl_bound=None):
    """Raise CFLError when the transport CFL fraction is over the limit;
    the exact fraction is computed unless ``cfl_bound``, a known upper
    bound of it, is within the limit."""
    if cfl_bound is not None and cfl_bound <= TRANSPORT_CFL_LIMIT:
        return
    frac = transport_cfl_fraction(mesh, u_star, dt)
    if frac > TRANSPORT_CFL_LIMIT:
        raise CFLError(
            f"transport CFL violated: dt*max inflow sum = {frac:.3e} > 1")


def _check_h_positive(h, first=0):
    """Raise PositivityError for the lowest entry of ``h`` <= 0, whose cell
    is ``first`` plus its index."""
    bad = np.nonzero(h <= 0.0)[0]
    if bad.size:
        j = first + int(bad[0])
        raise PositivityError(
            f"transport produced h <= 0 in cell {j}", cell=j)


def transport(relaxed_1: RelaxedField, u_star, mesh, dt) -> ConservedField:
    """Upwind transport of (h, hu) built from the acoustic output:
    phi^{n+1} = L_j phi_j^{n+1-} - dt sum sigma_jk u_jk phi_face, with
    L_j = 1 + dt sum sigma_jk u_jk."""
    _check_cfl(mesh, u_star, dt)
    h1 = 1.0 / relaxed_1.tau
    hu1 = relaxed_1.u * h1[:, None]

    lu = mesh.face_length * u_star
    L = 1.0 + dt * mesh.cell_sums(lu) / mesh.area
    if np.any(L < 0.0):
        raise CFLError("transport convexity factor L_j became negative")

    out_h, out_hu1, out_hu2 = (
        L * phi - dt * (mesh.cell_sums(lu * _upwind(mesh, u_star, phi))
                        / mesh.area)
        for phi in (h1, hu1[:, 0], hu1[:, 1]))
    _check_h_positive(out_h)
    return ConservedField(out_h, np.column_stack([out_hu1, out_hu2]))


def combined_update(c_n: ConservedField, acoustic: AcousticResult, mesh,
                    dt, cfl_bound=None) -> ConservedField:
    """Single-loop conservative update from time n:
    h^{n+1} = h^n - dt sum sigma h_face u_star;
    hu^{n+1} = hu^n - dt (sum sigma hu_face u_star + force), with the
    pressure force sum sigma Pi_face n of the acoustic step, part by part
    (``mesh.parts``, through ``map_parts``).

    ``cfl_bound`` is a known upper bound of the transport CFL fraction (or
    the fraction itself); the exact fraction is computed only when it is
    not given or over the limit.
    """
    _check_cfl(mesh, acoustic.u_star, dt, cfl_bound)
    n = mesh.n_cells
    out = ConservedField(np.empty(n), np.empty((n, 2)))
    map_parts(_update_part, mesh.parts, mesh, c_n, acoustic, dt, out)
    return out


def _update_part(part, mesh, c_n, acoustic, dt, out):
    """``combined_update`` on the cells of ``part``, into ``out``."""
    cells, span = part.cells, part.span
    u_star, r1 = acoustic.u_star[span], acoustic.relaxed
    # h = 1/tau and hu = u h of the upwind cell of each face (w.r.t. the
    # owner-frame u_star), gathered once.
    lu = mesh.face_length[span] * u_star
    up = np.where(u_star >= 0.0, mesh.face_owner[span],
                  mesh.face_outer[span])
    h_up = r1.tau[up]
    np.divide(1.0, h_up, out=h_up)
    area = mesh.area[cells]
    h = np.subtract(c_n.h[cells], dt * (part.sums(lu * h_up) / area),
                    out=out.h[cells])
    for d in (0, 1):
        f = r1.u[:, d][up]
        f *= h_up
        f *= lu
        dm = part.sums(f) / area
        np.subtract(c_n.hu[cells, d], dt * (dm + acoustic.force[cells, d]),
                    out=out.hu[cells, d])
    _check_h_positive(h, cells.start)
