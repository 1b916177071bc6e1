# driver.py

"""Run orchestration: boundary conditions as the cell each face reads on
its outer side, time-step formulas, the per-step sequence (time-n record
with Pi re-initialized, acoustic, combined update) and diagnostics."""

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import mesh as meshmod
from .acoustic import (ImplicitPattern, TimeLevel, explicit_acoustic,
                       implicit_acoustic, implicit_pattern)
from .exceptions import CFLError, ConfigError, LpsweError, PositivityError
from .fields import ConservedField, Params, Topography, to_relaxed
from .flux_kernels import evaluate_face_fluxes
from .mesh import map_parts
from .transport import combined_update, transport_cfl_fraction


@dataclass
class BoundaryCondition:
    """Boundary kinds per rectangle side.

    neumann is zero-gradient (a boundary face reads its own owner), and
    absorbing is accepted as an alias for it; periodic pairs each boundary
    face with the face across the domain, whose owner it reads (both sides
    of the axis must be periodic).
    """

    left: str = "neumann"
    right: str = "neumann"
    bottom: str = "neumann"
    top: str = "neumann"

    _KINDS = ("neumann", "periodic")

    def __post_init__(self):
        for side in ("left", "right", "bottom", "top"):
            kind = getattr(self, side)
            kind = "neumann" if kind == "absorbing" else kind
            if kind not in self._KINDS:
                raise ConfigError(f"unknown boundary kind {kind!r}")
            setattr(self, side, kind)
        if (self.left == "periodic") != (self.right == "periodic"):
            raise ConfigError("periodic-x requires both left and right")
        if (self.bottom == "periodic") != (self.top == "periodic"):
            raise ConfigError("periodic-y requires both bottom and top")

    @classmethod
    def periodic_x(cls, y_kind="neumann"):
        return cls(left="periodic", right="periodic",
                   bottom=y_kind, top=y_kind)

    @classmethod
    def periodic_all(cls):
        return cls(*["periodic"] * 4)


def apply_bc(mesh, bc: BoundaryCondition):
    """``mesh`` bound to the boundary conditions ``bc``.

    A built mesh already carries the zero-gradient closure in
    ``face_outer``, so with no periodic side ``mesh`` itself is returned.
    Otherwise the result is a copy whose ``face_outer`` makes each periodic
    boundary face read the owner of the paired face on the opposite side.
    """
    if "periodic" not in (bc.left, bc.bottom):
        return mesh
    sides = mesh.boundary_sides()
    bf = mesh.boundary_faces
    outer = mesh.face_outer.copy()

    def pair(side_a, side_b, coord):
        fa = bf[sides == side_a]
        fb = bf[sides == side_b]
        if len(fa) != len(fb):
            raise ConfigError(
                f"periodic boundary has {len(fa)} faces on one side and "
                f"{len(fb)} on the other")
        fa = fa[np.argsort(mesh.face_midpoint[fa, coord], kind="stable")]
        fb = fb[np.argsort(mesh.face_midpoint[fb, coord], kind="stable")]
        scale = max(mesh.bbox[1] - mesh.bbox[0], mesh.bbox[3] - mesh.bbox[2])
        if (np.any(np.abs(mesh.face_midpoint[fa, coord]
                          - mesh.face_midpoint[fb, coord]) > 1e-9 * scale)
                or np.any(np.abs(mesh.face_length[fa]
                                 - mesh.face_length[fb]) > 1e-12 * scale)
                or np.any(np.abs(mesh.face_normal[fa]
                                 + mesh.face_normal[fb]) > 1e-12)):
            raise ConfigError("periodic faces do not pair up "
                              "(lengths/positions/normals mismatch)")
        outer[fa] = mesh.face_owner[fb]
        outer[fb] = mesh.face_owner[fa]

    if bc.left == "periodic":
        pair(meshmod.LEFT, meshmod.RIGHT, 1)
    if bc.bottom == "periodic":
        pair(meshmod.BOTTOM, meshmod.TOP, 0)

    # Sanity check: every face reads a cell.
    if np.any(outer < 0) or np.any(outer >= mesh.n_cells):
        raise ConfigError("internal error: a face has no outer cell")
    return replace(mesh, face_outer=outer)


def _speed_max(mesh, u_star, tau=None, a=None):
    """The time-step denominator max_j(perimeter_ratio_j max_k max(tau_j a,
    |u*|)) over the faces k of cell j (|u*| only when ``tau`` is None), as
    one max over both sides of every face, ratio 0 on the outer side of a
    boundary face: the per-cell max bit for bit, since rounding is
    monotone.  Each of ``mesh.parts`` takes the max over its own faces."""
    return max(map_parts(_speed_max_part, mesh.parts, mesh, mesh.side_ratio,
                         u_star, tau, a))


def _speed_max_part(part, mesh, side_ratio, u_star, tau, a):
    """``_speed_max`` over the faces of ``part``."""
    f = part.faces
    r_o, r_nb = side_ratio[0][f], side_ratio[1][f]
    vt = np.abs(u_star[f])
    if tau is None:
        return np.max(np.maximum(r_o, r_nb) * vt)
    return max(np.max(np.maximum(tau[cells[f]] * a[f], vt) * r)
               for cells, r in ((mesh.face_owner, r_o),
                                (mesh.face_outer, r_nb)))


def _cfl_dt(denom, p: Params, dt_max):
    return dt_max if denom <= 0.0 else min(p.k_cfl / (2.0 * denom), dt_max)


def dt_exex(mesh, tau, fluxes, p: Params, dt_max):
    """Explicit time step K_CFL / (2 max_j(ratio_j max_k max(tau_j a, |u|)))
    evaluated from the time-n fluxes, clamped to dt_max."""
    return _cfl_dt(_speed_max(mesh, fluxes.u_star, tau, fluxes.a), p,
                   dt_max)


def dt_imex(mesh, u_star, p: Params, dt_max):
    """IMEX time step: constrained by the transport speeds |u_star| only."""
    return _cfl_dt(_speed_max(mesh, u_star), p, dt_max)


@dataclass
class RunState:
    """Mutable state of an ongoing run; ``mesh`` is bound to the run's
    boundary conditions (``apply_bc``)."""

    conserved: ConservedField
    topo: Topography
    mesh: object
    params: Params
    t: float = 0.0
    step: int = 0
    next_dt: Optional[float] = None   # lagged dt for IMEX
    # Sparsity of the implicit system, built on the first IMEX attempt.
    pattern: Optional[ImplicitPattern] = None
    # The last accepted implicit solve's rate (TimeLevel.rate).
    rate: Optional[np.ndarray] = None


@dataclass
class RunReport:
    steps: int
    wall_time: float
    dt_history: List[float]
    mass_history: List[float]   # interior mass at t = 0, then per step
    max_froude: float
    final: ConservedField
    t_final: float
    mesh_parts: int = 1         # len(Mesh.parts) of the run's mesh
    threads: int = 1            # the threads the parts ran on


def time_level(state: RunState) -> TimeLevel:
    """The time-n record a step starts from: Pi re-initialized at
    equilibrium, the face fluxes, and the last accepted implicit solve's
    rate."""
    p = state.params
    relaxed = to_relaxed(state.conserved, p, state.mesh.parts)
    fluxes = evaluate_face_fluxes(state.mesh, relaxed.u, relaxed.pi,
                                  state.conserved.h, state.topo.dz, p)
    return TimeLevel(relaxed, fluxes, state.rate)


def advance(state: RunState, t_remaining: float, dt_max: float) -> float:
    """One full step: time-n record, acoustic, combined update.

    Returns the dt actually taken (truncated to t_remaining)."""
    mesh = state.mesh
    p = state.params
    tn = time_level(state)
    if p.scheme == "EXEX":
        dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, dt_max)
        dt = min(dt, t_remaining)
        # dt_exex keeps dt * D <= k_cfl / 2 for its denominator D, and
        # dt * D bounds both the acoustic and the transport CFL fraction
        # (tests/test_cfl_bound.py), so neither is recomputed.  The
        # combined update does not read the acoustic step's Pi.
        cfl_bound = 0.5 * p.k_cfl
        ac = explicit_acoustic(tn, mesh, dt, cfl_bound=cfl_bound,
                               update_pi=False)
    else:
        if state.next_dt is None:
            state.next_dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p,
                                    dt_max)
        dt = min(state.next_dt, t_remaining)
        if state.pattern is None:
            state.pattern = implicit_pattern(mesh)
        # Lagged-dt policy: the previous step's transport speeds sized this
        # dt.  During fast transients the new speeds can overshoot it, so
        # the step is rejected and re-solved at a smaller dt until the
        # transport CFL holds (positivity requires it).
        n_pos = 0
        for _ in range(20):
            tried, frac = dt, math.nan    # nan: positivity rejected it
            try:
                ac = implicit_acoustic(tn, mesh, p, dt, pattern=state.pattern)
            except PositivityError as exc:
                n_pos += 1
                dt = min(0.5 * dt, exc.suggested_dt or 0.5 * dt)
                continue
            frac = transport_cfl_fraction(mesh, ac.u_star, dt)
            if frac <= 1.0:
                break
            dt = p.k_cfl * dt / frac
        else:
            raise CFLError(
                f"IMEX step rejected repeatedly: last attempt dt = "
                f"{tried:.3e}, transport CFL fraction {frac:.3e}; "
                f"{20 - n_pos} attempts failed on the transport CFL, "
                f"{n_pos} on positivity")
        cfl_bound = frac
        state.rate = ac.rate
        state.next_dt = dt_imex(mesh, ac.u_star, p, dt_max)
    # The update reads only ac: freeing the time-n record here lowers the
    # step's peak by its relaxed state and its face fluxes.
    del tn
    state.conserved = combined_update(state.conserved, ac, mesh, dt,
                                      cfl_bound=cfl_bound)
    state.t += dt
    state.step += 1
    return dt


def prepare_state(mesh, topo: Topography, initial: ConservedField,
                  bc: BoundaryCondition, p: Params) -> RunState:
    """The state at t = 0: ``mesh`` bound to ``bc`` (``apply_bc``), and the
    face bottom jump of that binding.  A topography's own jump is kept when
    it is this binding's: bindings differ on the boundary faces only.
    ``initial`` is held, not copied: no step writes into its arrays."""
    mesh = apply_bc(mesh, bc)
    z, dz, bf = topo.z, topo.dz, mesh.boundary_faces
    if (dz is None or len(dz) != mesh.n_faces or not np.array_equal(
            dz[bf], z[mesh.face_outer[bf]] - z[mesh.face_owner[bf]])):
        topo = Topography(z, dz=z[mesh.face_outer] - z[mesh.face_owner])
    return RunState(conserved=initial, topo=topo, mesh=mesh, params=p)


def run_steps(mesh, topo: Topography, initial: ConservedField,
              bc: BoundaryCondition, p: Params, n_steps: int,
              dt_max: float) -> RunState:
    """Advance a fixed number of steps with the scheme's own dt formula."""
    state = prepare_state(mesh, topo, initial, bc, p)
    for _ in range(n_steps):
        advance(state, np.inf, dt_max)
    return state


def run(mesh, topo: Topography, initial: ConservedField,
        bc: BoundaryCondition, p: Params, t_final: float,
        callback=None, max_steps=10_000_000) -> RunReport:
    """Advance from t=0 to t_final and collect diagnostics.

    ``callback(state, dt)`` runs after every step when given.
    """
    state = prepare_state(mesh, topo, initial, bc, p)
    dt_max = p.dt_max if p.dt_max is not None else max(t_final, 1e-300) / 10.0

    dts, masses = [], [float(np.sum(mesh.area * state.conserved.h))]
    # Max over steps and cells of |hu|^2 / h^3 = g Fr^2, one sqrt at the end.
    max_fr2 = 0.0
    t0 = time.perf_counter()
    while state.t < t_final * (1.0 - 1e-14) and t_final > 0.0:
        if state.step >= max_steps:
            raise LpsweError(f"exceeded {max_steps} steps at t={state.t}")
        try:
            dt = advance(state, t_final - state.t, dt_max)
        except LpsweError as exc:
            # Prefix the step in place, keeping the type and its payload.
            exc.args = (f"step {state.step}: {exc}",) + exc.args[1:]
            raise
        dts.append(dt)
        h, hu = state.conserved.h, state.conserved.hu
        masses.append(float(np.sum(mesh.area * h)))
        max_fr2 = max(max_fr2, float(np.max(
            np.einsum("ij,ij->i", hu, hu) / (h * h * h))))
        if callback is not None:
            callback(state, dt)
    wall = time.perf_counter() - t0
    parts = len(state.mesh.parts)
    return RunReport(steps=state.step, wall_time=wall, dt_history=dts,
                     mass_history=masses,
                     max_froude=math.sqrt(max_fr2 / p.g),
                     final=state.conserved, t_final=state.t,
                     mesh_parts=parts, threads=min(parts, meshmod.WORKERS))
