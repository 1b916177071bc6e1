# tests_support.py

"""Cross-check oracles comparing algebraically equivalent formulations.

Each function returns the worst relative mismatch it observed; the
verification suite asserts these stay at roundoff level.
"""

import numpy as np

from . import mesh as meshmod
from .acoustic import (explicit_acoustic, implicit_acoustic, solve_implicit,
                       assemble_implicit)
from .driver import (BoundaryCondition, apply_bc, prepare_state)
from .fields import to_relaxed
from .fields import Params
from .flux_kernels import evaluate_face_fluxes
from .reference1d import State1D, step1d
from .scenarios import bump_topography, dam_break
from .transport import combined_update, transport


def _rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def _step_fixed_dt(state, dt):
    """One step of the 2D scheme at a prescribed dt (the driver normally
    chooses dt itself)."""
    mesh, p = state.mesh, state.params
    apply_bc(state.conserved, mesh, state.donor)
    relaxed = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    h_n = state.conserved.h
    fluxes_n = evaluate_face_fluxes(mesh, relaxed.u, relaxed.pi, h_n,
                                    state.topo.z, p)
    if p.scheme == "EXEX":
        ac = explicit_acoustic(relaxed, mesh, state.topo, p, dt,
                               fluxes=fluxes_n, h_n=h_n, donor=state.donor)
    else:
        ac = implicit_acoustic(relaxed, mesh, state.topo, p, dt,
                               state.donor, fluxes_n=fluxes_n, h_n=h_n)
    state.conserved = combined_update(state.conserved, ac, mesh, p, dt)
    return ac


def combined_vs_two_step():
    """Single-loop conservative update against acoustic-then-transport
    composition, on a triangulated dam break over the bump."""
    p = Params(scheme="EXEX")
    mesh = meshmod.build_triangulated(12, 12)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    from .fields import Topography
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)

    worst = 0.0
    for _ in range(5):
        mesh_ = state.mesh
        apply_bc(state.conserved, mesh_, state.donor)
        relaxed = to_relaxed(state.conserved, p, n_interior=mesh_.n_cells)
        h_n = state.conserved.h
        fluxes_n = evaluate_face_fluxes(mesh_, relaxed.u, relaxed.pi, h_n,
                                        state.topo.z, p)
        from .driver import dt_exex
        dt = dt_exex(mesh_, relaxed.tau, fluxes_n, p, 1e-3)
        ac = explicit_acoustic(relaxed, mesh_, state.topo, p, dt,
                               fluxes=fluxes_n, h_n=h_n, donor=state.donor)
        two = transport(ac.relaxed, ac.fluxes, mesh_, p, dt)
        one = combined_update(state.conserved, ac, mesh_, p, dt)
        n = mesh_.n_cells
        worst = max(worst, _rel(one.h[:n], two.h[:n]),
                    _rel(one.hu[:n], two.hu[:n]))
        state.conserved = one
        state.step += 1
    return worst


def strip_vs_1d(scheme="EXEX", n_steps=5, nx=40, dt=2e-4):
    """nx-by-1 strip with periodic y against the stand-alone 1D solver.

    Both advance with the same prescribed dt (their dt formulas differ by
    the perimeter ratio of the strip cells)."""
    p = Params(scheme=scheme)
    mesh = meshmod.build_cartesian(nx, 1)
    xc = mesh.centroid[:, 0]
    z = bump_topography(xc)
    ic2 = dam_break(xc, z)
    from .fields import Topography
    bc = BoundaryCondition(left="neumann", right="neumann",
                           bottom="periodic", top="periodic")
    state = prepare_state(mesh, Topography(z), ic2, bc, p)

    s1 = State1D(1.0 / nx, ic2.h.copy(), np.zeros(nx), np.zeros(nx), z.copy())

    worst = 0.0
    for _ in range(n_steps):
        _step_fixed_dt(state, dt)
        s1 = step1d(s1, p, dt)
        h2 = state.conserved.h[:nx]
        hu2 = state.conserved.hu[:nx]
        worst = max(worst,
                    _rel(h2, s1.h),
                    _rel(hu2[:, 0], s1.h * s1.u1),
                    _rel(hu2[:, 1], s1.h * s1.u2))
    return worst


def implicit_vs_dense(nx=3, ny=3, dt=5e-4):
    """Krylov implicit acoustic solve against a dense reference solve of
    the same assembled matrix, on a tiny mesh."""
    p = Params(scheme="IMEX")
    mesh = meshmod.build_cartesian(nx, ny)
    xc = mesh.centroid[:, 0]
    z = bump_topography(xc)
    ic = dam_break(xc, z)
    from .fields import Topography
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    apply_bc(state.conserved, mesh, state.donor)
    relaxed = to_relaxed(state.conserved, p, n_interior=mesh.n_cells)
    h_n = state.conserved.h
    fluxes_n = evaluate_face_fluxes(mesh, relaxed.u, relaxed.pi, h_n,
                                    state.topo.z, p)
    system = assemble_implicit(relaxed, mesh, state.topo, p, dt,
                               state.donor, fluxes_n=fluxes_n, h_n=h_n)
    u_sp, pi_sp = solve_implicit(system, p.solver_tol, p.solver_maxiter)
    x = np.linalg.solve(system.A.toarray(), system.b)
    n = mesh.n_cells
    xr = x.reshape(n, 3)
    return max(_rel(u_sp, xr[:, 0:2]), _rel(pi_sp, xr[:, 2]))
