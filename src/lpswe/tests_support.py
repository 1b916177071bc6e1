# tests_support.py

"""Cross-check oracles comparing algebraically equivalent formulations.

Each function returns the worst relative mismatch it observed; the
verification suite asserts these stay at roundoff level.
"""

import numpy as np

from . import mesh as meshmod
from .acoustic import (assemble_implicit, explicit_acoustic,
                       implicit_pattern, solve_implicit)
from .driver import (BoundaryCondition, advance, dt_exex, prepare_state,
                     time_level)
from .fields import Params, Topography
from .reference1d import State1D, step1d
from .scenarios import bump_topography, dam_break
from .transport import combined_update, transport


def _rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def combined_vs_two_step():
    """Single-loop conservative update against acoustic-then-transport
    composition, on a triangulated dam break over the bump."""
    p = Params(scheme="EXEX")
    mesh = meshmod.build_triangulated(12, 12)
    z = bump_topography(mesh.centroid[:, 0])
    ic = dam_break(mesh.centroid[:, 0], z)
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)

    n = mesh.n_cells
    worst = 0.0
    for _ in range(5):
        tn = time_level(state)
        dt = dt_exex(mesh, tn.relaxed.tau, tn.fluxes, p, 1e-3)
        ac = explicit_acoustic(tn, mesh, dt, state.donor)
        two = transport(ac.relaxed, ac.fluxes, mesh, dt)
        one = combined_update(state.conserved, ac, mesh, dt)
        worst = max(worst, _rel(one.h[:n], two.h[:n]),
                    _rel(one.hu[:n], two.hu[:n]))
        state.conserved = one
        state.step += 1
    return worst


def strip_vs_1d(scheme="EXEX", n_steps=5, nx=40, dt=2e-4):
    """nx-by-1 strip with periodic y against the stand-alone 1D solver.

    Both advance with the same prescribed dt (their dt formulas differ by
    the perimeter ratio of the strip cells): the 2D step takes
    min(its own dt, dt), which is dt here."""
    p = Params(scheme=scheme)
    mesh = meshmod.build_cartesian(nx, 1)
    xc = mesh.centroid[:, 0]
    z = bump_topography(xc)
    ic2 = dam_break(xc, z)
    bc = BoundaryCondition(left="neumann", right="neumann",
                           bottom="periodic", top="periodic")
    state = prepare_state(mesh, Topography(z), ic2, bc, p)

    s1 = State1D(1.0 / nx, ic2.h.copy(), np.zeros(nx), np.zeros(nx), z.copy())

    worst = 0.0
    for _ in range(n_steps):
        advance(state, dt, dt)
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
    state = prepare_state(mesh, Topography(z), ic, BoundaryCondition(), p)
    system = assemble_implicit(time_level(state), mesh, dt,
                               implicit_pattern(mesh, state.donor))
    u_sp, pi_sp = solve_implicit(system, p.solver_tol, p.solver_maxiter)
    x = np.linalg.solve(system.A.toarray(), system.b)
    n = mesh.n_cells
    xr = x.reshape(n, 3)
    return max(_rel(u_sp, xr[:, 0:2]), _rel(pi_sp, xr[:, 2]))
