"""Finite-volume shallow water solver on unstructured polygonal meshes.

First-order well-balanced scheme built from an acoustic (Lagrangian) step
and an upwind transport step, with explicit (EXEX) and implicit-acoustic
(IMEX) time stepping and a low-Froude pressure-flux correction.
"""

import os

# One BLAS/OpenMP thread unless the user chose otherwise: the implicit
# solve's short vector operations slow down many times over when OpenBLAS
# spreads them across threads on a busy machine.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .driver import BoundaryCondition, RunReport, RunState, advance, run, run_steps
from .exceptions import (CFLError, ConfigError, LpsweError, MeshFormatError,
                         PositivityError, SolverError)
from .fields import ConservedField, Params, RelaxedField, Topography
from .mesh import Mesh, build_cartesian, build_triangulated, read_mesh, write_mesh
from .scenarios import Scenario, get_scenario

__version__ = "1.0.0"

__all__ = [
    "BoundaryCondition", "RunReport", "RunState", "advance", "run",
    "run_steps", "CFLError", "ConfigError", "LpsweError", "MeshFormatError",
    "PositivityError", "SolverError", "ConservedField", "Params",
    "RelaxedField", "Topography", "Mesh", "build_cartesian",
    "build_triangulated", "read_mesh", "write_mesh", "Scenario",
    "get_scenario", "__version__",
]
