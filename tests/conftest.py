import os

# One BLAS/OpenMP thread unless set explicitly, as the lpswe package does;
# here it also holds when a test module imports numpy before lpswe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from lpswe import mesh as meshmod  # noqa: E402

# Unit square: a convex pentagon in the middle, ringed by quads and
# triangles; the boundary vertices sit at 0, 1/2 and 1 on every side, so
# the boundary faces pair up for periodic conditions.
MIXED_SWMESH = """SWMESH 1
13 11
0 0
0.5 0
1 0
1 0.5
1 1
0.5 1
0 1
0 0.5
0.5 0.15
0.8 0.4
0.65 0.8
0.35 0.8
0.2 0.4
5 8 9 10 11 12
4 0 1 8 12
3 1 2 9
3 1 9 8
3 2 3 9
4 3 4 10 9
3 4 5 10
3 5 11 10
3 5 6 11
4 6 7 12 11
3 7 0 12
"""


@pytest.fixture(scope="session")
def mixed_mesh(tmp_path_factory):
    """The mesh of MIXED_SWMESH (7 triangles, 3 quads, 1 pentagon), read
    from a SWMESH file."""
    path = tmp_path_factory.mktemp("mesh") / "mixed.swmesh"
    path.write_text(MIXED_SWMESH)
    return meshmod.read_mesh(path)
