# mesh.py

"""Unstructured polygonal meshes: cells, faces, normals, ghost indexing.

Faces are stored once.  The stored normal points from the owner cell to the
neighbor; the neighbor sees the same face with the opposite normal.  Every
boundary face gets one ghost cell, indexed after the interior cells, so that
flux kernels never special-case the boundary.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import MeshFormatError

# Boundary side tags for rectangular domains.
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3
SIDE_NAMES = ("left", "right", "bottom", "top")


@dataclass
class Mesh:
    """Polygonal mesh with ghost cells behind every boundary face.

    Cell indices 0..n_cells-1 are interior; n_cells..n_cells+n_ghost-1 are
    ghost cells, one per boundary face in the order of ``boundary_faces``.
    """

    vertices: np.ndarray            # (nv, 2)
    cell_offsets: np.ndarray        # (n_cells + 1,) CSR row starts
    cell_vertex_ids: np.ndarray     # ccw vertex ids of cell j at
                                    # cell_offsets[j]:cell_offsets[j + 1]
    area: np.ndarray                # (n_cells,)
    centroid: np.ndarray            # (n_cells, 2)
    face_owner: np.ndarray          # (nf,)
    face_neighbor: np.ndarray       # (nf,) interior id or ghost id >= n_cells
    face_normal: np.ndarray         # (nf, 2), unit, owner -> neighbor
    face_length: np.ndarray         # (nf,)
    face_midpoint: np.ndarray       # (nf, 2)
    boundary_faces: np.ndarray      # (n_ghost,) face ids, ghost i sits behind
                                    # boundary_faces[i]
    bbox: np.ndarray = field(default=None)  # (xmin, xmax, ymin, ymax)

    @property
    def n_cells(self) -> int:
        return len(self.area)

    @property
    def n_ghost(self) -> int:
        return len(self.boundary_faces)

    @property
    def n_total(self) -> int:
        return self.n_cells + self.n_ghost

    @property
    def n_faces(self) -> int:
        return len(self.face_length)

    def cell_sums(self, w_owner, w_neighbor):
        """Per-cell sums of face weights: owner cells receive ``w_owner``,
        interior neighbor cells ``w_neighbor``.

        The neighbor weights are binned over the ghost ids too and the
        ghost bins dropped, which gives each interior bin the same terms in
        the same order as a sum over the interior faces alone.
        """
        n = self.n_cells
        out = np.bincount(self.face_owner, weights=w_owner, minlength=n)
        out += np.bincount(self.face_neighbor, weights=w_neighbor,
                           minlength=self.n_total)[:n]
        return out

    def cell_max(self, w_owner, w_neighbor):
        """Per-cell max of face weights (and 0), owner cells over
        ``w_owner`` and interior neighbor cells over ``w_neighbor``."""
        out = np.zeros(self.n_total)
        np.maximum.at(out, self.face_owner, w_owner)
        np.maximum.at(out, self.face_neighbor, w_neighbor)
        return out[:self.n_cells]

    @cached_property
    def perimeter_ratio(self) -> np.ndarray:
        """Perimeter over area of each cell, sum_k l_k / |K_j|."""
        return self.cell_sums(self.face_length, self.face_length) / self.area

    def boundary_sides(self) -> np.ndarray:
        """Classify each boundary face as LEFT/RIGHT/BOTTOM/TOP.

        Uses the bounding box of the vertices; each boundary face midpoint is
        assigned to the nearest box side.
        """
        xmin, xmax, ymin, ymax = self.bbox
        mid = self.face_midpoint[self.boundary_faces]
        d = np.stack([
            np.abs(mid[:, 0] - xmin),
            np.abs(mid[:, 0] - xmax),
            np.abs(mid[:, 1] - ymin),
            np.abs(mid[:, 1] - ymax),
        ])
        return np.argmin(d, axis=0)


def _cell_geometry(vertices, offsets, ids, cell, nxt):
    """Areas and centroids of the CSR cells of :func:`_mesh_from_cells`;
    raises MeshFormatError for a cell that is not ccw or not convex."""
    n_cells = len(offsets) - 1
    sizes = np.diff(offsets)
    # Shoelace sums, reduced per polygon size so that every cell sums its
    # terms in the same order as a sum over that cell alone.
    x, y = vertices[ids, 0], vertices[ids, 1]
    xn, yn = x[nxt], y[nxt]
    cross = x * yn - xn * y
    terms = np.stack([cross, (x + xn) * cross, (y + yn) * cross])
    sums = np.empty((3, n_cells))
    for k in np.unique(sizes):
        sel = np.nonzero(sizes == k)[0]
        corners = (offsets[sel, None] + np.arange(k)).ravel()
        sums[:, sel] = terms[:, corners].reshape(3, -1, k).sum(axis=2)
    areas = 0.5 * sums[0]
    if np.any(areas <= 0.0):
        j = int(np.argmax(areas <= 0.0))
        raise MeshFormatError(
            f"cell {j} has non-positive area (vertices must be ccw)")
    centroids = np.stack([sums[1] / (6.0 * areas),
                          sums[2] / (6.0 * areas)], axis=1)

    # Convexity: the turn from edge c to edge nxt[c] is to the left, up to
    # roundoff relative to the two edge lengths (collinear vertices pass),
    # and the turns add up to one revolution (a star polygon makes two).
    ex, ey = xn - x, yn - y
    turn = ex * ey[nxt] - ey * ex[nxt]
    slack = 1e-12 * np.hypot(ex, ey) * np.hypot(ex[nxt], ey[nxt])
    if np.any(turn < -slack):
        c = int(np.argmax(turn < -slack))
        raise MeshFormatError(
            f"cell {cell[c]} is not convex (reflex vertex {ids[nxt[c]]})")
    angle = np.arctan2(turn, ex * ex[nxt] + ey * ey[nxt])
    revolutions = np.bincount(cell, angle, n_cells) / (2.0 * np.pi)
    if np.any(revolutions > 1.5):
        j = int(np.argmax(revolutions > 1.5))
        raise MeshFormatError(
            f"cell {j} is not convex (its boundary winds around twice)")
    return areas, centroids


def _mesh_from_cells(vertices, offsets, vertex_ids) -> Mesh:
    """Assemble the face-based connectivity from ccw convex polygon cells
    stored as CSR: cell j has vertex ids
    ``vertex_ids[offsets[j]:offsets[j + 1]]``.

    Faces are numbered in order of first appearance in the cell list; the
    owner is the cell listing the edge first, the neighbor the one listing
    it second.
    """
    vertices = np.asarray(vertices, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    ids = np.asarray(vertex_ids, dtype=np.intp)
    n_cells = len(offsets) - 1
    sizes = np.diff(offsets)
    if np.any(sizes < 3):
        j = int(np.argmax(sizes < 3))
        raise MeshFormatError(f"cell {j} has fewer than 3 vertices")

    # Corner c of a cell runs from vertex ids[c] to ids[nxt[c]].
    cell = np.repeat(np.arange(n_cells), sizes)
    nxt = np.arange(1, len(ids) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]

    areas, centroids = _cell_geometry(vertices, offsets, ids, cell, nxt)

    # One face per undirected edge, keyed by min * nv + max.
    a, b = ids, ids[nxt]
    key = np.minimum(a, b) * len(vertices) + np.maximum(a, b)
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        c = first[np.argmax(counts > 2)]
        raise MeshFormatError(
            f"face ({a[c]}, {b[c]}) shared by more than two cells")
    last = np.argsort(inverse, kind="stable")[np.cumsum(counts) - 1]
    repeated = (counts == 2) & (cell[first] == cell[last])
    if np.any(repeated):
        c = first[np.argmax(repeated)]
        raise MeshFormatError(f"cell {cell[c]} repeats face ({a[c]}, {b[c]})")
    order = np.argsort(first)
    first, last, counts = first[order], last[order], counts[order]
    owner = cell[first]
    neighbor = np.where(counts == 2, cell[last], -1)
    v0s, v1s = a[first], b[first]

    p0, p1 = vertices[v0s], vertices[v1s]
    edge = p1 - p0
    length = np.hypot(edge[:, 0], edge[:, 1])
    if np.any(length <= 0.0):
        raise MeshFormatError("zero-length face")
    # ccw orientation of the owner polygon: outward normal is the edge
    # rotated by -90 degrees.
    normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / length[:, None]
    midpoint = 0.5 * (p0 + p1)

    bmask = neighbor < 0
    boundary_faces = np.nonzero(bmask)[0]
    neighbor[bmask] = n_cells + np.arange(bmask.sum())

    bbox = np.array([vertices[:, 0].min(), vertices[:, 0].max(),
                     vertices[:, 1].min(), vertices[:, 1].max()])

    mesh = Mesh(
        vertices=vertices,
        cell_offsets=offsets,
        cell_vertex_ids=ids,
        area=areas,
        centroid=centroids,
        face_owner=owner,
        face_neighbor=neighbor,
        face_normal=normal,
        face_length=length,
        face_midpoint=midpoint,
        boundary_faces=boundary_faces,
        bbox=bbox,
    )
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: Mesh) -> None:
    """Check the geometric closure and normalization invariants."""
    nrm = np.hypot(mesh.face_normal[:, 0], mesh.face_normal[:, 1])
    if np.any(np.abs(nrm - 1.0) > 1e-14):
        raise MeshFormatError("non-unit face normal")
    if np.any(mesh.area <= 0.0):
        raise MeshFormatError("non-positive cell area")
    # Closed-polygon identity: sum of length-weighted outward normals is zero.
    wx, wy = mesh.face_length * mesh.face_normal.T
    perim = mesh.cell_sums(mesh.face_length, mesh.face_length)
    if np.any(np.hypot(mesh.cell_sums(wx, -wx), mesh.cell_sums(wy, -wy))
              > 1e-12 * perim):
        raise MeshFormatError("cell faces do not close")


def _grid_vertices(nx, ny, domain):
    """Grid vertices and the lower-left vertex id of each grid cell, with
    cells numbered row by row from the bottom."""
    xmin, xmax, ymin, ymax = domain
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate domain rectangle")
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.stack([X.ravel(), Y.ravel()], axis=1)
    j, i = np.divmod(np.arange(nx * ny, dtype=np.intp), nx)
    return verts, j * (nx + 1) + i


def build_cartesian(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0)) -> Mesh:
    """Regular nx-by-ny quadrilateral mesh of an axis-aligned rectangle."""
    verts, ll = _grid_vertices(nx, ny, domain)
    quads = np.stack([ll, ll + 1, ll + nx + 2, ll + nx + 1], axis=1)
    return _mesh_from_cells(verts, np.arange(0, quads.size + 1, 4),
                            quads.ravel())


def build_triangulated(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0)) -> Mesh:
    """Triangular mesh: each cell of the nx-by-ny grid split along one
    fixed diagonal, giving 2*nx*ny triangles."""
    verts, ll = _grid_vertices(nx, ny, domain)
    a, b, c, d = ll, ll + 1, ll + nx + 2, ll + nx + 1
    tris = np.stack([a, b, c, a, c, d], axis=1)
    return _mesh_from_cells(verts, np.arange(0, tris.size + 1, 3),
                            tris.ravel())


def read_mesh(path) -> Mesh:
    """Read the SWMESH text format and validate eagerly.

    Format: line 1 ``SWMESH 1``; line 2 ``<n_vertices> <n_cells>``; one
    ``x y`` per vertex; then one cell per line, ``<n_verts> <v0> <v1> ...``
    with counter-clockwise vertex ordering.  ``#`` starts a comment.
    """
    tokens = []  # (lineno, token)
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0]
            tokens.extend((lineno, t) for t in body.split())

    pos = 0

    def take(n, what, cast):
        nonlocal pos
        if pos + n > len(tokens):
            lineno = tokens[-1][0] if tokens else 0
            raise MeshFormatError(
                f"{path}: unexpected end of file while reading {what} "
                f"(near line {lineno})")
        out = []
        for _ in range(n):
            lineno, tok = tokens[pos]
            pos += 1
            try:
                out.append(cast(tok))
            except ValueError:
                raise MeshFormatError(
                    f"{path}:{lineno}: invalid {what} token {tok!r}")
        return out

    magic = take(2, "header", str)
    if magic != ["SWMESH", "1"]:
        raise MeshFormatError(f"{path}: bad header, expected 'SWMESH 1'")
    nv, nc = take(2, "counts", int)
    if nv < 3 or nc < 1:
        raise MeshFormatError(f"{path}: implausible counts {nv} {nc}")
    coords = take(2 * nv, "vertex coordinate", float)
    verts = np.array(coords, dtype=float).reshape(nv, 2)
    sizes, cell_ids = [], []
    for j in range(nc):
        (k,) = take(1, "cell size", int)
        if k < 3:
            raise MeshFormatError(f"{path}: cell {j} has {k} vertices")
        ids = take(k, "cell vertex id", int)
        if any(v < 0 or v >= nv for v in ids):
            raise MeshFormatError(f"{path}: cell {j} has out-of-range vertex")
        sizes.append(k)
        cell_ids.extend(ids)
    if pos != len(tokens):
        lineno, tok = tokens[pos]
        raise MeshFormatError(f"{path}:{lineno}: trailing token {tok!r}")
    try:
        return _mesh_from_cells(
            verts, np.concatenate([[0], np.cumsum(sizes)]), cell_ids)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None


def write_mesh(mesh: Mesh, path) -> None:
    """Write the SWMESH text format (inverse of :func:`read_mesh`)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("SWMESH 1\n")
        fh.write(f"{len(mesh.vertices)} {mesh.n_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for cv in np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1]):
            fh.write(str(len(cv)) + " " + " ".join(str(v) for v in cv) + "\n")
