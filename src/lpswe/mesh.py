# mesh.py

"""Unstructured polygonal meshes: cells, faces, normals, boundary faces.

Faces are stored once.  The stored normal points from the owner cell to the
neighbor; the neighbor sees the same face with the opposite normal.  Each
face reads the state of its outer side from one cell, ``face_outer``: the
build sets the zero-gradient closure (a boundary face reads its own owner),
and ``driver.apply_bc`` re-pairs periodic faces, so that flux kernels never
special-case the boundary.

A step's face and cell loops split into ``Mesh.parts``, contiguous cell
ranges that ``map_parts`` runs on a process-wide thread pool.  Owners never
decrease in face order and an interior face's owner is below its neighbor,
so each part's sums bin a contiguous face span, and every cell sum gets the
same terms in the same order for any number of parts.
"""

import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import MeshFormatError

# Boundary side tags for rectangular domains.
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3

# Threads a step's parts run on, the calling one included: one per CPU
# this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# Faces per part, at least: meshes up to 160x160 quads (51,520 faces, the
# largest that `lpswe verify` runs) stay in one part.  An EXEX step on a
# 2-core Xeon took 2.1 ms in two parts against 1.1 ms in one at 80x80, and
# 15.8 ms in four parts against 26.9 ms in one at 320x320 (205,440 faces).
PART_FACES = 50_000

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool
    _pool = None


# A forked child has none of the pool's threads: it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_parts(fn, parts, *args):
    """``[fn(part, *args) for part in parts]``.

    With more than one part and more than one worker, the calling thread
    runs every ``WORKERS``-th part and a pool of ``WORKERS - 1`` threads,
    started on first use, the others (numpy releases the interpreter lock
    in its loops).  All of them finish before the exception of the first
    failing part in order, if any, is raised.
    """
    if len(parts) == 1 or WORKERS == 1:
        return [fn(part, *args) for part in parts]
    from concurrent.futures import Future, ThreadPoolExecutor, wait
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, "lpswe-part")
    futures = [Future() if i % WORKERS == 0 else _pool.submit(fn, part, *args)
               for i, part in enumerate(parts)]
    for part, future in zip(parts[::WORKERS], futures[::WORKERS]):
        try:
            future.set_result(fn(part, *args))
        except Exception as exc:
            future.set_exception(exc)
    wait(futures)
    return [f.result() for f in futures]


@dataclass(frozen=True)
class Part:
    """The cells ``cells`` of a mesh, the faces ``faces`` they own, and the
    face span ``span`` (ending with ``faces``) that holds every face whose
    neighbor is one of them.

    ``owner`` holds the owner of each face in ``faces`` and ``neighbor``
    the neighbor of each face in ``span``, both counted from the part's
    first cell; a neighbor outside the part (or the boundary marker) is the
    part's cell count, the bin that ``sums`` drops.
    """

    cells: slice
    faces: slice
    span: slice
    owner: np.ndarray
    neighbor: np.ndarray

    def sums(self, w_owner, w_neighbor=None):
        """Per-cell sums of the face weights of ``span``: owner cells receive
        ``w_owner``, neighbor cells ``w_neighbor``, by default ``-w_owner``
        (subtracted, not built: the same bits).

        The neighbor weights are binned over the cells outside the part too
        and their bin dropped, which gives each cell's bin the same terms in
        the same order as a sum over its own faces alone.
        """
        n = self.cells.stop - self.cells.start
        w = w_owner[self.faces.start - self.span.start:]
        out = np.bincount(self.owner, weights=w, minlength=n)
        if w_neighbor is None:
            out -= np.bincount(self.neighbor, weights=w_owner,
                               minlength=n + 1)[:n]
        else:
            out += np.bincount(self.neighbor, weights=w_neighbor,
                               minlength=n + 1)[:n]
        return out


@dataclass
class Mesh:
    """Polygonal mesh whose boundary faces have the neighbor ``n_cells``.

    Cell indices 0..n_cells-1 are the cells.  ``n_cells`` marks the missing
    neighbor of a boundary face: no state is stored for it, and the
    per-cell sums drop its bin.  ``face_outer`` gives the cell whose state
    a face reads on its outer side.
    """

    vertices: np.ndarray            # (nv, 2)
    cell_offsets: np.ndarray        # (n_cells + 1,) CSR row starts
    cell_vertex_ids: np.ndarray     # ccw vertex ids of cell j at
                                    # cell_offsets[j]:cell_offsets[j + 1]
    area: np.ndarray                # (n_cells,)
    centroid: np.ndarray            # (n_cells, 2)
    face_owner: np.ndarray          # (nf,)
    face_neighbor: np.ndarray       # (nf,) interior id, n_cells on boundary
    face_normal: np.ndarray         # (nf, 2), unit, owner -> neighbor
    face_length: np.ndarray         # (nf,)
    face_midpoint: np.ndarray       # (nf, 2)
    boundary_faces: np.ndarray      # face ids with neighbor n_cells
    bbox: np.ndarray                # (xmin, xmax, ymin, ymax)
    # (nf,) the cell each face reads on its neighbor side: the neighbor, or
    # the cell the boundary closure copies (the owner unless apply_bc
    # pairs the face periodically)
    face_outer: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.area)

    @property
    def n_faces(self) -> int:
        return len(self.face_length)

    def cell_sums(self, w_owner, w_neighbor=None):
        """Per-cell sums of face weights (``Part.sums`` of the whole mesh,
        whose boundary marker is the dropped bin)."""
        return self._part(0, self.n_cells).sums(w_owner, w_neighbor)

    def _part(self, c0, c1):
        """The ``Part`` of cells c0..c1-1; the whole mesh's is views."""
        o, nb = self.face_owner, self.face_neighbor
        f0, f1 = (int(f) for f in np.searchsorted(o, (c0, c1)))
        if c1 - c0 == self.n_cells:
            return Part(slice(c0, c1), slice(f0, f1), slice(f0, f1), o, nb)
        # A neighbor is above its owner, so its faces end by f1.
        inside = (nb[:f1] >= c0) & (nb[:f1] < c1)
        g0 = min(int(np.argmax(inside)) if inside.any() else f0, f0)
        return Part(slice(c0, c1), slice(f0, f1), slice(g0, f1),
                    o[f0:f1] - c0,
                    np.where(inside[g0:], nb[g0:f1] - c0, c1 - c0))

    @cached_property
    def parts(self):
        """The parts a step's loops run in: max(1, min(2 WORKERS,
        n_faces // PART_FACES)) cell ranges of about equal face counts."""
        k = max(1, min(2 * WORKERS, self.n_faces // PART_FACES))
        cuts = self.face_owner[np.arange(1, k) * self.n_faces // k]
        bounds = sorted({0, *cuts.tolist(), self.n_cells})
        return [self._part(c0, c1) for c0, c1 in zip(bounds, bounds[1:])]

    @cached_property
    def perimeter_ratio(self) -> np.ndarray:
        """Perimeter over area of each cell, sum_k l_k / |K_j|."""
        return self.cell_sums(self.face_length, self.face_length) / self.area

    @cached_property
    def side_ratio(self):
        """``perimeter_ratio`` of each face's owner and of its neighbor,
        0 on the boundary."""
        r = np.append(self.perimeter_ratio, 0.0)
        return r[self.face_owner], r[self.face_neighbor]

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


def _cell_geometry(vertices, ids, cell, nxt, first, n_cells):
    """Cell areas and centroids for :func:`_mesh_from_cells`, and the length,
    edge vector and midpoint of the faces owned by corners ``first``;
    raises MeshFormatError for a cell that is not ccw or not convex.

    The shoelace sums are bincounts over ``cell``: each cell adds its corner
    terms one by one in corner order, whatever its size.
    """
    # Corner c runs from p to pn, in six corner arrays reused in place; a
    # face takes its midpoint, length and edge from its owner's corner.
    p, pn, (cross, t) = np.empty((3, 2, len(ids)))
    np.take(vertices.T, ids, axis=1, out=p)
    # nxt is in range: "wrap" skips the bounds check and its output buffer
    np.take(p, nxt, axis=1, out=pn, mode="wrap")
    np.multiply(p[0], pn[1], out=cross)
    cross -= np.multiply(pn[0], p[1], out=t)
    areas = 0.5 * np.bincount(cell, cross, n_cells)
    if np.any(areas <= 0.0):
        j = int(np.argmax(areas <= 0.0))
        raise MeshFormatError(
            f"cell {j} has non-positive area (vertices must be ccw)")
    midpoint = np.empty((len(first), 2))
    centroids = np.empty((n_cells, 2))
    for i in (0, 1):
        np.add(p[i], pn[i], out=t)
        np.multiply(0.5, t[first], out=midpoint[:, i])
        t *= cross
        np.divide(np.bincount(cell, t, n_cells), 6.0 * areas,
                  out=centroids[:, i])
    (ex, ey), (exn, eyn) = np.subtract(pn, p, out=pn), p
    length = np.hypot(ex, ey, out=t)
    edge, face_length = pn[:, first], length[first]

    # Convexity: the turn from edge c to edge nxt[c] is to the left, up to
    # roundoff relative to the two edge lengths (collinear vertices pass),
    # and the turns add up to one revolution (a star polygon makes two).
    np.take(pn, nxt, axis=1, out=p, mode="wrap")  # p is now (exn, eyn)
    turn = ex * eyn - ey * exn
    reflex = turn < -1e-12 * length * length[nxt]
    if np.any(reflex):
        c = int(np.argmax(reflex))
        raise MeshFormatError(
            f"cell {cell[c]} is not convex (reflex vertex {ids[nxt[c]]})")
    angle = np.arctan2(turn, ex * exn + ey * eyn)
    revolutions = np.bincount(cell, angle, n_cells) / (2.0 * np.pi)
    if np.any(revolutions > 1.5):
        j = int(np.argmax(revolutions > 1.5))
        raise MeshFormatError(
            f"cell {j} is not convex (its boundary winds around twice)")
    return areas, centroids, face_length, edge, midpoint


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
    if n_cells < 0 or offsets[0] != 0 or offsets[-1] != len(ids):
        raise MeshFormatError(
            f"cell offsets must run from 0 to {len(ids)}, the number of "
            f"vertex ids")
    # Sizes of at least 3, checked next, make the offsets increase.
    sizes = np.diff(offsets)
    if np.any(sizes < 3):
        j = int(np.argmax(sizes < 3))
        raise MeshFormatError(f"cell {j} has fewer than 3 vertices")
    cell = np.repeat(np.arange(n_cells), sizes)
    if np.any(bad := (ids < 0) | (ids >= len(vertices))):
        c = int(np.argmax(bad))
        raise MeshFormatError(
            f"cell {cell[c]} has out-of-range vertex id {ids[c]}")
    # bbox reads every vertex, so unused ones must be finite too
    finite = np.isfinite(vertices[:, 0]) & np.isfinite(vertices[:, 1])
    if not finite.all():
        raise MeshFormatError(
            f"vertex {np.argmin(finite)} has a non-finite coordinate")

    # Corner c of a cell runs from vertex ids[c] to ids[nxt[c]].
    nxt = np.arange(1, len(ids) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]

    # One face per undirected edge, keyed by min * nv + max.  A stable sort
    # of the keys puts the corners listing an edge side by side in corner
    # order: sorted corners pos and pos + 1 are the two sides of a face.
    b = ids[nxt]
    key = np.minimum(ids, b) * len(vertices) + np.maximum(ids, b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    pos = np.nonzero(key[1:] == key[:-1])[0]
    lo, hi = order[pos], order[pos + 1]
    del b, key, order
    # A fault found here is raised after those of the cell geometry.
    fault = None
    if np.any(triple := np.diff(pos) == 1):
        c = lo[np.argmax(triple)]
        fault = f"face ({ids[c]}, {ids[nxt[c]]}) shared by more than two cells"
    elif np.any(repeated := cell[lo] == cell[hi]):
        c = lo[np.argmax(repeated)]
        fault = f"cell {cell[c]} repeats face ({ids[c]}, {ids[nxt[c]]})"
    # Faces are the corners not marked -2 (second on an edge), in order.
    partner = np.full(len(ids), -1)
    partner[lo], partner[hi] = hi, -2
    first = np.nonzero(partner != -2)[0]
    last = partner[first]
    del pos, lo, hi, partner  # the geometry below sets the memory peak

    areas, centroids, length, edge, midpoint = _cell_geometry(
        vertices, ids, cell, nxt, first, n_cells)
    if fault:
        raise MeshFormatError(fault)
    if np.any(length <= 0.0):
        c = first[np.argmax(length <= 0.0)]
        raise MeshFormatError(
            f"cell {cell[c]} has a zero-length face ({ids[c]}, {ids[nxt[c]]})")
    # ccw orientation of the owner polygon: outward normal is the edge
    # rotated by -90 degrees.
    normal = np.stack([edge[1], -edge[0]], axis=1)
    normal /= length[:, None]

    owner = cell[first]
    neighbor = cell[last]
    boundary_faces = np.nonzero(last < 0)[0]
    neighbor[boundary_faces] = n_cells
    # zero-gradient closure: a boundary face reads its own owner
    outer = np.where(last < 0, owner, neighbor)

    bbox = np.stack([vertices.min(axis=0), vertices.max(axis=0)], 1).ravel()
    return Mesh(vertices=vertices, cell_offsets=offsets, cell_vertex_ids=ids,
                area=areas, centroid=centroids, face_owner=owner,
                face_neighbor=neighbor, face_normal=normal,
                face_length=length, face_midpoint=midpoint,
                boundary_faces=boundary_faces, bbox=bbox, face_outer=outer)


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
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0]
                tokens.extend((lineno, t) for t in body.split())
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(
            f"{path}: cannot read mesh file ({exc})") from None

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
            except (ValueError, OverflowError):
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
        sizes.append(k)
        cell_ids.extend(take(k, "cell vertex id", np.intp))
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
