import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpswe import mesh as meshmod
from lpswe.exceptions import MeshFormatError


def test_cartesian_counts_and_areas():
    m = meshmod.build_cartesian(4, 3)
    assert m.n_cells == 12
    assert m.n_faces == 4 * 4 + 5 * 3  # horizontal rows + vertical columns
    assert len(m.boundary_faces) == 2 * (4 + 3)
    assert np.allclose(m.area, 1.0 / 12.0)
    assert np.allclose(m.area.sum(), 1.0)


def test_triangulated_counts():
    m = meshmod.build_triangulated(5, 4)
    assert m.n_cells == 2 * 5 * 4
    assert np.allclose(m.area.sum(), 1.0)
    # all triangles of the regular split have the same area
    assert np.allclose(m.area, 1.0 / (2 * 5 * 4))


def test_normals_are_unit_and_outward():
    m = meshmod.build_cartesian(3, 3)
    nrm = np.hypot(m.face_normal[:, 0], m.face_normal[:, 1])
    assert np.allclose(nrm, 1.0, atol=1e-14)
    # outward: normal points from owner centroid toward face midpoint side
    d = m.face_midpoint - m.centroid[m.face_owner]
    assert np.all(np.sum(d * m.face_normal, axis=1) > 0.0)


def test_face_closure_identity():
    m = meshmod.build_triangulated(6, 5)
    acc = np.zeros((m.n_cells, 2))
    w = m.face_length[:, None] * m.face_normal
    np.add.at(acc, m.face_owner, w)
    interior = m.face_neighbor < m.n_cells
    np.add.at(acc, m.face_neighbor[interior], -w[interior])
    assert np.max(np.hypot(acc[:, 0], acc[:, 1])) < 1e-13


def test_sigma_right_triangle():
    # Unit-square split: each right triangle with legs 1 has area 1/2,
    # hypotenuse sqrt(2), so sigma = length / area at the hypotenuse is
    # 2*sqrt(2) seen from either side.
    m = meshmod.build_triangulated(1, 1)
    interior = np.nonzero(m.face_neighbor < m.n_cells)[0]
    assert len(interior) == 1
    f = interior[0]
    assert m.face_length[f] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert np.array_equal(m.area, [0.5, 0.5])
    for cell in (m.face_owner[f], m.face_neighbor[f]):
        assert m.face_length[f] / m.area[cell] == pytest.approx(
            2.0 * np.sqrt(2.0), rel=1e-14)


def test_perimeter_ratio_right_triangle(monkeypatch):
    # legs 1 and 1, hypotenuse sqrt(2), area 1/2, for both triangles; the
    # ratio is computed on first use and then kept
    m = meshmod.build_triangulated(1, 1)
    calls = []
    cell_sums = meshmod.Mesh.cell_sums

    def counted(self, *args):
        calls.append(self)
        return cell_sums(self, *args)

    monkeypatch.setattr(meshmod.Mesh, "cell_sums", counted)
    ratio = m.perimeter_ratio
    assert ratio == pytest.approx([(2.0 + np.sqrt(2.0)) / 0.5] * 2,
                                  rel=1e-15)
    assert m.perimeter_ratio is ratio
    assert calls == [m]


@pytest.mark.parametrize("build", [meshmod.build_cartesian,
                                   meshmod.build_triangulated])
def test_cell_sums_neighbor_side_defaults_to_negated(build):
    # the default neighbor weights -w are subtracted, not built
    m = build(6, 5)
    w = np.random.default_rng(8).normal(size=m.n_faces)
    assert np.array_equal(m.cell_sums(w), m.cell_sums(w, -w))


def test_boundary_sides_classification():
    m = meshmod.build_cartesian(4, 4)
    sides = m.boundary_sides()
    mid = m.face_midpoint[m.boundary_faces]
    assert np.all(mid[sides == meshmod.LEFT, 0] == 0.0)
    assert np.all(mid[sides == meshmod.RIGHT, 0] == 1.0)
    assert np.all(mid[sides == meshmod.BOTTOM, 1] == 0.0)
    assert np.all(mid[sides == meshmod.TOP, 1] == 1.0)


def test_ghost_indices_follow_boundary_faces():
    # the marker n_cells is the neighbor of exactly the boundary faces
    m = meshmod.build_cartesian(3, 2)
    marked = np.nonzero(m.face_neighbor == m.n_cells)[0]
    assert np.array_equal(marked, m.boundary_faces)
    assert np.all(m.face_neighbor <= m.n_cells)


def test_cw_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(MeshFormatError):
        meshmod._mesh_from_cells(verts, [0, 3], [0, 2, 1])


def test_duplicate_face_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.0]])
    # the third (ccw) cell reuses edge (1,2) a third time
    with pytest.raises(MeshFormatError, match="more than two"):
        meshmod._mesh_from_cells(verts, [0, 4, 7, 10],
                                 [0, 1, 2, 3, 1, 4, 2, 1, 5, 2])


@pytest.mark.parametrize("text", [
    # arrow-shaped ccw quad with a reflex vertex at (1, 1)
    "4 1\n0 0\n2 1\n0 2\n1 1\n4 0 1 2 3\n",
    # five-pointed star: every turn is to the left, but twice around
    "5 1\n0 3\n-3 1\n-2 -3\n2 -3\n3 1\n5 0 2 4 1 3\n",
], ids=["arrow", "star"])
def test_non_convex_cell_rejected(tmp_path, text):
    path = tmp_path / "cell.swmesh"
    path.write_text("SWMESH 1\n" + text)
    with pytest.raises(MeshFormatError,
                       match=r"cell\.swmesh: cell 0 is not convex"):
        meshmod.read_mesh(path)


def test_mesh_roundtrip(tmp_path):
    m = meshmod.build_triangulated(3, 3, (0.0, 2.0, -1.0, 1.0))
    path = tmp_path / "grid.swmesh"
    meshmod.write_mesh(m, path)
    m2 = meshmod.read_mesh(path)
    assert m2.n_cells == m.n_cells
    assert np.allclose(m2.vertices, m.vertices)
    assert np.allclose(m2.area, m.area)
    assert np.allclose(m2.face_normal, m.face_normal)
    assert np.array_equal(m2.cell_offsets, m.cell_offsets)
    assert np.array_equal(m2.cell_vertex_ids, m.cell_vertex_ids)


def test_read_mesh_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.swmesh"
    path.write_text("SWMESH 1\n4 1\n0 0\n1 0\n1 1\n0 oops\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError, match=r"bad\.swmesh:6"):
        meshmod.read_mesh(path)


def test_read_mesh_rejects_vertex_id_past_intp(tmp_path):
    path = tmp_path / "huge.swmesh"
    path.write_text("SWMESH 1\n3 1\n0 0\n1 0\n0 1\n"
                    "3 0 1 99999999999999999999\n")
    with pytest.raises(MeshFormatError, match=r"huge\.swmesh:6: invalid cell "
                       r"vertex id token '99999999999999999999'$"):
        meshmod.read_mesh(path)


def test_read_mesh_bad_header(tmp_path):
    path = tmp_path / "bad.swmesh"
    path.write_text("MESH 2\n")
    with pytest.raises(MeshFormatError, match="header"):
        meshmod.read_mesh(path)


def test_read_mesh_trailing_tokens(tmp_path):
    path = tmp_path / "bad.swmesh"
    path.write_text("SWMESH 1\n3 1\n0 0\n1 0\n0 1\n3 0 1 2\n99\n")
    with pytest.raises(MeshFormatError, match="trailing"):
        meshmod.read_mesh(path)


def test_comments_ignored(tmp_path):
    path = tmp_path / "ok.swmesh"
    path.write_text("SWMESH 1  # header\n3 1\n0 0\n1 0  # a vertex\n0 1\n"
                    "3 0 1 2\n")
    m = meshmod.read_mesh(path)
    assert m.n_cells == 1
    assert m.area[0] == pytest.approx(0.5)


def _reference_geometry(vertices, offsets, ids, cell, nxt):
    """Areas and centroids in the reference form of the build: the
    stacked shoelace terms summed per polygon size through a corner index.
    (The reference keeps the arithmetic and leaves out the checks.)"""
    n_cells = len(offsets) - 1
    sizes = np.diff(offsets)
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
    centroids = np.stack([sums[1] / (6.0 * areas),
                          sums[2] / (6.0 * areas)], axis=1)
    return areas, centroids


def _reference_mesh(vertices, offsets, vertex_ids):
    """The reference form of ``_mesh_from_cells``: faces paired through
    ``np.unique`` and two more sorts, and their geometry from the vertex
    rows of each face."""
    vertices = np.asarray(vertices, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    ids = np.asarray(vertex_ids, dtype=np.intp)
    n_cells = len(offsets) - 1
    sizes = np.diff(offsets)
    cell = np.repeat(np.arange(n_cells), sizes)
    nxt = np.arange(1, len(ids) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    areas, centroids = _reference_geometry(vertices, offsets, ids, cell, nxt)
    a, b = ids, ids[nxt]
    key = np.minimum(a, b) * len(vertices) + np.maximum(a, b)
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    last = np.argsort(inverse, kind="stable")[np.cumsum(counts) - 1]
    order = np.argsort(first)
    first, last, counts = first[order], last[order], counts[order]
    owner = cell[first]
    neighbor = np.where(counts == 2, cell[last], -1)
    p0, p1 = vertices[a[first]], vertices[b[first]]
    edge = p1 - p0
    length = np.hypot(edge[:, 0], edge[:, 1])
    normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / length[:, None]
    bmask = neighbor < 0
    boundary_faces = np.nonzero(bmask)[0]
    neighbor[bmask] = n_cells
    outer = neighbor.copy()
    outer[bmask] = owner[bmask]
    bbox = np.array([vertices[:, 0].min(), vertices[:, 0].max(),
                     vertices[:, 1].min(), vertices[:, 1].max()])
    return meshmod.Mesh(
        vertices=vertices, cell_offsets=offsets, cell_vertex_ids=ids,
        area=areas, centroid=centroids, face_owner=owner,
        face_neighbor=neighbor, face_normal=normal, face_length=length,
        face_midpoint=0.5 * (p0 + p1), boundary_faces=boundary_faces,
        bbox=bbox, face_outer=outer)


def _assert_same_mesh(mesh, ref):
    for f in dataclasses.fields(meshmod.Mesh):
        got, want = getattr(mesh, f.name), getattr(ref, f.name)
        assert got.dtype == want.dtype, f.name
        assert got.shape == want.shape, f.name
        assert got.flags.c_contiguous, f.name
        assert got.tobytes() == want.tobytes(), f.name


def _assert_face_order(m):
    """Owners never decrease in face order and an interior face's owner is
    below its neighbor; so a part of cells c0..c1-1 owns a contiguous face
    range, its span holds every face whose neighbor is one of its cells,
    and its sums are the mesh's sums over those cells bit for bit."""
    o, nb, n = m.face_owner, m.face_neighbor, m.n_cells
    assert np.all(np.diff(o) >= 0)
    inner = nb < n
    assert np.all(o[inner] < nb[inner])
    w = np.random.default_rng(1).normal(size=(2, m.n_faces))
    for c0, c1 in zip((0, n // 3, 2 * n // 3), (n // 3, 2 * n // 3, n)):
        part = m._part(c0, c1)
        mine = np.arange(m.n_faces)[(nb >= c0) & (nb < c1)]
        assert np.all((part.span.start <= mine) & (mine < part.span.stop))
        assert part.span.stop == part.faces.stop
        assert np.array_equal(np.arange(m.n_faces)[part.faces],
                              np.nonzero((o >= c0) & (o < c1))[0])
        for w_nb in (None, w[1][part.span]):
            got = part.sums(w[0][part.span], w_nb)
            want = m.cell_sums(w[0], None if w_nb is None else w[1])
            assert got.tobytes() == want[c0:c1].tobytes()


def _rotated_squares(ang):
    """Two unit squares side by side, rotated by ``ang`` about the origin."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                      [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    R = np.array([[np.cos(ang), -np.sin(ang)],
                  [np.sin(ang), np.cos(ang)]])
    return meshmod._mesh_from_cells(verts @ R.T, [0, 4, 8],
                                    [0, 1, 4, 3, 1, 2, 5, 4])


def _decagon():
    """One regular decagon off the origin: a cell of more than 8 terms."""
    ang = 2.0 * np.pi * np.arange(10) / 10
    verts = np.stack([3.1 + np.cos(ang), -0.7 + 1.3 * np.sin(ang)], axis=1)
    return meshmod._mesh_from_cells(verts, [0, 10], np.arange(10))


@pytest.mark.parametrize("build", [
    lambda: meshmod.build_cartesian(7, 3, (-1.3, 2.2, 0.7, 5.1)),
    lambda: meshmod.build_cartesian(24, 17),
    lambda: meshmod.build_triangulated(9, 14, (0.0, 3.0, -1.0, 1.0)),
    lambda: _rotated_squares(0.3),
    lambda: _rotated_squares(2.0),
    lambda: _decagon(),
], ids=["cartesian", "cartesian-24x17", "triangulated", "rotated-0.3",
        "rotated-2.0", "decagon"])
def test_mesh_fields_equal_reference(build):
    m = build()
    _assert_same_mesh(m, _reference_mesh(m.vertices, m.cell_offsets,
                                         m.cell_vertex_ids))
    _assert_face_order(m)


def test_mixed_mesh_fields_equal_reference(mixed_mesh):
    m = mixed_mesh
    _assert_same_mesh(m, _reference_mesh(m.vertices, m.cell_offsets,
                                         m.cell_vertex_ids))
    _assert_face_order(m)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       split=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_jittered_mixed_cells_equal_reference(nx, ny, split, seed):
    # convex quads (every vertex moved by under 0.2 h), a random subset
    # split into two triangles, each cell's vertex list rotated, the cells
    # shuffled
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-5.0, 5.0, 2)
    w, h = rng.uniform(0.5, 3.0, 2)
    verts, ll = meshmod._grid_vertices(nx, ny, (x0, x0 + w, y0, y0 + h))
    verts += rng.uniform(-0.19, 0.19, verts.shape) * min(w / nx, h / ny)
    cells = []
    for a in ll:
        quad = [a, a + 1, a + nx + 2, a + nx + 1]
        if rng.random() < split:
            d = rng.integers(2)
            cells += [quad[d:d + 3], quad[d + 2:] + quad[:d + 1]]
        else:
            cells.append(quad)
    cells = [c[s:] + c[:s] for c in cells
             for s in [rng.integers(len(c))]]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    offsets = np.cumsum([0] + [len(c) for c in cells])
    ids = np.concatenate(cells)
    m = meshmod._mesh_from_cells(verts, offsets, ids)
    _assert_same_mesh(m, _reference_mesh(verts, offsets, ids))
    _assert_face_order(m)
    # unit normals and closed cells hold by construction, up to roundoff
    assert np.all(np.abs(np.hypot(*m.face_normal.T) - 1.0) <= 1e-14)
    wx, wy = m.face_length * m.face_normal.T
    perimeter = m.cell_sums(m.face_length, m.face_length)
    assert np.all(np.hypot(m.cell_sums(wx), m.cell_sums(wy))
                  <= 1e-12 * perimeter)


SQUARES = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0],
           [2.0, 1.0]]


@pytest.mark.parametrize("verts, offsets, ids, message", [
    (SQUARES, [0, 2], [0, 1], "cell 0 has fewer than 3 vertices"),
    (SQUARES, [0, 4, 7], [0, 1, 2, 3, 1, 2, 4],
     r"cell 1 has non-positive area \(vertices must be ccw\)"),
    ([[0, 0], [2, 1], [0, 2], [1, 1]], [0, 4], [0, 1, 2, 3],
     r"cell 0 is not convex \(reflex vertex 3\)"),
    ([[0, 3], [-3, 1], [-2, -3], [2, -3], [3, 1]], [0, 5], [0, 2, 4, 1, 3],
     r"cell 0 is not convex \(its boundary winds around twice\)"),
    (SQUARES, [0, 4, 7, 10], [0, 1, 2, 3, 1, 4, 2, 1, 5, 2],
     r"face \(1, 2\) shared by more than two cells"),
    # vertex 0 listed three times: the zero-length edge (0, 0) twice
    (SQUARES, [0, 5], [0, 0, 1, 2, 0], r"cell 0 repeats face \(0, 0\)"),
    (SQUARES, [0, 4, 8], [0, 1, 2, 3, 1, 4, 4, 5],
     r"cell 1 has a zero-length face \(4, 4\)"),
    ([[0, 0], [1, 0], [1, 0], [0, 1]], [0, 4], [0, 1, 2, 3],
     r"cell 0 has a zero-length face \(1, 2\)"),
    (SQUARES, [0, 4, 7], [0, 1, 2, 3, 1, 4, -1],
     "cell 1 has out-of-range vertex id -1"),
    (SQUARES, [0, 4, 8], [0, 1, 2, 3, 1, 4, 6, 2],
     "cell 1 has out-of-range vertex id 6"),
    ([[0, 0], [1, 0], [np.nan, 1], [0, 1]], [0, 4], [0, 1, 2, 3],
     "vertex 2 has a non-finite coordinate"),
    # vertex 3 is in no cell, but it would enter the bounding box
    ([[0, 0], [1, 0], [0, 1], [np.inf, 0]], [0, 3], [0, 1, 2],
     "vertex 3 has a non-finite coordinate"),
    # CSR offsets that do not span the ids exactly once
    (SQUARES, [0, 3], [0, 1, 2, 3],
     "cell offsets must run from 0 to 4, the number of vertex ids"),
    (SQUARES, [0, 4], [0, 1, 2],
     "cell offsets must run from 0 to 3, the number of vertex ids"),
    (SQUARES, [1, 4], [0, 1, 2, 3],
     "cell offsets must run from 0 to 4, the number of vertex ids"),
    (SQUARES, [], [0, 1, 2],
     "cell offsets must run from 0 to 3, the number of vertex ids"),
], ids=["few", "cw", "arrow", "star", "three-cells", "repeated",
        "zero-length", "coincident", "negative-id", "id-past-end", "nan",
        "inf-unused", "offsets-short", "offsets-long", "offsets-start",
        "offsets-empty"])
def test_build_errors_name_the_cell_or_face(verts, offsets, ids, message):
    with pytest.raises(MeshFormatError, match=f"^{message}$"):
        meshmod._mesh_from_cells(verts, offsets, ids)


def test_cell_faults_come_before_face_faults():
    # a cw cell and a face of three cells: the cell is named
    with pytest.raises(MeshFormatError, match="cell 3 has non-positive"):
        meshmod._mesh_from_cells(SQUARES, [0, 4, 7, 10, 13],
                                 [0, 1, 2, 3, 1, 4, 2, 1, 5, 2, 0, 2, 1])


def test_zero_length_face_from_file(tmp_path):
    path = tmp_path / "zero.swmesh"
    path.write_text("SWMESH 1\n3 1\n0 0\n1 0\n0 1\n4 0 1 1 2\n")
    with pytest.raises(MeshFormatError, match=r"zero\.swmesh: cell 0 has a "
                       r"zero-length face \(1, 1\)$"):
        meshmod.read_mesh(path)


@pytest.mark.parametrize("name, text, message", [
    ("range", "3 1\n0 0\n1 0\n0 1\n3 0 1 3\n",
     "cell 0 has out-of-range vertex id 3"),
    ("nan", "3 1\n0 0\nnan 0\n0 1\n3 0 1 2\n",
     "vertex 1 has a non-finite coordinate"),
])
def test_read_mesh_build_errors_carry_the_path(tmp_path, name, text,
                                                message):
    path = tmp_path / f"{name}.swmesh"
    path.write_text("SWMESH 1\n" + text)
    with pytest.raises(MeshFormatError,
                       match=f"{name}\\.swmesh: {message}$"):
        meshmod.read_mesh(path)


@pytest.mark.parametrize("name, data", [
    ("missing", None), ("binary", b"SWMESH 1\n\xff\n")],
    ids=["missing", "binary"])
def test_unreadable_mesh_file_names_the_path(tmp_path, name, data):
    path = tmp_path / f"{name}.swmesh"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(MeshFormatError,
                       match=f"{name}\\.swmesh: cannot read mesh file"):
        meshmod.read_mesh(path)


@pytest.mark.parametrize("build", [meshmod.build_cartesian,
                                   meshmod.build_triangulated])
def test_build_memory_peak(build):
    # the build's traced peak, its result included, stays within 3.7 times
    # the bytes of the mesh it returns
    tracemalloc.start()
    try:
        m = build(160, 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured against the fields other than face_outer, which a build
    # makes after its peak
    size = sum(getattr(m, f.name).nbytes for f in dataclasses.fields(m)
               if f.name != "face_outer")
    assert peak <= 3.7 * size
