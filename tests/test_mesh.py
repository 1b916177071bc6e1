import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.exceptions import MeshFormatError


def test_cartesian_counts_and_areas():
    m = meshmod.build_cartesian(4, 3)
    assert m.n_cells == 12
    assert m.n_faces == 4 * 4 + 5 * 3  # horizontal rows + vertical columns
    assert m.n_ghost == 2 * (4 + 3)
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


def test_boundary_sides_classification():
    m = meshmod.build_cartesian(4, 4)
    sides = m.boundary_sides()
    mid = m.face_midpoint[m.boundary_faces]
    assert np.all(mid[sides == meshmod.LEFT, 0] == 0.0)
    assert np.all(mid[sides == meshmod.RIGHT, 0] == 1.0)
    assert np.all(mid[sides == meshmod.BOTTOM, 1] == 0.0)
    assert np.all(mid[sides == meshmod.TOP, 1] == 1.0)


def test_ghost_indices_follow_boundary_faces():
    m = meshmod.build_cartesian(3, 2)
    for i, f in enumerate(m.boundary_faces):
        assert m.face_neighbor[f] == m.n_cells + i


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
