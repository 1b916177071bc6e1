from pathlib import Path

import numpy as np
import pytest

from lpswe import mesh as meshmod
from lpswe.exceptions import ConfigError
from lpswe.fields import ConservedField, Params, Topography
from lpswe.io import (MeshSpec, parse_config, write_cut_csv, write_report,
                      write_vtk)


def _write(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return path


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(_write(tmp_path, """
[scenario]
name = dam_break

[run]
scheme = IMEX
theta = unity
tf = 0.25

[mesh]
kind = tri
nx = 12
ny = 10
"""))
    assert cfg.scenario == "dam_break"
    assert cfg.params.scheme == "IMEX"
    assert cfg.params.theta_policy == "unity"
    assert cfg.t_final == 0.25
    assert cfg.mesh.kind == "tri"
    assert cfg.mesh.nx == 12


def test_parse_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "[scenario]\nname = lake_at_rest\n"))
    assert cfg.params.scheme == "EXEX"
    assert cfg.t_final == 0.1


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_write(tmp_path, "[run]\nfroude = 1\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(_write(tmp_path, "[output]\nx = 1\n"))


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(_write(tmp_path, "[run]\ntf = soon\n"))


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(_write(tmp_path, "[scenario]\nname = tide\n"))


def test_domain_parsing(tmp_path):
    cfg = parse_config(_write(tmp_path, """
[scenario]
name = vortex_topo
[mesh]
domain = 0 2 0 1
"""))
    assert cfg.mesh.domain == (0.0, 2.0, 0.0, 1.0)
    with pytest.raises(ConfigError, match="4 numbers"):
        parse_config(_write(tmp_path, "[mesh]\ndomain = 0 1\n"))


def test_percent_in_value_is_literal(tmp_path):
    cfg = parse_config(_write(tmp_path,
                              "[mesh]\nkind = file\npath = 50%.swmesh\n"))
    assert cfg.mesh.path == "50%.swmesh"


def test_invalid_param_combination(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "[run]\nkappa = 0.5\n"))


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


def test_meshspec_build():
    spec = MeshSpec(kind="cartesian", nx=3, ny=2)
    m = spec.build((0.0, 1.0, 0.0, 1.0))
    assert m.n_cells == 6
    spec = MeshSpec(kind="tri", nx=2, ny=2, domain=(0.0, 2.0, 0.0, 2.0))
    m = spec.build((0.0, 1.0, 0.0, 1.0))   # explicit domain wins
    assert np.allclose(m.area.sum(), 4.0)
    with pytest.raises(ConfigError):
        MeshSpec(kind="file").build((0.0, 1.0, 0.0, 1.0))


def test_vtk_output(tmp_path):
    p = Params()
    m = meshmod.build_triangulated(2, 2)
    n = m.n_cells
    h = np.linspace(1.0, 2.0, n)
    c = ConservedField(h, h[:, None] * np.tile([0.1, 0.2], (n, 1)))
    topo = Topography(np.zeros(n))
    path = tmp_path / "out.vtk"
    write_vtk(c, topo, m, p, path)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"CELL_DATA {n}" in text
    for name in ("h", "z", "H", "Froude"):
        assert f"SCALARS {name} double 1" in text
    assert "VECTORS velocity double" in text
    # triangles are VTK type 5
    lines = text.splitlines()
    i = lines.index(f"CELL_TYPES {n}")
    assert lines[i + 1:i + 1 + n] == ["5"] * n


def test_vtk_quad_type(tmp_path):
    p = Params()
    m = meshmod.build_cartesian(2, 1)
    c = ConservedField(np.ones(2), np.zeros((2, 2)))
    path = tmp_path / "q.vtk"
    write_vtk(c, Topography(np.zeros(2)), m, p, path)
    lines = path.read_text().splitlines()
    i = lines.index("CELL_TYPES 2")
    assert lines[i + 1] == "9"


def test_cut_csv_roundtrip(tmp_path):
    path = tmp_path / "cut.csv"
    x = np.array([0.1, 0.3])
    write_cut_csv(x, x + 1, x * 0, x * 0, x + 1, x * 0, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,h,u,v,H,z"
    row = [float(t) for t in lines[1].split(",")]
    assert row[0] == 0.1
    assert row[1] == 1.1


def test_report_file(tmp_path):
    from lpswe.driver import RunReport
    rep = RunReport(steps=3, wall_time=0.5, dt_history=[0.1, 0.2, 0.1],
                    mass_history=[1.0, 1.0, 1.0], max_froude=0.02,
                    final=None, t_final=0.4, mesh_parts=1, threads=1)
    path = tmp_path / "report.txt"
    write_report(rep, path, extra={"note": "ok"})
    text = path.read_text()
    assert "steps = 3" in text
    assert "mass_drift_rel = 0.000e+00" in text
    assert "note = ok" in text


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Example config:\n\n```ini\n", 1)[1]
    cfg = parse_config(_write(tmp_path, block.split("```", 1)[0]))
    assert cfg.scenario == "dam_break"
    assert cfg.mesh == MeshSpec(kind="tri", nx=60, ny=60)
    assert cfg.params == Params(scheme="EXEX", theta_policy="corrected")
    assert (cfg.t_final, cfg.output_every, cfg.cut_y) == (0.1, 0, 0.5)
