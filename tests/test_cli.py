
import pytest

from lpswe import acceptance
from lpswe.cli import main
from lpswe.mesh import build_triangulated, write_mesh
from lpswe.scenarios import get_scenario


def _cfg(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return str(path)


def test_run_lake_at_rest(tmp_path, capsys):
    cfg = _cfg(tmp_path, """
[scenario]
name = lake_at_rest
[run]
tf = 0.01
[mesh]
kind = tri
nx = 6
ny = 6
""")
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "steps" in captured
    assert (out / "run_final.vtk").exists()
    assert (out / "run_cut.csv").exists()
    report = (out / "run_report.txt").read_text().splitlines()
    assert any(line.startswith("max_froude = ") for line in report)
    # a 72-cell mesh runs in one part, on the calling thread
    assert "threads = 1" in report and "mesh_parts = 1" in report


def test_run_overrides(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[scenario]\nname = lake_at_rest\n[run]\ntf = 0.5\n")
    code = main(["run", cfg, "--scheme", "IMEX", "--theta", "unity",
                 "--tf", "0.01", "--mesh", "cartesian:5:5",
                 "--out", str(tmp_path / "o")])
    assert code == 0


def test_run_on_mesh_file_matches_generated_mesh(tmp_path, capsys):
    # a mesh written to a file and read back gives the run of the
    # generated mesh, byte for byte
    cfg = _cfg(tmp_path, "[scenario]\nname = lake_at_rest\n")
    path = tmp_path / "tri6.swmesh"
    sc = get_scenario("lake_at_rest")
    write_mesh(build_triangulated(6, 6, sc.domain), path)
    outs = {}
    for name, mesh in (("file", str(path)), ("generated", "tri:6:6")):
        outs[name] = tmp_path / name
        assert main(["run", cfg, "--mesh", mesh, "--tf", "0.01",
                     "--out", str(outs[name])]) == 0
    for f in ("run_cut.csv", "run_final.vtk"):
        got = (outs["file"] / f).read_bytes()
        assert got and got == (outs["generated"] / f).read_bytes()


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[run]\nbogus = 1\n")
    code = main(["run", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_mesh_flag_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[scenario]\nname = lake_at_rest\n")
    code = main(["run", cfg, "--mesh", "cartesian:x:y",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "--only", "nosuch"]) == 2


def test_verify_single_fast_criterion(capsys):
    # run only the cheapest criteria to keep the test quick
    code = main(["verify", "--only", "oracles"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "1/1 criteria passed" in out


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_bad_solver_tol_flag_exits_2(tmp_path, capsys, tol):
    cfg = _cfg(tmp_path, "[scenario]\nname = lake_at_rest\n")
    code = main(["run", cfg, "--solver-tol", tol,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("line", ["solver_tol = 0", "solver_maxiter = 0"])
def test_bad_solver_config_exits_2(tmp_path, capsys, line):
    cfg = _cfg(tmp_path, f"[scenario]\nname = lake_at_rest\n[run]\n{line}\n")
    code = main(["run", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_reproduce_wb(tmp_path, capsys):
    code = main(["reproduce", "wb", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wb_EXEX:" in out and "wb_IMEX:" in out
    assert "[PASS] well-balanced lake at rest" in out
    for scheme in ("EXEX", "IMEX"):
        for suffix in ("final.vtk", "cut.csv", "report.txt"):
            assert (tmp_path / f"wb_{scheme}_{suffix}").exists()


def test_reproduce_and_verify_share_runs(tmp_path, monkeypatch, capsys):
    assert main(["reproduce", "wb", "--out", str(tmp_path)]) == 0

    def no_run(*args, **kwargs):
        raise AssertionError("run repeated")
    monkeypatch.setattr(acceptance, "run", no_run)
    assert acceptance.criterion_1_well_balanced().passed


def test_reproduce_rejects_run_flags(capsys):
    assert main(["reproduce", "wb", "--scheme", "IMEX"]) == 2


@pytest.mark.slow
def test_reproduce_dambreak(tmp_path, capsys):
    code = main(["reproduce", "dambreak", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    for tag in ("dambreak2d", "dambreak2d_IMEX"):
        for suffix in ("final.vtk", "cut.csv", "report.txt"):
            assert (tmp_path / f"{tag}_{suffix}").exists()
    assert (tmp_path / "dambreak1d_cut.csv").exists()
    assert "[PASS] dam break 1D/2D agreement" in out


LAKE = "[scenario]\nname = lake_at_rest\n"


@pytest.mark.parametrize("text, flags, named", [
    (LAKE + "[mesh]\ndomain = 0 a 1 2\n", [], "case.cfg"),
    (LAKE + "[run]\ntf = 1\ntf = 2\n", [], "case.cfg"),
    ("tf = 1\n", [], "case.cfg"),
    (LAKE + "[mesh]\nnx = 0\n", [], "case.cfg"),
    (LAKE, ["--mesh", "cartesian:0:4"], "--mesh"),
    (LAKE + "[mesh]\nkind = file\npath = nofile.swmesh\n", [],
     "nofile.swmesh"),
    (LAKE, ["--mesh", "nofile.swmesh"], "nofile.swmesh"),
    (LAKE + "[run]\ndt_max = 0\n", [], "case.cfg"),
    (LAKE + "[run]\ndt_max = -1\n", [], "case.cfg"),
    (LAKE + "[run]\ndt_max = nan\n", [], "case.cfg"),
    (LAKE + "[run]\ng = nan\n", [], "case.cfg"),
    (LAKE + "[run]\nkappa = nan\n", [], "case.cfg"),
    (LAKE, ["--tf", "-1"], "--tf"),
    (LAKE, ["--tf", "nan"], "--tf"),
    (LAKE + "[run]\ncut_y = nan\n", [], "case.cfg"),
    (LAKE + "[run]\ncut_y = 5\n", [], "cut_y"),
    ("[DEFAULT]\ntf = 0.5\n" + LAKE, [], "[DEFAULT]"),
    (LAKE + "[run]\noutput_every = -3\n", [], "case.cfg"),
], ids=["domain", "repeated-key", "no-section", "nx-0", "mesh-flag-nx-0",
        "mesh-file-missing", "mesh-flag-file-missing", "dt_max-0",
        "dt_max-negative", "dt_max-nan", "g-nan", "kappa-nan", "tf-negative",
        "tf-nan", "cut-y-nan", "cut-y-outside", "default-section",
        "output-every-negative"])
def test_malformed_input_exits_2(tmp_path, capsys, text, flags, named):
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "o"
    code = main(["run", cfg, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and named in err
    assert not out.exists()   # rejected before the first step
