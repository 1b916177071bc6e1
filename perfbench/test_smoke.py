"""The benchmark's own test: smoke-size runs of every workload print every
metric of BENCHMARK.json with its unit, pass their output check, and repeat
their exact counts; tracing tolerates missing functions."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Counts that must repeat exactly between runs of one input.
EXACT = ("driver.steps", "flux_kernels.evaluate_face_fluxes.calls",
         "acoustic.implicit_acoustic.calls", "acoustic.solve_implicit.calls",
         "acoustic.assemble_implicit.nnz", "acoustic.imex_rejections")


def _run(workload, trace, seed=3, cwd=ROOT, runner=RUN):
    out = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload):
    counts = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, out.stdout
        assert result["failed"] == 0 and result["attempted"] >= 3
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        if trace:
            report = json.loads(out.stdout.splitlines()[-2])["report"]
            counts.append([report["cells"], report["faces"]]
                          + [result["metrics"][k]["value"] for k in EXACT])
    assert counts[0] == counts[1]


def test_needs_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("imex_vortex_80", 0, cwd=tmp_path,
               runner=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_missing_function_is_absent():
    absent = set()
    tracer = spans.Tracer()
    targets = [("json", "dumps", "json.dumps", None),
               ("json", "no_such_function", "json.gone", None),
               ("no_such_module", "f", "nowhere.f", None)]
    original = json.dumps
    with spans.installed(tracer, targets, absent):
        assert json.dumps is not original
        json.dumps({})
    assert json.dumps is original
    assert absent == {"json.gone", "nowhere.f"}
    assert [s.name for s in tracer.spans] == ["json.dumps"]


def test_self_time_excludes_children_and_hooks():
    s = [spans.Span("a", -1, 0.0, 10.0), spans.Span("b", 0, 1.0, 4.0),
         spans.Span(spans.HOOK, 0, 4.0, 5.0), spans.Span("c", 1, 2.0, 3.0)]
    # (duration without hooks, self time) per span
    assert spans.summarize(s) == [(9.0, 6.0), (3.0, 2.0), (1.0, 1.0),
                                  (1.0, 1.0)]
