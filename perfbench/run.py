"""lpswe benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The workload runs in a fresh child
interpreter (``bench.py``) against ``src/`` of this checkout, with the
BLAS/OpenMP thread variables set to 1 before numpy loads; a fresh process
also makes ``peak_rss_mb`` the workload's own.  The child prints a report
line (inputs, counts, machine) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  ``--smoke`` runs the
same code paths on small meshes in a few seconds.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 0
# A run must end within 180 s; the child is stopped before that.
CHILD_TIMEOUT_S = 170


def main(argv=None):
    ap = argparse.ArgumentParser(description="lpswe benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpswe", "__init__.py")):
        print(f"run.py: no lpswe package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"run.py: workload exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
