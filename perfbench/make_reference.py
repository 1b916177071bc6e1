"""Recompute reference.json: h_err_l1 for every distinct seed-generated
input of each workload, full size and smoke size.

    python3 perfbench/make_reference.py

The output check of bench.py compares each run against these values, so
regenerate them only in a change that redefines the benchmark.
"""

import json
import os
import sys

from run import ROOT, THREAD_ENV

os.environ.update(THREAD_ENV)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402


def main():
    out = {}
    for section, table in (("full", bench.WORKLOADS), ("smoke", bench.SMOKE)):
        out[section] = {}
        for name, w in table.items():
            # Vortex seeds differ by whole-cell shifts only: one value.
            seeds = (range(len(bench.dam_positions(w.n)))
                     if w.scenario == "dambreak" else [0])
            p = bench.params(w)
            values = {}
            for seed in seeds:
                case = bench.make_case(w, seed, p)
                rep = bench.one_rep(w, case, p, None)
                if rep["failure"] is not None:
                    sys.exit(f"{section} {name} seed {seed}: {rep['failure']}")
                values[case.key] = rep["h_err_l1"]
                print(section, name, case.key, rep["h_err_l1"], flush=True)
            out[section][name] = values
    with open(bench.REFERENCE_FILE, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
