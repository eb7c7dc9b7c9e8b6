"""Self-test of the benchmark at tiny workload sizes (about a minute).

Usage: python3 perfbench/selftest.py

Checks that every workload, in both modes, passes its output check and
prints exactly the metrics ``BENCHMARK.json`` names, each with its unit;
and that the output check flags a trajectory whose ``lambda`` column was
changed in one cell by one unit in the last place.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

import run
import workloads


def metric_problems(bench: dict) -> list[str]:
    problems = []
    for name in workloads.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, seed=3, seconds=0.1, trace=trace, size="tiny")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"unexpected {sorted(set(got) - set(want))}, "
                                f"unit mismatch {sorted(k for k in got if k in want and got[k] != want[k])}")
    return problems


def tamper_problems() -> list[str]:
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        reference = json.load(fh)
    name = "case1_run_plot"
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        inv = run.invoke(name, "tiny", 0, work, False, reference, [])
        if inv.problems:
            return [f"untampered {name} failed its check: {inv.problems}"]
        path = os.path.join(work, "trajectory.csv")
        with open(path) as fh:
            lines = fh.read().split("\n")
        col = lines[0].split(",").index("lambda")
        cells = lines[10].split(",")
        cells[col] = f"{np.nextafter(float(cells[col]), 1.0):.17g}"
        lines[10] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        seen = workloads.observe(name, work)
        if not workloads.compare(name, seen, reference[name]["tiny"]):
            return ["a trajectory with one lambda cell changed passed the output check"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = tamper_problems() + metric_problems(bench)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
