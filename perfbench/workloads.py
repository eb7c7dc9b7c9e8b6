"""The benchmark's workloads: the convexmix commands each one runs and its output checks.

A workload is a list of CLI argument vectors run one after another in fresh
processes.  ``observe`` reads what the commands wrote into the work
directory and ``compare`` checks it against the values recorded at the
reference commit (``reference.json``, written by ``record_reference.py``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
# self-test, which must finish in seconds.
SIZES = {
    "full": {"case1_n": 100_000, "verify_trials": 200, "verify_n": 1000, "audit_budget": 2_000_000},
    "tiny": {"case1_n": 2_000, "verify_trials": 5, "verify_n": 200, "audit_budget": 20_000},
}

NAMES = ("case1_run_plot", "verify_random", "lemma_audit")

# The columns the combiner alone determines.  The comparator-dependent
# columns (best_beta_prefix, best_loss_prefix, regret, norm_regret,
# bound_norm) are left out on purpose: a corrected comparator may change them.
COMBINER_COLUMNS = ("t", "y", "yhat1", "yhat2", "lambda", "rho", "yhat", "e",
                    "cum_loss", "in_range", "projected")
PINNED_SUMMARY = ("n", "l_alg", "final_lambda", "projected_steps")

# The margin suite checks 5 fixed and 20 random comparators at every
# in-range step and skips out-of-range ones, so a skipped step stands for
# this many checks when counting the suite's coverage.
MARGINS_PER_STEP = 25
CONSTRUCTION_TOL = 1e-12


def argvs(name: str, size: str, seed: int, work: str) -> list[list[str]]:
    """Command lines (after ``convexmix``) of one invocation of the workload."""
    s = SIZES[size]
    path = lambda leaf: os.path.join(work, leaf)  # noqa: E731
    if name == "case1_run_plot":
        return [
            ["run", "--case", "1", "--n", str(s["case1_n"]),
             "--out", path("trajectory.csv"), "--summary", path("summary.json")],
            ["plot", "--input", path("trajectory.csv"), "--logx", "--out", path("trajectory.svg")],
        ]
    if name == "verify_random":
        return [["verify", "--trials", str(s["verify_trials"]), "--n", str(s["verify_n"]),
                 "--seed", str(seed), "--out", path("verify_report.json")]]
    if name == "lemma_audit":
        return [["lemma-audit", "--eps", "0.1", "--budget", str(s["audit_budget"]),
                 "--seed", str(seed), "--out", path("lemma_witnesses.json")]]
    raise ValueError(f"unknown workload {name!r}")


def combiner_digest(path: str) -> str:
    """SHA-256 of the combiner columns of a trajectory CSV, parsed to float64."""
    with open(path, "rb") as fh:
        return _columns_digest(hashlib.sha256(fh.read()).hexdigest(), path)


@functools.lru_cache(maxsize=4)
def _columns_digest(file_sha256: str, path: str) -> str:
    # Keyed on the whole file's hash: a byte-identical file, as every repeat
    # of a deterministic run writes, is parsed once per process.
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(c) for c in COMBINER_COLUMNS]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, dtype=np.float64, ndmin=2)
    return hashlib.sha256(data.tobytes()).hexdigest()


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def observe(name: str, work: str) -> dict:
    """The checked facts about one invocation's outputs."""
    if name == "case1_run_plot":
        summary = _load(os.path.join(work, "summary.json"))
        return {
            "combiner_sha256": combiner_digest(os.path.join(work, "trajectory.csv")),
            "summary": {k: summary[k] for k in PINNED_SUMMARY},
            "svg_root": ET.parse(os.path.join(work, "trajectory.svg")).getroot().tag,
        }
    if name == "verify_random":
        report = _load(os.path.join(work, "verify_report.json"))
        checks = {}
        for suite, body in report["suites"].items():
            skipped = body.get("skipped_out_of_range_steps", 0)
            checks[suite] = body["checked"] + MARGINS_PER_STEP * skipped
        return {"all_pass": report["all_pass"], "checks": checks}
    if name == "lemma_audit":
        payload = _load(os.path.join(work, "lemma_witnesses.json"))
        return {
            "violation_count": payload["violation_count"],
            "construction_margins": {k: v["margin"] for k, v in payload["constructions"].items()},
        }
    raise ValueError(f"unknown workload {name!r}")


def compare(name: str, seen: dict, ref: dict) -> list[str]:
    """Differences between observed outputs and the reference; empty means correct."""
    problems = []
    if name == "case1_run_plot":
        for key in ("combiner_sha256", "summary", "svg_root"):
            if seen[key] != ref[key]:
                problems.append(f"{key}: got {seen[key]!r}, reference {ref[key]!r}")
    elif name == "verify_random":
        if seen["all_pass"] is not True:
            problems.append("all_pass is not true")
        for suite, want in ref["checks"].items():
            got = seen["checks"].get(suite)
            if got is None or got < want:
                problems.append(f"suite {suite}: {got} checks, reference {want}")
    elif name == "lemma_audit":
        if seen["violation_count"] != 0:
            problems.append(f"violation_count is {seen['violation_count']}")
        for label, want in ref["construction_margins"].items():
            got = seen["construction_margins"].get(label)
            if got is None or abs(got - want) > CONSTRUCTION_TOL:
                problems.append(f"construction {label}: margin {got!r}, reference {want!r}")
    return problems
