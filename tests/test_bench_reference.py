"""The benchmark's output check, run in-process at its tiny workload sizes.

Each workload's commands go through ``cli.main`` in a temporary directory,
and what they wrote must match ``perfbench/reference.json`` exactly as the
benchmark itself compares it, so a change that would fail the benchmark's
correctness gate fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from convexmix import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_matches_reference(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    work = str(tmp_path)
    for argv in workloads.argvs(name, "tiny", 0, work):
        assert cli.main(argv) == 0, argv
    seen = workloads.observe(name, work)
    assert workloads.compare(name, seen, REFERENCE[name]["tiny"]) == []
