"""Record the outputs the benchmark checks against, from the code as it stands.

Usage: python3 perfbench/record_reference.py

Runs every workload once at each size and writes ``reference.json``.  The
reference is meant to be recorded once, at a commit whose outputs are
known to be right; re-recording accepts whatever the code now produces.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run
import workloads

# The seed only drives the random draws; the recorded facts do not depend on it.
SEED = 0


def main() -> int:
    reference = {"recorded_at": run._commit()}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT)
    try:
        for name in workloads.NAMES:
            reference[name] = {}
            for size in workloads.SIZES:
                for i, args in enumerate(workloads.argvs(name, size, SEED, work)):
                    child = run.spawn(["-m", "convexmix", *args], os.path.join(work, f"child{i}.log"))
                    if child.rc != 0:
                        raise SystemExit(f"{name} ({size}): {args[0]} exited {child.rc}")
                reference[name][size] = workloads.observe(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
