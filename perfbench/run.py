"""Benchmark of the ``convexmix`` command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload, both modes

Each workload runs closed-loop: one CLI child process at a time, the next
invocation starting when the previous one has been checked.  Invocations
repeat until ``--seconds`` is used up (at least one always runs).

``--trace 0`` times plain ``python -m convexmix`` children and reports the
end-to-end metrics: median wall time of an invocation, the largest child
peak RSS (each child's own rusage from ``os.wait4``) and the set-up time of
a child that only imports the package and builds its parser.  Both times
are scaled to a fixed machine speed: a fixed CPU loop (the probe) is timed
before every workload child, before the set-up children of each round and
once at the end, and each child's wall time is multiplied by
``PROBE_REF_S`` over the mean of the two probes around it.
The benchmark and its children are pinned to one CPU, so probe and child
see the same core.

``--trace 1`` alternates plain invocations with traced ones (the same
arguments through ``trace_child.py``) and reports per-layer metrics from the
traced spans: self time, work counts and failures per module, the time no
span covers, the tracing overhead, child CPU time and a machine-speed probe.

Every invocation's outputs are checked against ``reference.json``; a
non-zero exit or a failed check counts in ``failed`` and clears ``correct``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 120  # a run must end within 180 s even if a child hangs
# The probe's time at the reference machine speed (about its median on the
# 2-vCPU Intel Xeon box the benchmark was defined on).  Scaled times read as
# seconds on a machine where the probe takes this long.
PROBE_REF_S = 0.15

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

MODULES = ("signals", "mixture", "oracle", "bounds", "audit", "cli")
# traced span -> (count it is normalized by, name of the ns-per-unit metric)
SPAN_RATES = {
    "mixture.run": ("steps", "ns_per_step"),
    "cli.summarize": ("steps", "ns_per_step"),
    "signals.write_trajectory": ("rows", "ns_per_row"),
    "signals.read_trajectory": ("rows", "ns_per_row"),
    "cli.render_regret_svg": (None, None),
    "signals.generate": ("samples", "ns_per_sample"),
    "oracle.stats_from": ("samples", "ns_per_sample"),
    "oracle.grid_best_beta": ("points", "ns_per_point"),
    "bounds.per_step_margins": ("checks", "ns_per_check"),
    "cli.run_verification": (None, None),
    "audit.search_violations": ("instances", "ns_per_instance"),
}
# per-span counts reported as they are
SPAN_COUNTS = {
    "signals.write_trajectory": ("bytes",),
    "cli.render_regret_svg": ("bytes",),
    "audit.search_violations": ("violations",),
}


def _layer_units() -> dict:
    units = {"fail_frac": "frac",
             "mixture.run.calls": "count", "mixture.run.steps": "count",
             "mixture.run.projected_frac": "frac", "mixture.run.out_of_range_frac": "frac"}
    for span, (_, rate) in SPAN_RATES.items():
        units[f"{span}.self_s"] = "s"
        if rate:
            units[f"{span}.{rate}"] = "ns"
        for count in SPAN_COUNTS.get(span, ()):
            units[f"{span}.{count}"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.failures"] = "count"
    units.update({"other.self_s": "s", "trace.main_s": "s", "trace.overhead_frac": "frac",
                  "proc.cpu_s": "s", "proc.probe_s": "s", "proc.wall_s": "s", "proc.setup_s": "s"})
    return units


LAYER_UNITS = _layer_units()


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout(f"child ran longer than {CHILD_TIMEOUT_S} s")


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_kb: int


def spawn(argv: list[str], log: str) -> Child:
    """Run one child to completion; its stdout and stderr go to ``log``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    actions = [(os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    try:
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


_PROBE_X = np.linspace(0.0, 1.0, 20_000)  # cache-sized and allocated once: no page faults


def probe() -> float:
    """Time a fixed CPU loop (pure Python, then numpy) that does not touch convexmix."""
    start = time.perf_counter()
    acc = 0.0
    xs = []
    for i in range(1_000_000):
        acc += (i % 7) * 0.5
        if i % 8 == 0:
            xs.append(acc)
    xs.sort()
    y = _PROBE_X
    for _ in range(500):
        y = np.sqrt(y * 1.0001 + 1.0)
    return time.perf_counter() - start


@dataclass
class Invocation:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    walls: list = field(default_factory=list)  # per child: (index of the probe before it, wall)
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def invoke(name: str, size: str, seed: int, work: str, traced: bool, reference: dict,
           probes: list[float]) -> Invocation:
    """Run the workload's commands once, in fresh children, and check the outputs.

    Before each child a probe is timed and appended to ``probes``.
    """
    for leaf in os.listdir(work):
        os.remove(os.path.join(work, leaf))
    inv = Invocation(traced)
    for i, args in enumerate(workloads.argvs(name, size, seed, work)):
        trace_path = os.path.join(work, f"trace{i}.json")
        argv = [TRACE_CHILD, trace_path, *args] if traced else ["-m", "convexmix", *args]
        probes.append(probe())
        child = spawn(argv, os.path.join(work, f"child{i}.log"))
        inv.walls.append((len(probes) - 1, child.wall_s))
        inv.wall_s += child.wall_s
        inv.cpu_s += child.cpu_s
        inv.rss_kb = max(inv.rss_kb, child.rss_kb)
        if child.rc != 0:
            with open(os.path.join(work, f"child{i}.log")) as fh:
                tail = fh.read()[-500:]
            inv.problems.append(f"{args[0]} exited {child.rc}: {tail}")
            return inv
        if traced:
            with open(trace_path) as fh:
                inv.traces.append(json.load(fh))
    try:
        inv.problems += workloads.compare(name, workloads.observe(name, work), reference[name][size])
    except Exception as exc:  # a malformed output is a failed check, not a crash
        inv.problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return inv


def setup_time(work: str) -> float:
    """Wall time of a child that only imports convexmix and builds its parser."""
    child = spawn(["-m", "convexmix", "--help"], os.path.join(work, "setup.log"))
    if child.rc != 0:
        raise RuntimeError(f"convexmix --help exited {child.rc}")
    return child.wall_s


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced invocation (one trace per child)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    failures = defaultdict(int)
    main_s = other_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        inner = [0.0] * len(spans)
        for label, parent, start, end, ok, _ in spans:
            if parent is not None:
                inner[parent] += end - start
        covered = 0.0
        for i, (label, parent, start, end, ok, span_counts) in enumerate(spans):
            calls[label] += 1
            self_s[label] += (end - start) - inner[i]
            failures[label.split(".")[0]] += not ok
            for key, value in span_counts.items():
                counts[label][key] += value
            if parent is None:
                covered += end - start
        main_s += trace["main_s"]
        other_s += trace["main_s"] - covered

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counts["mixture.run"]["steps"]
    m = {
        "mixture.run.calls": calls["mixture.run"],
        "mixture.run.steps": steps,
        "mixture.run.projected_frac": per(counts["mixture.run"]["projected"], steps),
        "mixture.run.out_of_range_frac": per(counts["mixture.run"]["out_of_range"], steps),
    }
    for span, (unit, rate) in SPAN_RATES.items():
        m[f"{span}.self_s"] = self_s[span]
        if rate:
            m[f"{span}.{rate}"] = per(self_s[span] * 1e9, counts[span][unit])
        for count in SPAN_COUNTS.get(span, ()):
            m[f"{span}.{count}"] = counts[span][count]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        m[f"{module}.failures"] = failures[module]
    m["other.self_s"] = other_s
    m["trace.main_s"] = main_s
    return m


def _passed_or_all(invocations: list[Invocation]) -> list[Invocation]:
    return [inv for inv in invocations if not inv.problems] or invocations


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload for ``seconds``; returns the result object."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    _pin_to_one_cpu()
    try:
        setup_time(work)  # warm-up: bytecode caches, page cache
        invocations: list[Invocation] = []
        setups: list[tuple[int, float]] = []  # (index of the probe before, wall)
        probes = []  # one before the set-up children of a round and before every child
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            probes.append(probe())
            setups += [(len(probes) - 1, setup_time(work)) for _ in range(SETUP_PER_ROUND)]
            for traced in ((False, True) if trace else (False,)):
                invocations.append(invoke(name, size, seed, work, traced, reference, probes))
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - round_start) > seconds:
                break
        probes.append(probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def scaled(k: int, wall: float) -> float:
        """``wall`` at the reference machine speed, from the probes ``k`` and ``k + 1`` around it."""
        return wall * PROBE_REF_S / ((probes[k] + probes[k + 1]) / 2.0)

    def scaled_invocation(inv: Invocation) -> float:
        return sum(scaled(k, wall) for k, wall in inv.walls)

    failed = [inv for inv in invocations if inv.problems]
    for inv in failed:
        print(f"{name}: failed: {'; '.join(inv.problems)}", file=sys.stderr)
    info = {
        "workload": name, "seed": seed, "size": size,
        "invocations": len(invocations),
        "plain_walls_s": [inv.wall_s for inv in invocations if not inv.traced],
        "setup_walls_s": [wall for _, wall in setups],
        "probes_s": probes,
    }
    print(json.dumps({"info": info}))
    # Time the invocations that passed; if none of a kind did, time them all so
    # that the result still names every metric (it is marked incorrect anyway).
    plain = _passed_or_all([inv for inv in invocations if not inv.traced])
    traced = _passed_or_all([inv for inv in invocations if inv.traced])
    plain_scaled = statistics.median(scaled_invocation(inv) for inv in plain)
    if not trace:
        metrics = {
            "wall_s": plain_scaled,
            "peak_rss_mb": max(inv.rss_kb for inv in plain) / 1024.0,
            "setup_s": statistics.median(scaled(k, wall) for k, wall in setups),
        }
    else:
        per_inv = [layer_metrics(inv.traces) for inv in traced]
        metrics = {key: statistics.median(m[key] for m in per_inv) for key in per_inv[0]}
        metrics["fail_frac"] = len(failed) / len(invocations)
        metrics["trace.overhead_frac"] = (
            statistics.median(scaled_invocation(inv) for inv in traced) / plain_scaled - 1.0)
        metrics["proc.cpu_s"] = statistics.median(inv.cpu_s for inv in plain)
        metrics["proc.probe_s"] = statistics.median(probes)
        metrics["proc.wall_s"] = statistics.median(inv.wall_s for inv in plain)
        metrics["proc.setup_s"] = statistics.median(wall for _, wall in setups)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU it may use.

    The probe then runs on the core the children run on; the highest-numbered
    CPU is taken because interrupts tend to land on CPU 0.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(seed: int) -> dict:
    """Machine and software facts that explain differences between runs."""
    import ctypes
    import platform

    env = {"seed": seed, "python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "commit": _commit(), "probe_ref_s": PROBE_REF_S}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            if index.startswith("index"):
                with open(f"{cache}/{index}/level") as lv, open(f"{cache}/{index}/size") as sz:
                    level = lv.read().strip()
                    if level in ("2", "3"):
                        env[f"l{level}_cache"] = sz.read().strip()
        with open("/proc/self/maps") as fh:
            blas = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
        if blas:
            lib = ctypes.CDLL(blas)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    env["openblas_threads"] = getter()
                    break
    except (OSError, StopIteration) as exc:
        env["probe_error"] = str(exc)
    return env


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree; read from files, no git process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "convexmix", "cli.py")):
        print(f"error: no convexmix sources under {SRC}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    print(json.dumps({"env": environment(args.seed)}))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    for name in names:
        for mode in modes:
            result = run_workload(name, args.seed, args.seconds, bool(mode))
            if args.workload == "all":
                result = {"workload": name, "trace": mode, **result}
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
