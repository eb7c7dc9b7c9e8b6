"""Run one convexmix command with spans recorded around its coarse layer calls.

Usage: python trace_child.py TRACE.json ARG...   (``convexmix`` importable)

Each wrapped function covers a whole sequence or search in a single call;
the CLI reaches all of them through a module attribute, so replacing the
attribute is enough and the package itself is not edited.  Per-step
functions (``mixture.step``, ``oracle.accumulate``, ...) are never wrapped:
they run 1e5 times per command and a wrapper would distort what it measures.

Work counts are computed from arguments and results after a span's clock
stops, on a clock that is paused meanwhile, so counting shows up in no
span and not in the unattributed remainder either.  TRACE.json receives
the exit code, the wall time of ``cli.main`` and the spans as
``[name, parent index or null, start, end, ok, counts]``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

from convexmix import audit, bounds, cli, mixture, oracle, signals


def _grid_points(a, _result):
    weights = math.floor(1.0 / a["resolution"] + 1e-9) + 1
    return {"points": len(a["samples"]) * weights}


# (module, function) -> counts taken from the bound arguments and the result
COUNTERS = {
    (signals, "generate"): lambda a, r: {"samples": len(r)},
    (signals, "write_trajectory"): lambda a, r: {
        "rows": len(a["frame"]), "bytes": os.path.getsize(a["path"])},
    (signals, "read_trajectory"): lambda a, r: {"rows": len(r)},
    (mixture, "run"): lambda a, r: {
        "steps": len(r),
        "projected": int(r.projected.sum()),
        "out_of_range": int(len(r) - r.in_range.sum()),
    },
    (oracle, "stats_from"): lambda a, r: {"samples": r.n},
    (oracle, "grid_best_beta"): _grid_points,
    (bounds, "per_step_margins"): lambda a, r: {"checks": int(r.size)},
    (audit, "search_violations"): lambda a, r: {
        "instances": int(a["budget"]), "violations": len(r)},
    (cli, "summarize"): lambda a, r: {"steps": len(a["traj"])},
    (cli, "render_regret_svg"): lambda a, r: {"bytes": len(r.encode())},
    (cli, "run_verification"): lambda a, r: {},
}


class Tracer:
    """Span recorder on a clock that excludes the tracer's own counting."""

    def __init__(self):
        self.spans: list = []
        self.paused = 0.0
        self._stack: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, module, name, counter):
        fn = getattr(module, name)
        sig = inspect.signature(fn)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            ok = False
            start = self.now()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = self.now()
                self._stack.pop()
                t0 = time.perf_counter()
                counts = counter(sig.bind(*args, **kwargs).arguments, result) if ok else {}
                self.spans[index] = [label, parent, start, end, ok, counts]
                self.paused += time.perf_counter() - t0
            return result

        return traced


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for (module, name), counter in COUNTERS.items():
        setattr(module, name, tracer.wrap(module, name, counter))
    start = tracer.now()
    rc = cli.main(cli_args)
    main_s = tracer.now() - start
    with open(out, "w") as fh:
        json.dump({"rc": rc, "main_s": main_s, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
