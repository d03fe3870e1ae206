"""One workload in its own process: set up, measure, check, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``READY`` once set-up (imports, store, warm-up
operation) is done, then, unless ``--setup-only``, one ``RESULT`` line
holding a JSON document.

Untraced (``--trace 0``): whole rounds for ``--seconds`` of measured
time; the end-to-end figures.  Traced (``--trace 1``): each round runs
untraced and then again with every layer entry point wrapped, until
both together fill ``--seconds``; the per-layer figures of the traced
rounds, the tracing overhead between the two, and a span file next to
the work directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Any

from checks import Checks
from common import Pass, end_to_end
from tracing import Tracer, layer_metrics

WORKLOADS = ("grid-sparse", "grid-flood", "serve-mixed", "optimize-query")


def make_workload(name: str, seed: int, checks: Checks, work_dir: Path) -> Any:
    if name.startswith("grid-"):
        from wl_grid import GridWorkload

        return GridWorkload(name, seed, checks)
    if name == "serve-mixed":
        from wl_serve import ServeWorkload

        return ServeWorkload(name, seed, checks, work_dir)
    from wl_optimize import OptimizeWorkload

    return OptimizeWorkload(name, seed, checks)


def _close(wl: Any) -> None:
    if hasattr(wl, "close"):
        wl.close()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    checks = Checks(args.workload)
    wl = make_workload(args.workload, args.seed, checks, args.work_dir)
    twin = None
    try:
        wl.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            measured = wl.measure(seconds=args.seconds)
            metrics = end_to_end(measured)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = peak_kb / 1024.0
            passes = [measured]
        else:
            # Each round runs untraced, then again traced on the same
            # inputs; serve-mixed replays it on a twin service set up the
            # same way, so the same requests miss on both.
            tracer = Tracer()
            tracer.install()
            twin = wl
            if args.workload == "serve-mixed":
                twin = make_workload(args.workload, args.seed, checks, args.work_dir)
                twin.setup()
            plain, traced = Pass(), Pass()
            k = 0
            try:
                while plain.busy_s + traced.busy_s < args.seconds:
                    plain.extend(wl.measure(rounds=[k]))
                    tracer.enabled = True
                    traced.extend(twin.measure(rounds=[k], tracer=tracer))
                    tracer.enabled = False
                    k += 1
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced.ops), getattr(twin, "coalesced", 0))
            per_op = [p.busy_s / len(p.ops) for p in (plain, traced)]
            metrics["bench.trace_overhead_pct"] = 100.0 * (per_op[1] / per_op[0] - 1.0)
            tracer.write_jsonl(args.work_dir.parent / f"trace-{args.workload}.jsonl")
            passes = [plain, traced]
        wl.check()
    finally:
        _close(wl)
        if twin is not None and twin is not wl:
            _close(twin)

    doc = {
        "correct": checks.correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "checks": checks.made,
        "metrics": metrics,
    }
    print("RESULT " + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
