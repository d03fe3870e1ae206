"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload grid-sparse --seed 1 --seconds 15 --trace 0

Runs the workload in a child process (``child.py``) against the
program under ``src`` of the checkout this file sits in, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end figures, with ``--trace 1`` the per-layer figures of a
traced pass.  ``setup_s`` is the median, over ``SETUP_SAMPLES`` fresh
processes, of the time from process start to the end of set-up (the
last sample is the measuring child itself).  Exits non-zero when the
program is missing, a check fails, or the child does not finish.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-sparse", "grid-flood", "serve-mixed", "optimize-query")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # whole invocation, set-up samples included


class ChildFailed(RuntimeError):
    pass


def _run_child(args: argparse.Namespace, work_dir: Path, deadline: float,
               setup_only: bool) -> tuple[float, dict | None]:
    """Start one child; return (seconds to READY, RESULT document)."""
    src = ROOT / "src"
    env = dict(os.environ)
    paths = [str(src)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s: float | None = None
    result: dict | None = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.strip() == "READY" and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None or (result is None and not setup_only):
        raise ChildFailed(f"{args.workload} child exited with code {code}")
    return ready_s, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_child(args, work_dir, deadline, setup_only=True)[0])
        ready_s, result = _run_child(args, work_dir, deadline, setup_only=False)
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    assert result is not None
    if not args.trace:
        setups.append(ready_s)
        result["metrics"]["setup_s"] = statistics.median(setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units.get(name, "")}
    print(f"checks made: {result['checks']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
