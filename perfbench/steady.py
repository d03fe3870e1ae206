"""Steadiness of the end-to-end figures across fresh processes.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads serve-mixed --seconds 15

Runs every chosen workload ``--runs`` times through ``run.py``, each
run a fresh process with its own seed (``--first-seed`` + run index),
alternating the workload order between passes.  For each workload and
end-to-end metric it prints the median, the quartiles, the spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) and that spread against the
metric's bound in BENCHMARK.json, plus the share of failed operations.
A spread within a third of its bound reads "steady", within the bound
"within bound".  Exits non-zero when a run fails or a spread other than
``setup_s`` exceeds its bound.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    shares: dict[str, set[tuple[int, int]]] = defaultdict(set)
    failed_runs = 0
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for name in order:
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            doc = json.loads(lines[-1])
            shares[name].add((doc["failed"], doc["attempted"]))
            for metric, v in doc["metrics"].items():
                values[name][metric].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in doc["metrics"].items()), flush=True)

    unsteady = 0
    print(f"\n{'workload':<16}{'metric':<15}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for name in args.workloads:
        share = {f / a for f, a in shares[name]}
        print(f"{name}: failed share {sorted(share)}")
        for m in spec["end_to_end"]:
            vals = values[name].get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif m["name"] == "setup_s":
                verdict = "not gated"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                unsteady += 1
            print(f"{'':<16}{m['name']:<15}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}"
                  f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
    return 1 if failed_runs or unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
