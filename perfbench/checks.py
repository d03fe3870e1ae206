"""Correctness checks made apart from the measured path.

Each check recomputes what it needs itself: a connectivity ceiling from
brute-force distances, equality of results across engine block sizes,
the arg-optimum of a dense analytical sweep.  None compares against a
recorded output.  A failed check is recorded in a ``Checks`` object and
fails the run.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Sequence

import numpy as np


class Checks:
    """Collects check failures; the run is correct when none occurred."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.made = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.made += 1
        if not ok:
            self.failures.append(what)
            print(f"[{self.workload}] CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def run_invariants(checks: Checks, run: Any, *, flooding: bool, where: str) -> None:
    """Per-replication invariants of one broadcast run."""
    mask = run.informed_mask
    informed = int(mask.sum())
    first_informs = int(run.new_informed_by_slot.sum())
    checks.expect(
        mask.shape == (run.n_field_nodes + 1,) and bool(mask[0])
        and informed == first_informs + 1,
        f"{where}: informed mask ({informed}) disagrees with the per-slot "
        f"series ({first_informs} + source)",
    )
    checks.expect(
        run.broadcasts_total <= informed,
        f"{where}: {run.broadcasts_total} broadcasts > {informed} informed",
    )
    checks.expect(
        run.total_rx >= first_informs,
        f"{where}: {run.total_rx} receptions < {first_informs} first informs",
    )
    if flooding:
        checks.expect(
            run.broadcasts_total == informed,
            f"{where}: flooding relayed {run.broadcasts_total} times for "
            f"{informed} informed nodes",
        )


def source_component(positions: np.ndarray, radius: float, chunk: int = 512) -> np.ndarray:
    """Nodes connected to node 0 in the unit-disk graph (boolean mask).

    Brute force: all pairwise squared distances, chunk by chunk, then a
    breadth-first search from the source.
    """
    n = len(positions)
    r2 = radius * radius
    nbrs: list[np.ndarray] = []
    for lo in range(0, n, chunk):
        block = positions[lo : lo + chunk]
        d2 = ((block[:, None, :] - positions[None, :, :]) ** 2).sum(-1)
        rows, cols = np.nonzero(d2 <= r2)
        cuts = np.searchsorted(rows, np.arange(len(block) + 1))
        nbrs.extend(cols[cuts[i] : cuts[i + 1]] for i in range(len(block)))
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            fresh = nbrs[u][~seen[nbrs[u]]]
            seen[fresh] = True
            nxt.extend(fresh.tolist())
        frontier = nxt
    return seen


def ceiling_check(checks: Checks, run: Any, positions: np.ndarray, radius: float, where: str) -> None:
    """Reachability never exceeds the source's connected component."""
    comp = source_component(positions, radius)
    ceiling = (int(comp.sum()) - 1) / run.n_field_nodes
    checks.expect(
        len(comp) == len(run.informed_mask)
        and not bool(np.any(run.informed_mask & ~comp))
        and run.reachability <= ceiling,
        f"{where}: reachability {run.reachability:.4f} exceeds the "
        f"connected-component ceiling {ceiling:.4f}",
    )


_RUN_ARRAYS = ("new_informed_by_slot", "broadcasts_by_slot", "informed_mask")
_RUN_SCALARS = ("n_field_nodes", "collisions", "total_tx", "total_rx")


def same_run(a: Any, b: Any) -> bool:
    """Field-by-field equality of two RunResults (telemetry excluded)."""
    if any(getattr(a, f) != getattr(b, f) for f in _RUN_SCALARS):
        return False
    if not all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _RUN_ARRAYS):
        return False
    ta, tb = a.trace, b.trace
    return (
        np.array_equal(ta.new_by_phase_ring, tb.new_by_phase_ring)
        and np.array_equal(ta.broadcasts_by_phase, tb.broadcasts_by_phase)
        and ta.config == tb.config
    )


def same_values(a: Any, b: Any) -> bool:
    """Equality of JSON-like documents with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_values(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_values(x, y) for x, y in zip(a, b, strict=True))
    return a == b


def bounds_hold(metrics: dict, bounds: dict) -> bool:
    """The benchmark's own reading of a query's bounds on returned metrics."""
    for name, value in bounds.items():
        got = metrics[name]
        if got is None or (isinstance(got, float) and math.isnan(got)):
            return False
        if name == "reachability" and not got >= value:
            return False
        if name in ("latency", "energy") and not got <= value:
            return False
    return True


def dense_optimum(values: Sequence[float], sense: str) -> int | None:
    """First index of the best finite value (ties go to the lowest p)."""
    best: int | None = None
    for i, v in enumerate(values):
        if not math.isfinite(v):
            continue
        if best is None or (v > values[best] if sense == "max" else v < values[best]):
            best = i
    return best
