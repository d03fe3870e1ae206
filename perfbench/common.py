"""Operation records and the end-to-end figures computed from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Op:
    """One timed workload operation (a sweep, a served query, an optimize call)."""

    latency_s: float
    runs: int  # Monte-Carlo replications the operation delivered
    attempted: int  # units counted in ``attempted``: replications or queries
    failed: bool = False


@dataclass
class Pass:
    """The operations of one measuring pass over whole rounds.

    Workloads run ``measure(seconds=...)`` (whole rounds until that much
    time is measured) or ``measure(rounds=[...])`` (exactly those rounds,
    for the traced run).  Untraced operations are checked outside their
    timed region; the workload's ``check()`` runs after ``peak_rss_mb``
    is read.  Only small samples are kept until then: results kept alive
    across operations pin heap pages and would inflate ``peak_rss_mb``.

    The grids and optimize-query run a full garbage collection after each
    operation, outside its timed region.  Each batched-engine block
    leaves its stacked adjacency in a reference cycle that only the
    cyclic collector frees; without the collection ``peak_rss_mb`` would
    count how many blocks fit before the interpreter's own collection
    (it climbs by ~55 MB per 30-run flooding block) rather than what one
    operation needs.  serve-mixed does not: a collection between
    requests would stall the other client.
    """

    ops: list[Op] = field(default_factory=list)
    busy_s: float = 0.0  # time the operations took (loop wall for the served loop)
    rounds: int = 0

    def extend(self, other: "Pass") -> None:
        self.ops += other.ops
        self.busy_s += other.busy_s
        self.rounds += other.rounds

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.attempted for op in self.ops if op.failed)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(p: Pass) -> dict[str, float]:
    """The untraced figures of one pass (setup and memory are added later)."""
    lat = [op.latency_s for op in p.ops]
    return {
        "runs_per_s": sum(op.runs for op in p.ops) / p.busy_s,
        "queries_per_s": len(p.ops) / p.busy_s,
        "query_p50_ms": 1e3 * percentile(lat, 0.50),
        "query_p99_ms": 1e3 * percentile(lat, 0.99),
    }
