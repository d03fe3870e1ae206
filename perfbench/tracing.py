"""Span recording around the program's layer entry points.

The traced run replaces each entry point listed in ``ENTRY_POINTS`` with
a wrapper, at the name its callers look it up by (a module global, or a
class attribute for methods).  A wrapper records one span -- name,
start, end, parent span id, thread -- and may feed a hook that counts
work from the call's arguments or result.  Parent ids travel in a
``ContextVar``, so spans nest correctly across asyncio tasks; executor
threads start with an empty context, so their spans are roots.

Spans stay in memory and are written out as JSON lines when the run
ends.  ``layer_metrics`` turns them into the per-layer figures listed in
BENCHMARK.json; self time is a span's duration less the union of its
children's intervals.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

OP = "bench.op"  # root span around one timed workload operation

Hook = Callable[["Tracer", tuple, dict, Any, float, float], None]


def _count_edges(tr: "Tracer", _a: tuple, _k: dict, topo: Any, _t0: float, _t1: float) -> None:
    tr.counts["edges"] += len(topo.indices)


def _count_resolve(tr: "Tracer", _a: tuple, _k: dict, delivery: Any, _t0: float, _t1: float) -> None:
    tr.counts["collisions"] += len(delivery.collided)


def _count_runs(tr: "Tracer", _a: tuple, _k: dict, results: Any, _t0: float, _t1: float) -> None:
    if not isinstance(results, list):
        results = [results]
    for r in results:
        tr.counts["runs"] += 1
        tr.counts["slots"] += len(r.new_informed_by_slot)
        tr.counts["tx_nodes"] += r.broadcasts_total
        tr.counts["deployed_nodes"] += r.n_field_nodes + 1


def _count_put(tr: "Tracer", _a: tuple, _k: dict, nbytes: Any, _t0: float, _t1: float) -> None:
    tr.counts["put_bytes"] += nbytes


def _count_lookup(tr: "Tracer", args: tuple, _k: dict, batch: Any, _t0: float, t1: float) -> None:
    tr.counts["memory_lookups"] += 1
    if batch:
        tr.counts["memory_hits"] += 1


def _note_dispatch(tr: "Tracer", args: tuple, _k: dict, batch: Any, _t0: float, t1: float) -> None:
    # The service peeks the memory tier right before it dispatches a
    # miss, with no await in between: a failed peek marks the dispatch.
    _count_lookup(tr, args, _k, batch, _t0, t1)
    if not batch:
        tr.dispatched[args[1]] = t1


def _note_batch_start(tr: "Tracer", args: tuple, _k: dict) -> None:
    start = time.perf_counter()
    for key in args[1]:
        t_dispatch = tr.dispatched.pop(key, None)
        if t_dispatch is not None:
            tr.miss_waits.append(start - t_dispatch)


def _count_probes(tr: "Tracer", _a: tuple, _k: dict, outcome: Any, _t0: float, _t1: float) -> None:
    tr.counts["probes"] += outcome.probes


def _count_verify(tr: "Tracer", args: tuple, kwargs: dict, _r: Any, _t0: float, _t1: float) -> None:
    tr.counts["sim_runs"] += len(args[2]) * kwargs["replications"]


#: (module, owner attribute or None, entry point, span name, hook, pre-call hook)
ENTRY_POINTS: tuple[tuple[str, str | None, str, str, Hook | None, Any], ...] = (
    ("repro.network.deployment", "DeploymentBatch", "sample", "network.sample", None, None),
    ("repro.network.deployment", "DeploymentBatch", "stacked_topology", "network.stacked_topology", _count_edges, None),
    ("repro.models.cam", "BatchCollisionAwareChannel", "resolve_slot", "models.resolve", _count_resolve, None),
    ("repro.models.cfm", "BatchCollisionFreeChannel", "resolve_slot", "models.resolve", _count_resolve, None),
    ("repro.sim.engine", None, "run_broadcast_batch", "sim.batch", _count_runs, None),
    ("repro.sim.engine", None, "run_broadcast", "sim.per_run", _count_runs, None),
    ("repro.store.keys", None, "task_key", "store.key", None, None),
    ("repro.serve.compute", None, "task_key", "store.key", None, None),
    ("repro.store.backend", "ShardedBackend", "get", "store.get", None, None),
    ("repro.store.backend", "ShardedBackend", "put", "store.put", _count_put, None),
    ("repro.store.journal", "SweepJournal", "append", "store.journal", None, None),
    ("repro.store.journal", "ShardJournal", "append", "store.journal", None, None),
    ("repro.serve.service", "QueryService", "query", "serve.query", None, None),
    ("repro.serve.service", None, "parse_request", "serve.parse", None, None),
    ("repro.serve.compute", None, "plan_tasks", "serve.plan", None, None),
    ("repro.serve.memory", "MemoryTier", "peek", "serve.memory", _note_dispatch, None),
    ("repro.serve.memory", "MemoryTier", "get", "serve.memory", _count_lookup, None),
    ("repro.serve.service", None, "evaluate_runs", "serve.evaluate", None, None),
    ("repro.serve.compute", None, "execute_tasks", "serve.execute", None, _note_batch_start),
    ("repro.analysis.ring_model", "RingModel", "run", "analysis.ring_model", None, None),
    ("repro.analysis.ring_model", "RingModel", "run_batch", "analysis.ring_model", None, None),
    ("repro.collision.slots", None, "no_singleton_table", "collision.table", None, None),
    ("repro.optimize.api", None, "search_frontier", "optimize.search", _count_probes, None),
    ("repro.optimize.api", None, "verify_candidates", "optimize.verify", _count_verify, None),
)


class Tracer:
    """In-memory span recorder that patches and restores entry points.

    Callers that capture an entry point when they are built (the
    service's plan and execute callables) must be built after
    ``install``; ``enabled`` then switches recording on and off.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.dispatched: dict[str, float] = {}
        self.miss_waits: list[float] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span", default=0
        )
        self._restore: list[tuple[Any, str, Any]] = []
        self.enabled = False  # installed wrappers record only while set

    # -- recording -------------------------------------------------------
    def _open(self) -> tuple[int, int, contextvars.Token[int], float]:
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        return sid, parent, token, time.perf_counter()

    def _close(self, name: str, opened: tuple[int, int, contextvars.Token[int], float]) -> float:
        sid, parent, token, t0 = opened
        t1 = time.perf_counter()
        self._current.reset(token)
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
        return t1

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """Root span around one timed workload operation."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(OP, opened)

    # -- patching --------------------------------------------------------
    def _wrap(self, func: Callable, name: str, hook: Hook | None, before: Any) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(func):

            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                opened = tracer._open()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(name, opened)

            return async_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            opened = tracer._open()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = tracer._close(name, opened)
            if hook is not None:
                hook(tracer, args, kwargs, result, opened[3], t1)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, owner_name, attr, name, hook, before in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(raw.__func__, name, hook, before))
            else:
                patched = self._wrap(raw, name, hook, before)
            setattr(owner, attr, patched)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, t0, t1, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start_s": t0, "end_s": t1, "thread": thread}
                    )
                    + "\n"
                )


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer: Tracer, n_ops: int, coalesced: int) -> dict[str, float]:
    """Per-layer figures from one traced pass of ``n_ops`` operations.

    ``*_ms`` and counts are per workload operation, ``*_us`` per call of
    the entry point; ``sim.*_engine_ms`` are self times.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _th in tracer.spans:
        if parent:
            children[parent].append((t0, t1))
    incl: defaultdict[str, float] = defaultdict(float)
    self_t: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    op_wall = 0.0
    op_covered = 0.0
    for sid, _parent, name, t0, t1, _th in tracer.spans:
        covered = _union(children.get(sid, []))
        if name == OP:
            op_wall += t1 - t0
            op_covered += covered
            continue
        incl[name] += t1 - t0
        self_t[name] += t1 - t0 - covered
        calls[name] += 1

    c = tracer.counts
    per_op = 1.0 / n_ops

    def ms(total_s: float) -> float:
        return 1e3 * total_s * per_op

    def us_per_call(name: str) -> float:
        return 1e6 * incl[name] / calls[name] if calls[name] else 0.0

    return {
        "network.deploy_ms": ms(incl["network.sample"] + incl["network.stacked_topology"]),
        "network.edges_built": c["edges"] * per_op,
        "network.rows_read_frac": (
            c["tx_nodes"] / c["deployed_nodes"] if c["deployed_nodes"] else 0.0
        ),
        "models.resolve_ms": ms(incl["models.resolve"]),
        "models.resolve_calls": calls["models.resolve"] * per_op,
        "models.collisions": c["collisions"] * per_op,
        "sim.batch_engine_ms": ms(self_t["sim.batch"]),
        "sim.runs": c["runs"] * per_op,
        "sim.slots": c["slots"] * per_op,
        "sim.per_run_engine_ms": ms(self_t["sim.per_run"]),
        "sim.per_run_calls": calls["sim.per_run"] * per_op,
        "store.key_us": us_per_call("store.key"),
        "store.keys": calls["store.key"] * per_op,
        "store.get_ms": ms(incl["store.get"]),
        "store.gets": calls["store.get"] * per_op,
        "store.put_ms": ms(incl["store.put"]),
        "store.puts": calls["store.put"] * per_op,
        "store.put_mb": c["put_bytes"] / 1e6 * per_op,
        "store.journal_ms": ms(incl["store.journal"]),
        "serve.parse_us": us_per_call("serve.parse"),
        "serve.plan_ms": ms(incl["serve.plan"]),
        "serve.memory_get_us": us_per_call("serve.memory"),
        "serve.memory_hit_frac": (
            c["memory_hits"] / c["memory_lookups"] if c["memory_lookups"] else 0.0
        ),
        "serve.evaluate_ms": ms(incl["serve.evaluate"]),
        "serve.execute_ms": ms(incl["serve.execute"]),
        "serve.miss_wait_ms": (
            1e3 * sum(tracer.miss_waits) / len(tracer.miss_waits)
            if tracer.miss_waits
            else 0.0
        ),
        "serve.batches": calls["serve.execute"] * per_op,
        "serve.coalesced": coalesced * per_op,
        "analysis.ring_model_ms": ms(incl["analysis.ring_model"]),
        "collision.table_ms": ms(incl["collision.table"]),
        "optimize.search_ms": ms(incl["optimize.search"]),
        "optimize.probes": c["probes"] * per_op,
        "optimize.verify_ms": ms(incl["optimize.verify"]),
        "optimize.sim_runs": c["sim_runs"] * per_op,
        "bench.layer_cover_pct": 100.0 * op_covered / op_wall if op_wall else 0.0,
    }
