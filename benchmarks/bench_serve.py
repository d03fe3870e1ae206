"""Serving-tier performance: warm query latency and store sharding.

The serving claims live in two places.  The end-to-end numbers —
cold-pass coalescing ratio and warm-pass p50 over the 200-task
acceptance workload — come from ``repro-serve --bench`` (run in CI
before the perf gate), which merges ``serve.bench.*`` keys that
``check_perf.py`` bounds with a hard warm-latency limit and a hard
coalescing floor.  The micro benchmarks here price the tier's moving
parts so a regression in either headline number is attributable: a
single warm query through the full asyncio stack, a memory-tier read,
and the sharded backend's put/get round trip against the classic
layout.
"""

import asyncio

import pytest

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve import MemoryTier, QueryService, ReadThroughStore
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import DiskStore, ShardedBackend, task_key

SEED = 20050113
QUERY = {
    "kind": "bound",
    "rho": 30.0,
    "p": 0.5,
    "seed": SEED,
    "replications": 10,
    "bounds": {"latency": 8.0},
    "n_rings": 4,
}


def test_serve_warm_query(benchmark, tmp_path):
    """One warm query end to end: parse, plan, memory hits, evaluate."""
    service = QueryService(tmp_path / "store")

    async def _one():
        return await service.query(QUERY)

    async def _close():
        await service.close()

    cold = asyncio.run(_one())  # populate disk + memory tiers
    warm = benchmark(lambda: asyncio.run(_one()))
    assert warm == cold
    asyncio.run(_close())


@pytest.fixture(scope="module")
def one_run():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=30))
    return replicate(ProbabilisticRelay(0.5), cfg, 1, seed=SEED)


def _key(i: int = 0) -> str:
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=30))
    return task_key(ProbabilisticRelay(0.5), cfg, SEED + i, "vector", "phase")


def test_serve_memory_tier_get(benchmark, one_run):
    """The memory-tier lookup alone: the key is computed once, outside
    the timed call."""
    key = _key()
    tier = MemoryTier(max_entries=1024)
    tier.put(key, list(one_run))
    got = benchmark(lambda: tier.get(key))
    assert got is not None


def test_serve_read_through_warm_get(benchmark, tmp_path, one_run):
    key = _key()
    store = ReadThroughStore(DiskStore(tmp_path / "store"), max_entries=64)
    store.put(key, one_run)
    store.get(key)
    got = benchmark(lambda: store.get(key))
    assert len(got) == 1


@pytest.mark.parametrize("backend_cls", [DiskStore, ShardedBackend])
def test_store_backend_put_get(benchmark, tmp_path, one_run, backend_cls):
    """Sharding must not price the single-writer round trip out."""
    store = backend_cls(tmp_path / "store")
    key = _key()

    def round_trip():
        store.put(key, one_run)
        return store.get(key)

    got = benchmark(round_trip)
    assert len(got) == 1
