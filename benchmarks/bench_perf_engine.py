"""One replication block vs the same runs one seed at a time.

The stacked engine's reason to batch: a 32-replication block pays for
one stacked topology build and one channel-resolution pass per slot
instead of 32, so the block must beat 32 one-seed
:func:`~repro.sim.engine.run_broadcast` calls of the same engine (each a
one-replication block) by a wide margin.  Timings land in
``BENCH_perf.json`` via ``--perf-json``; ``check_perf.py`` gates each
block against its one-seed partner from the same run.  The historical
per-run seed floor for this scenario is recorded there as
``bench_perf_obs.py::test_tracing_disabled_flooding_rho140``
(0.117 s/run at the time the batched path was added).
"""

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch

CFG_MID = SimulationConfig(analysis=AnalysisConfig(rho=60))
CFG_DENSE = SimulationConfig(analysis=AnalysisConfig(rho=140))
BLOCK = 32


def _seeds():
    return np.random.SeedSequence(0).spawn(BLOCK)


def test_batched_flooding_rho140_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: run_broadcast_batch(SimpleFlooding(), CFG_DENSE, seeds),
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].collisions > 0


def test_per_run_flooding_rho140_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: [run_broadcast(SimpleFlooding(), CFG_DENSE, s) for s in seeds],
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].collisions > 0


def test_batched_pb_rho60_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: run_broadcast_batch(ProbabilisticRelay(0.2), CFG_MID, seeds),
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].reachability > 0.5


def test_per_run_pb_rho60_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: [run_broadcast(ProbabilisticRelay(0.2), CFG_MID, s) for s in seeds],
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].reachability > 0.5
