"""serve-mixed: two closed-loop clients against a QueryService.

Set-up opens a fresh sharded store and fills it with a warm population
of ``WARM_QUERIES`` bound queries (``REPS`` replications each), more
task entries than the memory tier holds, so repeat queries read from
both memory and disk.  Every round of ``ROUND`` requests holds
``ROUND - 1`` repeats drawn from the warm population and one query with
a never-seen seed, which misses, computes and persists.  Requests go
over the wire form (JSON lines) and both clients pull the next request
only after their previous one is answered.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from checks import Checks, bounds_hold, same_values
from common import Op, Pass
from repro.analysis.config import AnalysisConfig
from repro.experiments.params import PaperParams
from repro.optimize.spec import OptimizeQuery, evaluate_runs
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve import QueryService
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import ShardedBackend

REPS = 10
N_RINGS = 4
WARM_QUERIES = 40
MEMORY_ENTRIES = 100  # task entries: a quarter of the warm population
ROUND = 50  # requests per round, one of them a never-seen seed
CLIENTS = 2
MIN_FEASIBLE = 0.5
RHOS = (20.0, 30.0, 40.0)
PS = (0.1, 0.2, 0.3, 0.5, 0.7)
#: (bounds, objective) pairings with the paper's simulation budgets.
PAIRINGS = (
    ({"latency": PaperParams.LATENCY_BUDGET_PHASES}, "reachability"),
    ({"reachability": PaperParams.SIM_REACH_TARGET}, "latency"),
    ({"energy": PaperParams.SIM_ENERGY_BUDGET}, "reachability"),
)


def _request(rho: float, p: float, seed: int, pairing: int) -> dict:
    bounds, objective = PAIRINGS[pairing]
    return {
        "kind": "bound", "rho": rho, "p": p, "seed": seed,
        "replications": REPS, "bounds": bounds, "objectives": [objective],
        "n_rings": N_RINGS, "min_feasible": MIN_FEASIBLE,
    }


def _config(rho: float) -> SimulationConfig:
    return SimulationConfig(analysis=AnalysisConfig(n_rings=N_RINGS, rho=rho))


class ServeWorkload:
    def __init__(self, name: str, seed: int, checks: Checks, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.checks = checks
        self.work_dir = work_dir
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        # Warm seeds are even, never-seen seeds odd: a miss cannot hit.
        self.warm = [
            _request(RHOS[i % len(RHOS)], PS[i % len(PS)],
                     2 * int(rng.integers(1 << 40)), i % len(PAIRINGS))
            for i in range(WARM_QUERIES)
        ]
        self.loop = asyncio.new_event_loop()
        self.service: QueryService | None = None
        self.coalesced = 0
        self.answers: list[tuple[dict, dict, tuple[int, int]]] = []
        self.samples: set[tuple[int, int]] = set()  # (round, index) checked offline

    def _round(self, k: int) -> tuple[list[dict], int]:
        """Requests of round ``k`` and the index the offline check samples."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1, k]))
        reqs = [self.warm[int(i)] for i in rng.integers(len(self.warm), size=ROUND - 1)]
        # The miss walks a fixed cycle of densities and probabilities, so
        # every run computes the same mix; only its seed is drawn.
        miss = _request(
            RHOS[k % len(RHOS)], PS[k % len(PS)],
            2 * int(rng.integers(1 << 40)) + 1, k % len(PAIRINGS),
        )
        reqs.insert(int(rng.integers(ROUND)), miss)
        return reqs, int(rng.integers(ROUND))

    def setup(self) -> None:
        store_dir = tempfile.mkdtemp(prefix="serve-store-", dir=self.work_dir)
        store = ShardedBackend(store_dir)
        for req in self.warm:
            replicate(ProbabilisticRelay(req["p"]), _config(req["rho"]), REPS,
                      req["seed"], store=store)
        # executor_threads=1: with two threads, concurrent batches on one
        # sharded store race on the shard FileLock (see README).
        self.service = QueryService(
            store, workers=1, memory_entries=MEMORY_ENTRIES, executor_threads=1
        )
        self.loop.run_until_complete(self.service.query(json.dumps(self.warm[0])))

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        self.loop.close()

    def measure(self, seconds: float | None = None, rounds: Any = None,
                tracer: Any = None) -> Pass:
        """Whole rounds until ``seconds`` of loop time, or the given rounds."""
        return self.loop.run_until_complete(self._measure(seconds, rounds, tracer))

    async def _measure(self, seconds: float | None, rounds: Any, tracer: Any) -> Pass:
        svc = self.service
        assert svc is not None
        todo = iter(rounds) if rounds is not None else itertools.count()
        queue: collections.deque = collections.deque()
        p = Pass()
        coalesced0 = svc.stats.coalesced
        t_start = time.perf_counter()

        def next_request() -> tuple[dict, tuple[int, int]] | None:
            if not queue:
                if rounds is None and time.perf_counter() - t_start >= seconds:
                    return None
                k = next(todo, None)
                if k is None:
                    return None
                reqs, sample = self._round(k)
                if tracer is None:
                    self.samples.add((k, sample))
                queue.extend((req, (k, i)) for i, req in enumerate(reqs))
                p.rounds += 1
            return queue.popleft()

        async def client() -> None:
            while (item := next_request()) is not None:
                req, where = item
                line = json.dumps(req)
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.op():
                            resp = await svc.query(line)
                    else:
                        resp = await svc.query(line)
                except Exception as exc:  # counted as failed, never dropped
                    print(f"[{self.name}] query {where} failed: {exc!r}", file=sys.stderr)
                    p.ops.append(Op(time.perf_counter() - t0, 0, 1, failed=True))
                    continue
                p.ops.append(Op(time.perf_counter() - t0, REPS, 1))
                if tracer is None:
                    self.answers.append((req, resp, where))

        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        p.busy_s = time.perf_counter() - t_start
        self.coalesced += svc.stats.coalesced - coalesced0
        return p

    # -- checks ----------------------------------------------------------
    def check(self) -> None:
        first: dict[str, str] = {}
        for req, resp, where in self.answers:
            line = json.dumps(req, sort_keys=True)
            body = json.dumps(resp, sort_keys=True)
            if line in first:
                self.checks.expect(body == first[line],
                                   f"query {where}: repeat answer differs from the first")
            else:
                first[line] = body
            best = resp["evaluations"][0]
            own = (best["feasible_fraction"] >= MIN_FEASIBLE
                   and bounds_hold(best, req["bounds"]))
            self.checks.expect(resp["feasible"] == own,
                               f"query {where}: feasible={resp['feasible']} but the "
                               f"returned metrics against {req['bounds']} say {own}")
            if where in self.samples:
                runs = replicate(ProbabilisticRelay(req["p"]), _config(req["rho"]),
                                 REPS, req["seed"])
                query = OptimizeQuery(bounds=req["bounds"], objectives=tuple(req["objectives"]),
                                      min_feasible=MIN_FEASIBLE)
                offline = dataclasses.asdict(evaluate_runs(runs, query, req["p"]))
                self.checks.expect(same_values(resp["evaluations"], [offline]),
                                   f"query {where}: served answer differs from offline replicate")
