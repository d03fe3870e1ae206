"""grid-sparse and grid-flood: PB_CAM ``sweep_grid`` calls, no store.

One operation is one ``sweep_grid`` call over the workload's grid, 30
replications per point in one batched-engine block per point.  Round
``k`` sweeps with root seed ``SeedSequence([seed, k])``, so replication
``r`` of grid point ``i`` runs on ``SeedSequence([seed, k],
spawn_key=(i, r))``; the checks redraw deployments from exactly that.
"""

from __future__ import annotations

import gc
import itertools
import sys
import time
from typing import Any

import numpy as np

from checks import Checks, ceiling_check, run_invariants, same_run
from common import Op, Pass
from repro.analysis.config import AnalysisConfig
from repro.experiments.params import PaperParams
from repro.network.deployment import DiskDeployment
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast_batch
from repro.sim.runner import sweep_grid

REPS = PaperParams.REPLICATIONS
WARMUP_ROUND = 1 << 30  # round index of the set-up sweep, never measured

SHAPES = {
    # Paper densities near fig4b's optima (p ~ 0.05-0.2 for rho >= 100).
    "grid-sparse": ((100.0, 140.0), (0.05, 0.10, 0.15, 0.20)),
    # Flooding: every informed node relays, every adjacency row is read.
    "grid-flood": ((140.0,), (1.0,)),
}
CEILING_SAMPLES = {"grid-sparse": 2, "grid-flood": 1}
SMALL_BLOCK = 2  # the second block size the equality check runs at


class GridWorkload:
    def __init__(self, name: str, seed: int, checks: Checks) -> None:
        self.name = name
        self.seed = seed
        self.checks = checks
        self.rhos, self.ps = SHAPES[name]
        self.flooding = self.ps == (1.0,)
        self.config = SimulationConfig(
            analysis=AnalysisConfig(
                n_rings=PaperParams.N_RINGS, rho=self.rhos[0], slots=PaperParams.SLOTS
            )
        )
        self.points = [(rho, p) for rho in self.rhos for p in self.ps]
        self.ceiling_samples: list[tuple[int, int, int, Any]] = []
        self.block_samples: list[tuple[int, int, list[int], list[Any]]] = []

    def _root(self, k: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, k])

    def _sweep(self, k: int, rhos: tuple = (), ps: tuple = ()) -> dict:
        return sweep_grid(
            self.config, rhos or self.rhos, ps or self.ps, REPS, self._root(k),
            workers=1, block_size=REPS,
        )

    def setup(self) -> None:
        # One grid point as the warm-up operation.
        self._sweep(WARMUP_ROUND, self.rhos[-1:], self.ps[:1])
        gc.collect()

    def _op(self, k: int, tracer: Any) -> Op:
        n_runs = len(self.points) * REPS
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op():
                    grid = self._sweep(k)
            else:
                grid = self._sweep(k)
        except Exception as exc:  # counted as failed, never dropped
            print(f"[{self.name}] sweep {k} failed: {exc!r}", file=sys.stderr)
            return Op(time.perf_counter() - t0, 0, n_runs, failed=True)
        latency = time.perf_counter() - t0
        if tracer is None:
            self._inspect(k, grid)
        del grid
        gc.collect()  # see common.py: each operation starts from a collected heap
        return Op(latency, n_runs, n_runs)

    def measure(self, seconds: float | None = None, rounds: Any = None,
                tracer: Any = None) -> Pass:
        """Whole sweeps until ``seconds`` are measured, or the given rounds."""
        p = Pass()
        todo = iter(rounds) if rounds is not None else itertools.count()
        for k in todo:
            if rounds is None and p.busy_s >= seconds:
                break
            op = self._op(k, tracer)
            p.ops.append(op)
            p.busy_s += op.latency_s
            p.rounds += 1
        return p

    # -- checks ----------------------------------------------------------
    def _rep_seed(self, k: int, point: int, rep: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, k], spawn_key=(point, rep))

    def _inspect(self, k: int, grid: dict) -> None:
        """Per-run invariants now; keep only the seeded samples for ``check``."""
        for i, (rho, p) in enumerate(self.points):
            runs = grid[(rho, p)]
            self.checks.expect(len(runs) == REPS, f"sweep {k} point {i}: {len(runs)} runs")
            for r, run in enumerate(runs):
                run_invariants(self.checks, run, flooding=self.flooding,
                               where=f"sweep {k} rho={rho} p={p} rep {r}")
        pick = np.random.default_rng(np.random.SeedSequence([self.seed, k, 1]))
        for _ in range(CEILING_SAMPLES[self.name]):
            i = int(pick.integers(len(self.points)))
            r = int(pick.integers(REPS))
            self.ceiling_samples.append((k, i, r, grid[self.points[i]][r]))
        i = int(pick.integers(len(self.points)))
        reps = sorted(int(r) for r in pick.choice(REPS, size=SMALL_BLOCK, replace=False))
        self.block_samples.append((k, i, reps, [grid[self.points[i]][r] for r in reps]))

    def check(self) -> None:
        """The sampled checks, after measuring (their allocations would
        otherwise land in the measured process's peak memory)."""
        for k, i, r, run in self.ceiling_samples:
            rho, p = self.points[i]
            cfg = self.config.with_rho(rho)
            dep = DiskDeployment.sample(
                rho=cfg.rho, n_rings=cfg.n_rings, radius=cfg.radius,
                rng=np.random.default_rng(self._rep_seed(k, i, r)),
                population=cfg.population,
            )
            ceiling_check(self.checks, run, dep.positions, cfg.radius,
                          f"sweep {k} rho={rho} p={p} rep {r}")
        # Equality across block sizes: the sampled replications rerun as
        # one block of SMALL_BLOCK against their block-of-REPS results.
        for k, i, reps, runs in self.block_samples:
            rho, p = self.points[i]
            again = run_broadcast_batch(
                ProbabilisticRelay(p), self.config.with_rho(rho),
                [self._rep_seed(k, i, r) for r in reps],
            )
            for r, run, rerun in zip(reps, runs, again, strict=True):
                self.checks.expect(
                    same_run(rerun, run),
                    f"sweep {k} rho={rho} p={p} rep {r}: block {REPS} and block "
                    f"{SMALL_BLOCK} results differ",
                )
