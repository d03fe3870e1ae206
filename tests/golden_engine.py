"""Golden digests of the slot engine's results and event streams.

Records, for a fixed matrix of scenarios, SHA-256 digests of every
run's packed result (:func:`repro.store.pack_result`, serialized the way
the store writes it) and of each replication's JSONL event stream.
``tests/test_engine_golden.py`` recomputes the same matrix and compares
against the committed ``golden_engine.json``, so a refactor of the
engine must reproduce every result byte and every traced event.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python -m tests.golden_engine
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.models.tdma import run_tdma_flooding
from repro.network.deployment import DiskDeployment
from repro.network.grid import GridDeployment
from repro.obs import capture
from repro.obs.events import RunComplete, StoreAccess, event_to_dict
from repro.protocols.area import DistanceBasedRelay
from repro.protocols.convergecast import run_convergecast
from repro.protocols.counter import CounterBasedRelay
from repro.protocols.neighbor import NeighborKnowledgeRelay
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast
from repro.sim.runner import replicate
from repro.store import pack_result

GOLDEN_PATH = Path(__file__).with_name("golden_engine.json")
SEED = 20050113
SEEDS = (SEED, SEED + 1, SEED + 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    """Digest of one result's store payload bytes."""
    return _sha(json.dumps(pack_result(result), sort_keys=True))


def _line(event) -> str:
    return json.dumps(event_to_dict(event))


def stream_digests(events) -> dict[str, Any]:
    """Per-replication stream digests plus the sorted store-access digest.

    Engine events are split into replications at each ``RunComplete``;
    ``StoreAccess`` events are pulled out and digested as a sorted
    multiset, since block dispatch moves puts to block ends.
    """
    runs: list[list[str]] = [[]]
    store: list[str] = []
    for event in events:
        if isinstance(event, StoreAccess):
            store.append(_line(event))
            continue
        runs[-1].append(_line(event))
        if isinstance(event, RunComplete):
            runs.append([])
    if runs[-1]:
        raise AssertionError("event stream does not end with RunComplete")
    return {
        "runs": [_sha("\n".join(r)) for r in runs[:-1]],
        "store": _sha("\n".join(sorted(store))),
    }


def _config(**kw) -> SimulationConfig:
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3), max_phases=40, **kw
    )


def _shared_disk() -> DiskDeployment:
    return DiskDeployment.sample(
        rho=20.0, n_rings=3, rng=np.random.default_rng(SEED)
    )


#: name -> (policy factory, config kwargs, deployment factory or None)
BROADCAST_CASES: dict[str, tuple[Callable, dict, Callable | None]] = {
    "cam-pb": (lambda: ProbabilisticRelay(0.5), {}, None),
    "cfm-pb": (lambda: ProbabilisticRelay(0.5), {"channel": "cfm"}, None),
    "cam-cs-pb": (lambda: ProbabilisticRelay(0.6), {"carrier_sense": True}, None),
    "cam-flood": (SimpleFlooding, {}, None),
    "cam-half-duplex-flood": (SimpleFlooding, {"half_duplex": True}, None),
    "cfm-half-duplex-pb": (
        lambda: ProbabilisticRelay(0.7),
        {"channel": "cfm", "half_duplex": True},
        None,
    ),
    "cam-cs-half-duplex-pb": (
        lambda: ProbabilisticRelay(0.6),
        {"carrier_sense": True, "half_duplex": True},
        None,
    ),
    "cam-poisson-pb": (
        lambda: ProbabilisticRelay(0.5),
        {"population": "poisson"},
        None,
    ),
    "cam-neighbor": (NeighborKnowledgeRelay, {}, None),
    "cfm-neighbor": (NeighborKnowledgeRelay, {"channel": "cfm"}, None),
    "cam-counter": (lambda: CounterBasedRelay(threshold=2), {}, None),
    "cam-distance": (lambda: DistanceBasedRelay(threshold=0.5), {}, None),
    "cam-shared-deployment-pb": (lambda: ProbabilisticRelay(0.5), {}, _shared_disk),
    "cam-cs-shared-deployment-pb": (
        lambda: ProbabilisticRelay(0.6),
        {"carrier_sense": True},
        _shared_disk,
    ),
    "cfm-grid-flood": (
        SimpleFlooding,
        {"channel": "cfm"},
        lambda: GridDeployment(side=9, spacing=0.3),
    ),
    "cam-grid-pb": (
        lambda: ProbabilisticRelay(0.8),
        {},
        lambda: GridDeployment(side=9, spacing=0.7),
    ),
}


def broadcast_case(name: str) -> dict[str, Any]:
    """Traced ``run_broadcast`` over :data:`SEEDS` for one case."""
    make_policy, cfg_kw, make_deployment = BROADCAST_CASES[name]
    config = _config(**cfg_kw)
    deployment = make_deployment() if make_deployment is not None else None
    results = []
    with capture() as buf:
        for seed in SEEDS:
            results.append(
                run_broadcast(make_policy(), config, seed, deployment=deployment)
            )
    streams = stream_digests(buf.events)
    return {"results": [result_digest(r) for r in results], "streams": streams["runs"]}


REPLICATE_CASES = ("replicate-traced", "replicate-traced-store")


def replicate_case(name: str) -> dict[str, Any]:
    """Traced ``replicate`` (default block size), with or without a store."""
    config = _config()
    with tempfile.TemporaryDirectory() as tmp:
        store = tmp if name.endswith("-store") else None
        with capture() as buf:
            results = replicate(
                ProbabilisticRelay(0.5), config, 5, SEED, store=store, block_size=2
            )
    streams = stream_digests(buf.events)
    out = {"results": [result_digest(r) for r in results], "streams": streams["runs"]}
    if store is not None:
        out["store"] = streams["store"]
    return out


def channel_users() -> dict[str, str]:
    """Digests of the non-engine channel users (TDMA, convergecast)."""
    dep = _shared_disk()
    tdma = run_tdma_flooding(dep)
    conv = run_convergecast(_config(), SEED, deployment=dep, max_phases=400)
    return {
        "tdma": _sha(repr(tdma)),
        "convergecast": _sha(repr(conv) + repr(conv.parents.tolist())),
    }


def compute_all() -> dict[str, Any]:
    out: dict[str, Any] = {name: broadcast_case(name) for name in BROADCAST_CASES}
    out.update({name: replicate_case(name) for name in REPLICATE_CASES})
    out["channel-users"] = channel_users()
    return out


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
