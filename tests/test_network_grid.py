"""Grid deployments: lattice structure and engine compatibility."""

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.network.grid import GridDeployment
from repro.protocols.base import RelayPolicy
from repro.protocols.pbcast import SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch


class _RecordTopology(RelayPolicy):
    """Flooding that records the topology view the engine hands it."""

    def __init__(self):
        self.seen = []

    def schedule(self, new_nodes, senders, rng, ctx):
        self.seen.append(ctx.topology)
        n = len(new_nodes)
        return np.ones(n, dtype=bool), self.random_slots(n, rng, ctx)


class TestLattice:
    def test_counts(self):
        dep = GridDeployment(side=5)
        assert dep.n_nodes == 25
        assert dep.n_field_nodes == 24

    def test_source_at_center(self):
        dep = GridDeployment(side=7)
        assert dep.source == 0
        np.testing.assert_allclose(dep.positions[0], [0.0, 0.0])

    def test_even_side_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            GridDeployment(side=4)

    def test_four_neighbor_topology(self):
        dep = GridDeployment(side=5)
        topo = dep.topology()
        degrees = topo.degrees
        # Interior nodes have 4 neighbors, corners 2, edges 3.
        assert degrees.max() == 4
        assert degrees.min() == 2
        assert sorted(np.bincount(degrees)[2:].tolist()) == sorted([4, 12, 9])

    def test_no_diagonal_links(self):
        dep = GridDeployment(side=3)
        topo = dep.topology()
        # Source (center) connects to exactly the 4 axial neighbors.
        assert len(topo.neighbors(dep.source)) == 4

    def test_ring_indices_cover_lattice(self):
        dep = GridDeployment(side=9)
        rings = dep.ring_indices()
        assert rings.min() == 1
        assert rings.max() <= dep.n_rings
        assert rings[dep.source] == 1

    def test_spacing_scales_positions(self):
        dep = GridDeployment(side=3, spacing=2.0)
        assert dep.radius == 2.0
        dists = np.hypot(dep.positions[:, 0], dep.positions[:, 1])
        assert dists.max() == pytest.approx(np.hypot(2.0, 2.0))


class TestEngineCompatibility:
    def test_cfm_flooding_reaches_all(self):
        dep = GridDeployment(side=9)
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=5, rho=4), channel="cfm")
        res = run_broadcast(SimpleFlooding(), cfg, 0, deployment=dep)
        assert res.reachability == 1.0

    def test_trace_population_matches(self):
        dep = GridDeployment(side=9)
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=5, rho=4), channel="cfm")
        res = run_broadcast(SimpleFlooding(), cfg, 0, deployment=dep)
        assert res.trace.config.n_nodes == pytest.approx(dep.n_field_nodes)
        assert res.trace.new_by_phase_ring.sum() == res.new_informed_by_slot.sum()

    def test_cam_flooding_on_grid(self):
        # The lattice has few common neighbors, so CAM flooding still
        # spreads but loses some receptions to collisions.
        dep = GridDeployment(side=9)
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=5, rho=4))
        res = run_broadcast(SimpleFlooding(), cfg, 1, deployment=dep)
        assert 0.3 < res.reachability <= 1.0
        assert res.collisions > 0


class TestLinkRadius:
    """The lattice is linked at one radius, whichever path builds it."""

    @pytest.mark.parametrize("spacing", [0.1, 0.3, 0.7, 1.0])
    def test_batch_engine_sees_every_lattice_edge(self, spacing):
        dep = GridDeployment(side=21, spacing=spacing)
        ref = dep.topology()
        assert ref.n_edges == 2 * 21 * 20
        policy = _RecordTopology()
        cfg = SimulationConfig(
            analysis=AnalysisConfig(n_rings=5, rho=4), channel="cfm", max_phases=3
        )
        run_broadcast_batch(policy, cfg, [0], deployments=[dep])
        seen = policy.seen[0]
        assert np.array_equal(seen.indptr, ref.indptr)
        assert np.array_equal(seen.indices, ref.indices)
