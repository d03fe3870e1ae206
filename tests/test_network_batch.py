"""Stacked deployments and adjacency for the replication-batched engine.

Pins the layout contracts: a :class:`DeploymentBatch` draw is
bit-identical to ``R`` independent per-run draws, the padded ``(R,
n_max, 2)`` view is zero-padding over the flat layout, and every
replication's slice of the stacked CSR equals a brute-force
pairwise-distance CSR of that replication alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import StackedTopology, Topology

SEED = 20050113


def brute_force_csr(positions, radius):
    """CSR of the unit-disk graph from the full pairwise distance matrix."""
    pos = np.asarray(positions, dtype=float)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1)
    adj = d2 <= radius * radius
    np.fill_diagonal(adj, False)
    indptr = np.zeros(len(pos) + 1, dtype=np.int64)
    np.cumsum(adj.sum(axis=1), out=indptr[1:])
    return indptr, np.nonzero(adj)[1].astype(np.int64)


def _batch(n=5, *, population="fixed", rho=20.0):
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(n)]
    return DeploymentBatch.sample(rho=rho, n_rings=3, rngs=rngs, population=population)


def _per_run_deployments(n=5, *, population="fixed", rho=20.0):
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(n)]
    return [
        DiskDeployment.sample(rho=rho, n_rings=3, rng=rng, population=population)
        for rng in rngs
    ]


class TestDeploymentBatch:
    @pytest.mark.parametrize("population", ["fixed", "poisson"])
    def test_sample_bit_identical_to_per_run(self, population):
        batch = _batch(population=population)
        singles = _per_run_deployments(population=population)
        assert batch.n_reps == len(singles)
        for r, dep in enumerate(singles):
            lo, hi = batch.node_offsets[r], batch.node_offsets[r + 1]
            assert hi - lo == dep.n_nodes
            assert np.array_equal(batch.positions[lo:hi], dep.positions)

    def test_generator_state_matches_per_run(self):
        """The batch draw consumes *exactly* the per-run random stream:
        the generators end in the same state either way."""
        ss = np.random.SeedSequence(SEED).spawn(3)
        rngs_a = [np.random.default_rng(s) for s in ss]
        rngs_b = [np.random.default_rng(s) for s in ss]
        DeploymentBatch.sample(rho=20.0, n_rings=3, rngs=rngs_a)
        for rng in rngs_b:
            DiskDeployment.sample(rho=20.0, n_rings=3, rng=rng)
        for a, b in zip(rngs_a, rngs_b):
            assert a.bit_generator.state == b.bit_generator.state

    def test_offsets_and_sources(self):
        batch = _batch()
        counts = [dep.n_nodes for dep in batch.deployments]
        assert batch.node_offsets[0] == 0
        assert np.array_equal(np.diff(batch.node_offsets), counts)
        assert batch.n_nodes_total == sum(counts)
        assert np.array_equal(batch.source_ids, batch.node_offsets[:-1])
        # Every source sits at the origin of its block.
        assert np.allclose(batch.positions[batch.source_ids], 0.0)

    def test_padded_positions_ragged(self):
        batch = _batch(population="poisson")
        padded, mask = batch.padded_positions()
        counts = np.diff(batch.node_offsets)
        assert padded.shape == (batch.n_reps, counts.max(), 2)
        assert mask.shape == padded.shape[:2]
        assert np.array_equal(mask.sum(axis=1), counts)
        # Valid rows hold the flat positions in order; padding is zero.
        assert np.array_equal(padded[mask], batch.positions)
        assert np.all(padded[~mask] == 0.0)

    def test_ring_indices_match_per_run(self):
        batch = _batch()
        flat = batch.ring_indices()
        for r, dep in enumerate(batch.deployments):
            lo, hi = batch.node_offsets[r], batch.node_offsets[r + 1]
            assert np.array_equal(flat[lo:hi], dep.ring_indices())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DeploymentBatch([])

    def test_mismatched_geometry_rejected(self):
        rng = np.random.default_rng(0)
        a = DiskDeployment.sample(rho=10, n_rings=3, rng=rng)
        b = DiskDeployment.sample(rho=10, n_rings=4, rng=rng)
        with pytest.raises(ValueError, match="share radius and n_rings"):
            DeploymentBatch([a, b])


class TestStackedTopology:
    def test_rep_slices_match_standalone_csr(self):
        batch = _batch()
        stacked = batch.stacked_topology()
        for r, dep in enumerate(batch.deployments):
            indptr, indices = stacked.rep_slice(r)
            ref_indptr, ref_indices = brute_force_csr(
                dep.positions, batch.radius
            )
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)

    def test_rep_slices_match_standalone_csr_ragged(self):
        batch = _batch(population="poisson")
        stacked = batch.stacked_topology()
        for r, dep in enumerate(batch.deployments):
            indptr, indices = stacked.rep_slice(r)
            ref_indptr, ref_indices = brute_force_csr(
                dep.positions, batch.radius
            )
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)

    def test_no_cross_replication_edges(self):
        """Global ids stay inside their owner's block — stacking never
        lets two replications see each other."""
        batch = _batch()
        stacked = batch.stacked_topology()
        for r in range(stacked.n_reps):
            lo = int(batch.node_offsets[r])
            hi = int(batch.node_offsets[r + 1])
            block = stacked.indices[stacked.indptr[lo] : stacked.indptr[hi]]
            assert np.all((block >= lo) & (block < hi))

    def test_carrier_csr_matches_standalone(self):
        batch = _batch()
        stacked = batch.stacked_topology()
        c_indptr, c_indices = stacked.carrier_csr()
        for r, dep in enumerate(batch.deployments):
            lo = int(batch.node_offsets[r])
            hi = int(batch.node_offsets[r + 1])
            e0 = int(c_indptr[lo])
            ref_indptr, ref_indices = brute_force_csr(
                dep.positions, stacked.carrier_radius
            )
            assert np.array_equal(c_indptr[lo : hi + 1] - e0, ref_indptr)
            assert np.array_equal(
                c_indices[e0 : int(c_indptr[hi])] - lo, ref_indices
            )

    def test_rep_topology_views(self):
        batch = _batch()
        stacked = batch.stacked_topology()
        for r, dep in enumerate(batch.deployments):
            view = stacked.rep_topology(r)
            ref = Topology(dep.positions, batch.radius)
            assert view.n_nodes == ref.n_nodes
            assert np.array_equal(view.indptr, ref.indptr)
            assert np.array_equal(view.indices, ref.indices)
            for node in range(0, view.n_nodes, 7):
                assert np.array_equal(view.neighbors(node), ref.neighbors(node))
            # Cached: asking again returns the same object.
            assert stacked.rep_topology(r) is view

    def test_default_carrier_radius(self):
        stacked = _batch(2).stacked_topology()
        assert stacked.carrier_radius == 2.0 * stacked.radius

    def test_carrier_radius_below_radius_rejected(self):
        batch = _batch(2)
        with pytest.raises(ValueError, match="carrier_radius"):
            StackedTopology(
                batch.positions, batch.node_offsets, batch.radius, carrier_radius=0.5
            )

    def test_single_replication(self):
        batch = _batch(1)
        stacked = batch.stacked_topology()
        ref = Topology(batch.deployments[0].positions, batch.radius)
        assert np.array_equal(stacked.indptr, ref.indptr)
        assert np.array_equal(stacked.indices, ref.indices)
