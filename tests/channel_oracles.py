"""Loop-based reference resolutions of the CAM and CFM slot semantics.

Executable documentation of Sec. 3.2, written one transmitter at a time
with no vectorization, and used as the oracle for the channels in
:mod:`repro.models.cam` and :mod:`repro.models.cfm`.  Each takes any
object with CSR ``indptr``/``indices``, ``n_nodes`` and (for carrier
sense) ``carrier_csr()``: a ``Topology`` or a ``StackedTopology``.
"""

from __future__ import annotations

import numpy as np


def cam_counts_reference(
    tx: np.ndarray, indptr: np.ndarray, indices: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-receiver transmitter counts and sender-id sums, one loop step
    per transmitter."""
    counts = np.zeros(n_nodes, dtype=np.int64)
    id_sum = np.zeros(n_nodes, dtype=np.int64)
    for t in tx:
        nbrs = indices[indptr[t] : indptr[t + 1]]
        counts[nbrs] += 1
        id_sum[nbrs] += t
    return counts, id_sum


def cam_resolve_reference(
    topology, transmitters, *, carrier_sense: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(receivers, senders, collided)`` of one CAM slot."""
    tx = np.unique(np.asarray(transmitters, dtype=np.intp))
    n = topology.n_nodes
    counts, id_sum = cam_counts_reference(tx, topology.indptr, topology.indices, n)
    ok = counts == 1
    if carrier_sense:
        c_indptr, c_indices = topology.carrier_csr()
        c_counts, _ = cam_counts_reference(tx, c_indptr, c_indices, n)
        ok &= c_counts == 1
    receivers = np.flatnonzero(ok).astype(np.int64)
    collided = np.flatnonzero(counts >= 2).astype(np.int64)
    return receivers, id_sum[receivers], collided


def cfm_resolve_reference(
    topology, transmitters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(receivers, senders, collided)`` of one CFM slot.

    Lowest transmitter id wins ties: transmitters are scanned in
    descending order so earlier (smaller) ids overwrite later ones.
    """
    tx = np.unique(np.asarray(transmitters, dtype=np.intp))
    indptr, indices = topology.indptr, topology.indices
    sender_of = np.full(topology.n_nodes, -1, dtype=np.int64)
    for t in tx[::-1]:
        sender_of[indices[indptr[t] : indptr[t + 1]]] = t
    receivers = np.flatnonzero(sender_of >= 0).astype(np.int64)
    return receivers, sender_of[receivers], np.zeros(0, dtype=np.int64)
