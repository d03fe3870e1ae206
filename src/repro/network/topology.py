"""Unit-disk communication graphs in CSR form.

The communication graph of assumption 2 connects every pair of nodes
within transmission radius ``r``.  For the vectorized engine we need the
adjacency as flat CSR arrays (``indptr``/``indices``), and we need to
build it fast for thousands of Monte-Carlo replications.  One builder
(:func:`_build_field_csr`) does all of it: points are sorted by a
grid-bucket key with cell size ``r``, so each point's candidates in the
nine surrounding cells are contiguous runs found by ``searchsorted``,
and every distance test happens in flat numpy arrays with no Python
loop over cells.

The same machinery builds the ``carrier_radius`` graph of Appendix A on
demand (neighbors within carrier-sense range but *also* within it —
the carrier graph includes the transmission graph; CAM code subtracts
as needed).

For replication-batched Monte-Carlo, :class:`StackedTopology` stores
``R`` independent deployments as one CSR structure over globally
renumbered nodes (replication ``r`` owns ids
``[node_offsets[r], node_offsets[r+1])``), so a single gather/bincount
pass serves every replication's slot at once; cross-replication edges
are impossible by construction.  A :class:`Topology` is the ``R = 1``
case, and the channels accept either.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "Topology",
    "StackedTopology",
    "build_disk_graph_csr",
    "build_disk_graph_csr_stacked",
]


def build_disk_graph_csr(
    positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (``indptr``, ``indices``) of the unit-disk graph.

    Edges connect distinct points at Euclidean distance ``<= radius``;
    the graph is symmetric and has no self-loops.  Each row's neighbor
    list is sorted ascending.  Built by :func:`_build_field_csr`; the
    column ids come back as ``int64``.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {positions.shape}")
    radius = check_positive("radius", radius)
    if positions.shape[0] == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    indptr, cols = _build_field_csr(positions, radius)
    return indptr, cols.astype(np.int64)


def _flat_runs(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[first[i], first[i] + lengths[i])``.

    The cumsum-of-unit-steps trick from the CAM gather kernel: cheaper
    than ``repeat`` + ``arange`` per run, and fully vectorized.
    ``lengths`` must be non-negative with a positive total.
    """
    nz = lengths > 0
    s_nz = first[nz]
    l_nz = lengths[nz]
    total = int(l_nz.sum())
    bounds = np.cumsum(l_nz)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = s_nz[0]
    ends = s_nz + l_nz
    steps[bounds[:-1]] = s_nz[1:] - ends[:-1] + 1
    return np.cumsum(steps)


def _build_field_csr(
    positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """One field's CSR adjacency via offset-searchsorted candidate runs.

    No Python loop over grid cells: points are sorted by cell key once,
    each of the five half-offsets resolves all its candidate pairs with
    two ``searchsorted`` calls plus one flat-run expansion,
    and the final CSR comes from an in-place value sort of packed
    ``row * (n + 1) + col`` keys (each directed edge is unique, so the
    packed keys are too, and sorting values beats argsort + gathers).
    """
    n = positions.shape[0]
    ij = np.floor(positions / radius).astype(np.int64)
    ij -= ij.min(axis=0, keepdims=True)
    width = int(ij[:, 0].max()) + 2
    keys = ij[:, 1] * width + ij[:, 0]
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    sx = np.ascontiguousarray(positions[order, 0])
    sy = np.ascontiguousarray(positions[order, 1])
    r2 = radius * radius
    # Packed (row, col) edge keys fit in int32 for any field below ~46k
    # nodes; the narrower dtype halves the traffic of the edge sort
    # that dominates CSR assembly.
    stride = n + 1
    edge_dtype = (
        np.int32 if stride * stride <= np.iinfo(np.int32).max else np.int64
    )
    order_ids = order.astype(edge_dtype)

    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    # Unordered cell pairs once: same-cell plus 4 of the 8 neighbor
    # offsets; symmetry supplies the rest.
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)):
        delta = dj * width + di
        if delta == 0:
            # Same cell: each point pairs with the strictly-later points
            # of its own key run (the sorted-order triu).
            first = np.arange(1, n + 1, dtype=np.int64)
            right = np.searchsorted(skeys, skeys, side="right")
        else:
            target = skeys + delta
            first = np.searchsorted(skeys, target, side="left")
            right = np.searchsorted(skeys, target, side="right")
        lengths = right - first
        if int(lengths.sum()) == 0:
            continue
        a_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
        b_idx = _flat_runs(first, lengths)
        dx = sx[a_idx] - sx[b_idx]
        dy = sy[a_idx] - sy[b_idx]
        dx *= dx
        dy *= dy
        dx += dy
        hit = dx <= r2
        src_parts.append(order_ids[a_idx[hit]])
        dst_parts.append(order_ids[b_idx[hit]])

    if not src_parts:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    packed = np.concatenate((src, dst)) * edge_dtype(stride)
    packed += np.concatenate((dst, src))
    packed.sort()
    # Row starts fall straight out of bisecting the sorted packed keys
    # at each row's key range — no per-edge row decode needed.
    bounds = (np.arange(n + 1, dtype=np.int64) * stride).astype(edge_dtype)
    indptr = np.searchsorted(packed, bounds).astype(np.int64)
    cols = packed % edge_dtype(stride)
    return indptr, cols


def build_disk_graph_csr_stacked(
    positions: np.ndarray, node_offsets: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of ``R`` stacked unit-disk graphs.

    Parameters
    ----------
    positions:
        ``(N, 2)`` coordinates of all replications concatenated;
        replication ``r`` owns rows ``[node_offsets[r], node_offsets[r+1])``.
    node_offsets:
        ``(R + 1,)`` cumulative node counts (``node_offsets[0] == 0``,
        ``node_offsets[-1] == N``).
    radius:
        Transmission radius, shared by every replication.

    Returns
    -------
    (indptr, indices):
        One CSR structure over the *global* ids.  Within each
        replication's block it is bit-identical to what
        :func:`build_disk_graph_csr` produces for that replication alone
        (same edges, neighbor lists sorted ascending); there are never
        edges between replications.

    Notes
    -----
    Each replication goes through :func:`_build_field_csr` and the
    per-replication CSR blocks are spliced together with the global id
    offsets applied.  Working one replication at a time is deliberate:
    a single replication's candidate/edge arrays fit in cache, whereas
    one flat pass over all ``R`` replications pushes every gather and
    the final edge sort out to main memory.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {positions.shape}")
    radius = check_positive("radius", radius)
    node_offsets = np.asarray(node_offsets, dtype=np.int64)
    n = positions.shape[0]
    if node_offsets.ndim != 1 or node_offsets[0] != 0 or node_offsets[-1] != n:
        raise ValueError("node_offsets must run from 0 to len(positions)")
    if np.any(np.diff(node_offsets) < 0):
        raise ValueError("node_offsets must be non-decreasing")
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)

    indptr = np.zeros(n + 1, dtype=np.int64)
    blocks: list[tuple[int, int, np.ndarray]] = []
    n_edges = 0
    for r in range(len(node_offsets) - 1):
        lo = int(node_offsets[r])
        hi = int(node_offsets[r + 1])
        if hi == lo:
            continue
        rep_indptr, rep_cols = _build_field_csr(positions[lo:hi], radius)
        indptr[lo + 1 : hi + 1] = n_edges + rep_indptr[1:]
        blocks.append((lo, n_edges, rep_cols))
        n_edges += int(rep_indptr[-1])
    # Write each block's globalized columns straight into the final
    # array — a concatenate-then-offset assembly would touch the whole
    # edge set twice.  int32 columns when the global id space fits:
    # every downstream slot resolution gathers these by the million,
    # and the narrower dtype halves that traffic.
    col_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(n_edges, dtype=col_dtype)
    for lo, e0, rep_cols in blocks:
        np.add(rep_cols, lo, dtype=col_dtype, out=indices[e0 : e0 + len(rep_cols)])
    return indptr, indices


class Topology:
    """A sensor network's communication structure.

    Wraps the transmission-range CSR adjacency and, lazily, the
    carrier-sense-range adjacency (Appendix A).  Immutable once built.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.
    radius:
        Transmission radius ``r``.
    carrier_radius:
        Carrier-sense radius; defaults to ``2 * radius`` when the
        carrier graph is first requested.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        *,
        carrier_radius: float | None = None,
    ):
        self.positions = np.array(positions, dtype=float)
        self.positions.setflags(write=False)
        self.radius = check_positive("radius", radius)
        if carrier_radius is not None and carrier_radius < radius:
            raise ValueError("carrier_radius must be >= radius")
        self._carrier_radius = carrier_radius
        self.indptr, self.indices = build_disk_graph_csr(self.positions, radius)
        self._carrier_csr: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes (including the source)."""
        return self.positions.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected communication links."""
        return int(len(self.indices) // 2)

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor count per node."""
        return np.diff(self.indptr)

    @property
    def mean_degree(self) -> float:
        """Average neighbor count (the empirical counterpart of ``rho``)."""
        return float(self.degrees.mean()) if self.n_nodes else 0.0

    @property
    def carrier_radius(self) -> float:
        """Carrier-sense radius in effect (default ``2 r``)."""
        return self._carrier_radius if self._carrier_radius is not None else 2.0 * self.radius

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node`` (sorted, read-only view)."""
        view = self.indices[self.indptr[node] : self.indptr[node + 1]]
        return view

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self.n_nodes):
            for v in self.neighbors(u):
                if u < int(v):
                    yield u, int(v)

    def carrier_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency at carrier-sense radius (built lazily, cached)."""
        if self._carrier_csr is None:
            self._carrier_csr = build_disk_graph_csr(self.positions, self.carrier_radius)
        return self._carrier_csr

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the transmission graph is a single connected component."""
        return self.n_nodes == 0 or bool(self.reachable_from(0).all())

    def reachable_from(self, node: int) -> np.ndarray:
        """Boolean mask of nodes reachable from ``node`` in the graph."""
        n = self.n_nodes
        seen = np.zeros(n, dtype=bool)
        stack = [node]
        seen[node] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``pos`` node attributes.

        Needs the optional ``graph`` extra (``pip install repro[graph]``).
        """
        import networkx as nx

        g = nx.Graph()
        for i in range(self.n_nodes):
            g.add_node(i, pos=tuple(self.positions[i]))
        g.add_edges_from(self.iter_edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(n={self.n_nodes}, edges={self.n_edges}, "
            f"r={self.radius}, mean_degree={self.mean_degree:.1f})"
        )


class _StackedRepView(Topology):
    """One replication of a :class:`StackedTopology` as a `Topology`.

    The local ``indptr`` is a cheap re-based slice of the stacked one;
    the local ``indices`` (the replication's edge list shifted back to
    local ids) is only materialized if something actually reads it —
    most policies never do, and the engine resolves slots on the stacked
    structure directly.  The view keeps array slices, never the stack
    itself, so a stack and its views form no reference cycle and are
    freed as soon as the engine drops them.
    """

    def __init__(self, stacked: "StackedTopology", rep: int) -> None:
        lo = int(stacked.node_offsets[rep])
        hi = int(stacked.node_offsets[rep + 1])
        self.positions = stacked.positions[lo:hi]
        self.radius = stacked.radius
        self._carrier_radius = stacked._carrier_radius
        self._carrier_csr = None
        e0 = int(stacked.indptr[lo])
        self.indptr = stacked.indptr[lo : hi + 1] - e0
        self._indices_global = stacked.indices[e0 : int(stacked.indptr[hi])]
        self._lo = lo
        self._indices_local: np.ndarray | None = None

    @property
    def indices(self) -> np.ndarray:
        if self._indices_local is None:
            self._indices_local = self._indices_global - self._lo
        return self._indices_local


class StackedTopology:
    """``R`` independent deployments as one CSR structure.

    Node ids are globally renumbered: replication ``r`` owns the
    contiguous block ``[node_offsets[r], node_offsets[r+1])``, so flat
    boolean state arrays and a single bincount-based channel resolution
    serve every replication at once, and per-replication quantities fall
    out of ``searchsorted`` against the offsets.

    Parameters
    ----------
    positions:
        ``(N, 2)`` concatenated coordinates of all replications.
    node_offsets:
        ``(R + 1,)`` cumulative node counts.
    radius:
        Transmission radius ``r`` (shared — one scenario, many draws).
    carrier_radius:
        Carrier-sense radius; defaults to ``2 * radius`` when the
        carrier CSR is first requested.
    """

    def __init__(
        self,
        positions: np.ndarray,
        node_offsets: np.ndarray,
        radius: float,
        *,
        carrier_radius: float | None = None,
    ):
        self.positions = np.asarray(positions, dtype=float)
        self.node_offsets = np.asarray(node_offsets, dtype=np.int64)
        self.radius = check_positive("radius", radius)
        if carrier_radius is not None and carrier_radius < radius:
            raise ValueError("carrier_radius must be >= radius")
        self._carrier_radius = carrier_radius
        self.indptr, self.indices = build_disk_graph_csr_stacked(
            self.positions, self.node_offsets, radius
        )
        self._carrier_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._rep_views: list[Topology | None] = [None] * self.n_reps

    # ------------------------------------------------------------------
    @property
    def n_reps(self) -> int:
        """Number of stacked replications ``R``."""
        return len(self.node_offsets) - 1

    @property
    def n_nodes(self) -> int:
        """Total node count across all replications."""
        return self.positions.shape[0]

    @property
    def carrier_radius(self) -> float:
        """Carrier-sense radius in effect (default ``2 r``)."""
        return (
            self._carrier_radius
            if self._carrier_radius is not None
            else 2.0 * self.radius
        )

    def carrier_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked CSR at carrier-sense radius (built lazily, cached)."""
        if self._carrier_csr is None:
            self._carrier_csr = build_disk_graph_csr_stacked(
                self.positions, self.node_offsets, self.carrier_radius
            )
        return self._carrier_csr

    def rep_slice(self, rep: int) -> tuple[np.ndarray, np.ndarray]:
        """Replication ``rep``'s CSR adjacency in *local* node ids."""
        view = self.rep_topology(rep)
        return view.indptr, view.indices

    def rep_topology(self, rep: int) -> Topology:
        """A per-replication :class:`Topology` view (cached, lazy)."""
        cached = self._rep_views[rep]
        if cached is None:
            cached = _StackedRepView(self, rep)
            self._rep_views[rep] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StackedTopology(reps={self.n_reps}, n={self.n_nodes}, "
            f"r={self.radius})"
        )
