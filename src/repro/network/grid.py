"""Square-lattice deployments (the related-work grid scenario).

The paper's related work (its ref. [32], Sasson et al.) studies
probability-based broadcast on a *grid* deployment with collision-free
communication and finds the critical broadcast probability near 0.59 —
the site-percolation threshold of the square lattice.  This module
provides the grid deployment so that claim is reproducible inside the
same engine stack (see ``benchmarks/bench_percolation.py``).

:class:`GridDeployment` is duck-type compatible with
:class:`~repro.network.deployment.DiskDeployment` for everything the
engines consume (positions, source, topology, ring indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.topology import Topology
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["GridDeployment"]


@dataclass(frozen=True)
class GridDeployment:
    """An odd ``side x side`` unit-spacing lattice with the source centered.

    Node 0 is the source at the origin (lattice center); transmission
    radius 1 connects the four axial neighbors (diagonals are at
    ``sqrt(2) > 1``).

    Parameters
    ----------
    side:
        Lattice side length; must be odd so a center node exists.
    spacing:
        Lattice constant (the transmission radius equals it).
    """

    side: int
    spacing: float = 1.0
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int("side", self.side)
        check_positive("spacing", self.spacing)
        if self.side % 2 == 0:
            raise ValueError("side must be odd so the source sits at the center")
        half = self.side // 2
        coords = np.arange(-half, half + 1) * self.spacing
        xx, yy = np.meshgrid(coords, coords)
        pts = np.column_stack((xx.ravel(), yy.ravel()))
        # Put the center (the source) first; keep the rest in scan order.
        center = np.flatnonzero((pts[:, 0] == 0.0) & (pts[:, 1] == 0.0))[0]
        order = np.concatenate(([center], np.delete(np.arange(len(pts)), center)))
        pts = pts[order]
        pts.setflags(write=False)
        object.__setattr__(self, "positions", pts)

    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        """Node id of the broadcast source (always 0)."""
        return 0

    @property
    def radius(self) -> float:
        """Transmission radius: one lattice spacing."""
        return self.spacing

    @property
    def link_radius(self) -> float:
        """Radius the lattice graph is built with.

        One spacing, padded so the exact-distance axial links survive
        float rounding; both :meth:`topology` and the engine's stacked
        build (:class:`~repro.network.deployment.DeploymentBatch`) read
        it here.
        """
        return self.spacing * 1.0001

    @property
    def n_nodes(self) -> int:
        """Total node count (``side**2``)."""
        return self.side**2

    @property
    def n_field_nodes(self) -> int:
        """Nodes excluding the source — the reachability denominator."""
        return self.n_nodes - 1

    @property
    def n_rings(self) -> int:
        """Euclidean distance bands of width ``spacing`` covering the lattice."""
        half = self.side // 2
        corner = np.hypot(half, half) * self.spacing
        return int(np.ceil(corner / self.spacing)) or 1

    @property
    def field_radius(self) -> float:
        """Circumradius of the lattice."""
        return self.n_rings * self.spacing

    @property
    def radial_distances(self) -> np.ndarray:
        """Distance of every node from the source."""
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    def ring_indices(self) -> np.ndarray:
        """1-based Euclidean ring index of every node (source in ring 1)."""
        idx = np.ceil(self.radial_distances / self.spacing).astype(int)
        return np.maximum(idx, 1)

    def topology(self, *, carrier_radius: float | None = None) -> Topology:
        """The 4-neighbor lattice graph (radius = spacing)."""
        return Topology(self.positions, self.link_radius, carrier_radius=carrier_radius)
