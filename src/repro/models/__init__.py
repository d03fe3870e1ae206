"""Link-level communication models: packets, costs, CFM and CAM channels.

This package implements Sec. 3 of the paper: the formal objects of the
abstract network model.  A channel resolves a set of concurrent
transmissions into per-receiver deliveries
(:class:`~repro.models.channel.Delivery`);
:class:`~repro.models.cfm.CollisionFreeChannel` implements CFM (every
transmission reaches every neighbor) and
:class:`~repro.models.cam.CollisionAwareChannel` implements CAM
(concurrent transmissions to a common receiver all collide, assumption
6), optionally with a carrier-sense radius (Appendix A).
"""

from repro.models.packet import Packet
from repro.models.costs import CostModel, EnergyLedger
from repro.models.channel import Delivery
from repro.models.cfm import CollisionFreeChannel
from repro.models.cam import CollisionAwareChannel
from repro.models.tdma import TdmaSchedule, distance2_coloring, run_tdma_flooding

__all__ = [
    "Packet",
    "CostModel",
    "EnergyLedger",
    "Delivery",
    "CollisionFreeChannel",
    "CollisionAwareChannel",
    "TdmaSchedule",
    "distance2_coloring",
    "run_tdma_flooding",
]
