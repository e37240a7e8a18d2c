"""Placement plane (Federation v2): the federation and its routing.

One shared, event-refreshed view of the fleet (:class:`TopologyView`) — the
ordered endpoint membership itself plus the signals derived from it —
feeding three consumers that previously kept private state:

* routing — :class:`PlacementPolicy` subclasses: :class:`PriorityRouter`
  (the paper's §4.5 rule, verbatim), :class:`LeastLoadedRouter`, the
  SLO-aware :class:`SLORouter` and the :class:`RandomRouter` /
  :class:`FirstConfiguredRouter` ablations;
* cross-cluster autoscaling — :class:`repro.autoscale.FederationScalingPolicy`
  binds to the view through ``bind_topology``;
* per-tenant capacity reservations — :class:`ReservationMiddleware`
  admits requests against reserved capacity tracked in the view.
"""

from .policies import (
    FirstConfiguredRouter,
    LeastLoadedRouter,
    PlacementPolicy,
    PriorityRouter,
    RandomRouter,
    SLORouter,
)
from .reservations import ReservationMiddleware
from .view import ClusterSignal, PoolSignal, TopologyView

__all__ = [
    "TopologyView",
    "PoolSignal",
    "ClusterSignal",
    "PlacementPolicy",
    "PriorityRouter",
    "LeastLoadedRouter",
    "SLORouter",
    "RandomRouter",
    "FirstConfiguredRouter",
    "ReservationMiddleware",
]
