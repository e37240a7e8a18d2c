"""Autoscaling control plane.

A standalone subsystem that closes the loop between observed demand and
per-model replica counts:

* :class:`ScalingPolicy` implementations map a pool's
  :class:`~repro.faas.endpoint.PoolSignal` (the snapshot the placement
  plane also reads) to replica targets —
  :class:`QueueDepthPolicy` (the legacy endpoint heuristic, extracted),
  :class:`TargetUtilizationPolicy` (proportional, with cooldown/hysteresis),
  :class:`ScheduledPolicy` (cron-like capacity plans),
  :class:`PredictivePolicy` (EWMA/Holt arrival forecast that pre-warms one
  cold start ahead of ramps) and :class:`FederationScalingPolicy`
  (cross-cluster capacity shifting over the placement plane's shared
  :class:`~repro.placement.TopologyView`);
* :class:`ReplicaPool` reads the endpoint's instance pool through its
  backend protocol (``model``, ``signal()``, ``arrivals_total`` /
  ``completions_total``, ``launch_one`` and ``start_drain_one``), measures
  arrival/completion rates between ticks and actuates targets (launch /
  drain-before-terminate);
* :class:`AutoscaleController` runs the periodic control loops.

Configured per model through :class:`AutoscaleConfig` on
``ModelHostingConfig``.
"""

from .config import AutoscaleConfig
from .controller import AutoscaleController
from .policy import (
    POLICIES,
    FederationScalingPolicy,
    PredictivePolicy,
    QueueDepthPolicy,
    ScalingDecision,
    ScalingPolicy,
    ScheduledPolicy,
    TargetUtilizationPolicy,
    make_policy,
)
from .pool import ReplicaPool

__all__ = [
    "AutoscaleConfig",
    "AutoscaleController",
    "ReplicaPool",
    "ScalingDecision",
    "ScalingPolicy",
    "QueueDepthPolicy",
    "TargetUtilizationPolicy",
    "ScheduledPolicy",
    "PredictivePolicy",
    "FederationScalingPolicy",
    "POLICIES",
    "make_policy",
]
