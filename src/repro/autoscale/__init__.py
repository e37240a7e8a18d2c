"""Autoscaling control plane.

A standalone subsystem that closes the loop between observed demand and
per-model replica counts:

* :class:`MetricsFeed` samples a model's instance pool (queue depth, busy
  fraction, KV pressure, cold-start estimate, arrival/completion rates);
* :class:`ScalingPolicy` implementations map samples to replica targets —
  :class:`QueueDepthPolicy` (the legacy endpoint heuristic, extracted),
  :class:`TargetUtilizationPolicy` (proportional, with cooldown/hysteresis),
  :class:`ScheduledPolicy` (cron-like capacity plans),
  :class:`PredictivePolicy` (EWMA/Holt arrival forecast that pre-warms one
  cold start ahead of ramps) and :class:`FederationScalingPolicy`
  (cross-cluster capacity shifting over the placement plane's shared
  :class:`~repro.placement.TopologyView`);
* :class:`ReplicaPool` actuates targets (launch / drain-before-terminate)
  against the endpoint's instance pool;
* :class:`AutoscaleController` runs the periodic control loops.

Configured per model through :class:`AutoscaleConfig` on
``ModelDeploymentSpec`` / ``ModelHostingConfig``.
"""

from .config import AutoscaleConfig
from .controller import AutoscaleController
from .metrics import MetricsFeed, MetricsSample
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
    register_policy,
)
from .pool import ReplicaPool

__all__ = [
    "AutoscaleConfig",
    "AutoscaleController",
    "MetricsFeed",
    "MetricsSample",
    "ReplicaPool",
    "ScalingDecision",
    "ScalingPolicy",
    "QueueDepthPolicy",
    "TargetUtilizationPolicy",
    "ScheduledPolicy",
    "PredictivePolicy",
    "FederationScalingPolicy",
    "POLICIES",
    "register_policy",
    "make_policy",
]
