"""Per-model autoscaling configuration.

``AutoscaleConfig`` is the single knob surface users touch: it selects a
:mod:`~repro.autoscale.policy` by name, bounds the replica count, and
carries every built-in policy's tunables — queue-depth thresholds, a
proportional utilization target with cooldowns, a periodic capacity plan,
cross-cluster shifting, and a Holt (level + trend) arrival forecast.
Deployments attach it per model through
``ModelDeploymentSpec.autoscale`` / ``ModelHostingConfig.autoscale``; when
it is ``None`` the endpoint falls back to the legacy demand-driven
queue-depth behaviour (reactive scale-up only, no periodic controller), so
existing deployments are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["AutoscaleConfig"]


@dataclass
class AutoscaleConfig:
    """How one model's replica pool is autoscaled.

    Only the fields relevant to the selected ``policy`` are read; the rest
    are ignored, so a config can be switched between policies by changing
    one string.
    """

    #: Policy name registered in :data:`repro.autoscale.policy.POLICIES`
    #: (``queue_depth`` | ``target_utilization`` | ``scheduled`` |
    #: ``predictive``).
    policy: str = "queue_depth"
    #: Floor the controller maintains even with zero demand (pre-warmed).
    min_instances: int = 0
    #: Ceiling; ``None`` uses the hosting config's ``max_instances``.
    max_instances: Optional[int] = None
    #: Controller sampling/decision interval.
    interval_s: float = 15.0

    # -- queue-depth policy -------------------------------------------------
    #: Waiting tasks per ready instance that trigger scale-up; ``None`` uses
    #: the hosting config's ``scale_up_queue_per_instance``.
    queue_per_instance: Optional[int] = None
    #: Whether the periodic controller may drain idle capacity back down.
    scale_down: bool = True
    #: How long the scale-down condition must hold before an instance drains.
    scale_down_hold_s: float = 60.0

    # -- target-utilization (proportional) policy ----------------------------
    #: Desired busy fraction (in-flight + waiting over ready slot capacity).
    target_utilization: float = 0.7
    #: Hysteresis band around the target inside which no action is taken.
    deadband: float = 0.15
    #: Minimum time between consecutive scale-ups / scale-downs.
    cooldown_up_s: float = 30.0
    cooldown_down_s: float = 120.0

    # -- scheduled (cron-like) policy ---------------------------------------
    #: Capacity plan: ``(offset_into_period_s, replicas)`` entries; the entry
    #: with the largest offset <= (now mod period) wins.
    schedule: List[Tuple[float, int]] = field(default_factory=list)
    #: Plan period (one simulated "day" by default); the plan's t=0 is
    #: ``ScheduledPolicy.epoch_s``.
    schedule_period_s: float = 86400.0

    # -- federated (cross-cluster shifting) policy ---------------------------
    #: How much hotter (queue per ready instance) a sibling cluster must be
    #: than this one before this cluster donates a replica.
    imbalance_ratio: float = 2.0
    #: How long a queue imbalance must hold before capacity shifts.
    imbalance_hold_s: float = 45.0

    # -- predictive (EWMA/Holt forecast) policy ------------------------------
    #: Level smoothing factor for the arrival-rate EWMA.
    ewma_alpha: float = 0.35
    #: Trend smoothing factor (Holt's linear method); 0 = plain EWMA.
    trend_beta: float = 0.15
    #: Forecast horizon; ``None`` uses the pool's observed cold-start time,
    #: which is the whole point: pre-warm exactly one cold start ahead.
    prewarm_lead_s: Optional[float] = None
    #: Requests/s one ready instance sustains; ``None`` lets the policy
    #: estimate it online from observed completion rates.
    instance_rps: Optional[float] = None
    #: Fractional capacity headroom provisioned above the forecast.
    headroom: float = 0.15

    def __post_init__(self):
        if self.min_instances < 0:
            raise ValueError("min_instances must be >= 0")
        if self.max_instances is not None and self.max_instances < max(1, self.min_instances):
            raise ValueError("max_instances must be >= max(1, min_instances)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if self.schedule:
            self.schedule = sorted(self.schedule)
