"""Pluggable scaling policies.

Every policy maps a pool's :class:`~repro.faas.endpoint.PoolSignal` — the
same snapshot the placement plane routes on — to a desired *total* replica
count, in the frame of its ``total_instances``.  Two entry points:

* :meth:`ScalingPolicy.reactive` — demand-driven, called synchronously the
  moment a task starts waiting, so a cold pool still boots its first
  instance without waiting for a controller tick.  The base implementation
  only bootstraps; :class:`QueueDepthPolicy` reproduces the legacy
  endpoint heuristic here exactly.
* :meth:`ScalingPolicy.decide` — periodic, called by the
  :class:`~repro.autoscale.controller.AutoscaleController` every interval;
  this is where scale-down, utilization targets, capacity plans and
  forecast-driven pre-warming live.

Policies are listed by name in :data:`POLICIES`; deployments select one
via ``AutoscaleConfig.policy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..common import ConfigurationError
from .config import AutoscaleConfig

if TYPE_CHECKING:
    from ..faas import PoolSignal

__all__ = [
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


@dataclass
class ScalingDecision:
    """Outcome of one periodic policy evaluation."""

    target: int
    reason: str = ""


class ScalingPolicy:
    """Base class: bootstrap-only reactive path, no periodic action."""

    name = "base"

    def reactive(self, signal: "PoolSignal") -> int:
        """Desired total replicas when demand arrives (urgent path)."""
        if signal.total_instances == 0 and signal.waiting_tasks > 0:
            return 1
        return signal.total_instances

    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        """Desired total replicas at a controller tick."""
        raise NotImplementedError

    @staticmethod
    def _absolute(signal: "PoolSignal", needed: int) -> int:
        """Express an absolute desired instance count in the actuator's frame.

        The actuator diffs targets against ``signal.total_instances``, which
        double-counts a loading instance (legacy accounting); comparing an
        absolute count against it directly would mis-drain during launches.
        """
        return signal.total_instances + (needed - signal.provisioned_instances)


class QueueDepthPolicy(ScalingPolicy):
    """The legacy endpoint heuristic, extracted and generalised.

    Scale up one instance whenever more than ``queue_per_instance`` tasks
    wait per ready instance; optionally (periodic path only) drain one
    instance when the pool has been quiet for ``scale_down_hold_s``.
    """

    name = "queue_depth"

    def __init__(self, queue_per_instance: int = 8, scale_down: bool = False,
                 scale_down_hold_s: float = 60.0):
        if queue_per_instance <= 0:
            raise ValueError("queue_per_instance must be > 0")
        self.queue_per_instance = queue_per_instance
        self.scale_down = scale_down
        self.scale_down_hold_s = scale_down_hold_s
        self._quiet_since: Optional[float] = None

    def reactive(self, signal: "PoolSignal") -> int:
        total = signal.total_instances
        if total == 0:
            return 1 if signal.waiting_tasks > 0 else 0
        if signal.ready_instances == 0:
            return total  # first instance still starting; don't pile on yet
        saturated = (
            signal.waiting_tasks
            > signal.ready_instances * self.queue_per_instance
        )
        return total + 1 if saturated else total

    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        target = self.reactive(signal)
        if target > signal.total_instances:
            self._quiet_since = None
            return ScalingDecision(target, "queue depth over threshold")
        if not self.scale_down:
            return ScalingDecision(target)
        # Quiet enough that one fewer instance would absorb every in-flight
        # task?  Require it to hold for the full hold window first.
        fits_on_fewer = (
            signal.ready_instances > 1
            and signal.waiting_tasks == 0
            and signal.in_flight_tasks
            <= (signal.ready_instances - 1) * signal.slots_per_instance
        )
        if not fits_on_fewer:
            self._quiet_since = None
            return ScalingDecision(target)
        if self._quiet_since is None:
            self._quiet_since = signal.computed_at
        if signal.computed_at - self._quiet_since >= self.scale_down_hold_s:
            self._quiet_since = None
            return ScalingDecision(target - 1, "quiet pool, draining one")
        return ScalingDecision(target)


class TargetUtilizationPolicy(ScalingPolicy):
    """Proportional control towards a busy-fraction setpoint.

    Proportional control is ratio-based (desired ≈ ready * busy / target,
    the Kubernetes-HPA form); a deadband around the setpoint plus
    independent up/down cooldowns provide the hysteresis that keeps the loop
    from flapping on noisy workloads.
    """

    name = "target_utilization"

    def __init__(self, target: float = 0.7, deadband: float = 0.15,
                 cooldown_up_s: float = 30.0, cooldown_down_s: float = 120.0):
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        self.target = target
        self.deadband = deadband
        self.cooldown_up_s = cooldown_up_s
        self.cooldown_down_s = cooldown_down_s
        self._last_action_time = -float("inf")

    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        total = signal.total_instances
        ready = signal.ready_instances
        now = signal.computed_at

        if ready == 0:
            # Nothing observable yet: bootstrap on demand, otherwise hold.
            return ScalingDecision(max(total, self.reactive(signal)))

        busy = signal.busy_fraction
        desired_f = ready * (busy / self.target)

        low = ready * (1.0 - self.deadband)
        high = ready * (1.0 + self.deadband)
        if desired_f > high and now - self._last_action_time >= self.cooldown_up_s:
            self._last_action_time = now
            return ScalingDecision(
                max(total + 1, math.ceil(desired_f)),
                f"busy {busy:.2f} above target {self.target:.2f}",
            )
        if (desired_f < low and total > 1
                and now - self._last_action_time >= self.cooldown_down_s):
            self._last_action_time = now
            return ScalingDecision(
                max(1, min(total - 1, math.ceil(desired_f))),
                f"busy {busy:.2f} below target {self.target:.2f}",
            )
        return ScalingDecision(total)


class ScheduledPolicy(ScalingPolicy):
    """Cron-like capacity plan: replicas follow a periodic schedule.

    Offsets are taken modulo ``period_s`` from :attr:`epoch_s`, the plan's
    t=0: simulated time zero unless the owner re-anchors it (the autoscale
    cell runner sets it to the moment traffic opens).
    """

    name = "scheduled"

    def __init__(self, schedule, period_s: float = 86400.0):
        if not schedule:
            raise ValueError("ScheduledPolicy needs a non-empty schedule")
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        self.schedule = sorted((float(t), int(n)) for t, n in schedule)
        if self.schedule[0][0] > 0.0:
            # Before the first entry the plan wraps from the last one.
            self.schedule.insert(0, (0.0, self.schedule[-1][1]))
        self.period_s = period_s
        self.epoch_s = 0.0

    def planned_at(self, time: float) -> int:
        offset = (time - self.epoch_s) % self.period_s
        planned = self.schedule[0][1]
        for start, replicas in self.schedule:
            if start <= offset:
                planned = replicas
            else:
                break
        return planned

    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        planned = self.planned_at(signal.computed_at)
        if planned != signal.provisioned_instances:
            return ScalingDecision(self._absolute(signal, planned), "capacity plan")
        return ScalingDecision(signal.total_instances)


class PredictivePolicy(ScalingPolicy):
    """Holt (EWMA level + trend) forecast of the arrival rate.

    The forecast horizon defaults to the pool's observed cold-start time, so
    capacity for a ramp is requested one cold start *before* the ramp
    arrives — amortising exactly the cost ``bench_cold_start.py`` measures.
    Scale-down follows the same forecast but only after the lower estimate
    has held for ``scale_down_hold_s``.

    The forecast is Holt's linear method on the arrival rate measured
    between controller ticks: ``alpha`` smooths the level, ``beta`` the
    per-tick trend (0 = plain EWMA), and a rate ``lead_s`` ahead is the
    level plus the trend times the ticks in the lead, floored at zero.
    """

    name = "predictive"

    def __init__(self, alpha: float = 0.35, beta: float = 0.15,
                 lead_s: Optional[float] = None,
                 instance_rps: Optional[float] = None,
                 headroom: float = 0.15,
                 queue_per_instance: int = 8,
                 scale_down_hold_s: float = 60.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        self.alpha = alpha
        self.beta = beta
        self.lead_s = lead_s
        self.instance_rps = instance_rps
        self.headroom = headroom
        self.queue_per_instance = queue_per_instance
        self.scale_down_hold_s = scale_down_hold_s
        self._level: Optional[float] = None
        self._trend = 0.0
        self._last_time: Optional[float] = None
        self._rps_estimate = 1.0
        self._low_since: Optional[float] = None

    # -- forecasting ---------------------------------------------------------
    def _observe(self, signal: "PoolSignal") -> float:
        """Holt update with the tick's arrival rate; returns dt."""
        rate = signal.arrival_rate_rps
        dt = 0.0 if self._last_time is None else signal.computed_at - self._last_time
        self._last_time = signal.computed_at
        if self._level is None:
            self._level = rate
        else:
            previous = self._level
            self._level = self.alpha * rate + (1.0 - self.alpha) * (self._level + self._trend)
            self._trend = self.beta * (self._level - previous) + (1.0 - self.beta) * self._trend
        return dt

    def forecast_rate(self, lead_s: float, dt: float) -> float:
        """Arrival-rate forecast ``lead_s`` ahead (per-tick trend units)."""
        if self._level is None:
            return 0.0
        steps = lead_s / dt if dt > 0 else 0.0
        return max(0.0, self._level + self._trend * steps)

    def _per_instance_rps(self, signal: "PoolSignal") -> float:
        if self.instance_rps is not None:
            return self.instance_rps
        # Online estimate: a saturated pool's completion rate per ready
        # instance is a lower bound on sustainable per-instance throughput.
        if signal.ready_instances > 0 and signal.waiting_tasks > 0:
            observed = signal.completion_rate_rps / signal.ready_instances
            self._rps_estimate = max(self._rps_estimate, observed)
        return self._rps_estimate

    # -- decisions ------------------------------------------------------------
    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        dt = self._observe(signal)
        total = signal.total_instances
        current = signal.provisioned_instances
        if current == 0 and signal.waiting_tasks == 0 and signal.arrival_rate_rps == 0.0:
            return ScalingDecision(total)

        lead = self.lead_s if self.lead_s is not None else signal.cold_start_estimate_s
        forecast = self.forecast_rate(lead, dt)
        rps = self._per_instance_rps(signal)
        needed = math.ceil(forecast * (1.0 + self.headroom) / max(rps, 1e-9))
        needed = max(needed, 1 if (signal.waiting_tasks or signal.in_flight_tasks
                                   or forecast > 0) else 0)
        # Backlog guard: a forecast can lag a flash crowd, so never plan
        # below what the queue-depth heuristic would demand right now.
        if (signal.ready_instances > 0 and signal.waiting_tasks
                > signal.ready_instances * self.queue_per_instance):
            needed = max(needed, current + 1)

        if needed > current:
            self._low_since = None
            return ScalingDecision(
                self._absolute(signal, needed),
                f"forecast {forecast:.2f} req/s over {lead:.0f}s lead",
            )
        if needed < current:
            if self._low_since is None:
                self._low_since = signal.computed_at
            if signal.computed_at - self._low_since >= self.scale_down_hold_s:
                self._low_since = None
                return ScalingDecision(
                    self._absolute(signal, needed),
                    f"forecast {forecast:.2f} req/s allows scale-down",
                )
            return ScalingDecision(total)
        self._low_since = None
        return ScalingDecision(total)


class FederationScalingPolicy(QueueDepthPolicy):
    """Cross-cluster scaling over the shared placement-plane view.

    Locally the policy *is* a :class:`QueueDepthPolicy` (reactive scale-up
    at ``queue_per_instance`` waiting tasks per ready instance, hold-based
    quiet scale-down — both inherited).
    Once bound to a :class:`~repro.placement.TopologyView` (the view calls
    :meth:`bind_topology` when the owning endpoint joins the federation) it
    additionally *shifts* replica targets across clusters on sustained queue
    imbalance:

    * **recipient (pre-warm)** — a sibling cluster's queue per ready
      instance has exceeded the local scale-up threshold for
      ``imbalance_hold_s`` while this cluster has no spare ready capacity
      to absorb the overflow: launch one replica *before* the router sheds
      traffic here, hiding the cold start behind the sibling's backlog;
    * **donor (give-back)** — this cluster has been fully idle for
      ``scale_down_hold_s`` while no sibling needs it hot
      (every sibling's pressure is below ``queue_per_instance /
      imbalance_ratio``): drain one replica (drain-before-terminate via the
      standard actuator path), returning the shifted capacity.

    Without a bound view the policy degrades to plain queue-depth behaviour
    with hold-based quiet scale-down, so it is safe as a per-model default
    on single-cluster deployments.
    """

    name = "federated"

    def __init__(self, queue_per_instance: int = 8,
                 scale_down_hold_s: float = 60.0,
                 imbalance_ratio: float = 2.0,
                 imbalance_hold_s: float = 45.0):
        super().__init__(queue_per_instance=queue_per_instance, scale_down=True,
                         scale_down_hold_s=scale_down_hold_s)
        if imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1")
        self.imbalance_ratio = imbalance_ratio
        self.imbalance_hold_s = imbalance_hold_s
        self.view = None
        self.endpoint_id: Optional[str] = None
        self.cluster: Optional[str] = None
        self.model: Optional[str] = None
        self._receive_since: Optional[float] = None
        self._idle_since: Optional[float] = None
        #: Audit counters for benchmarks/tests.
        self.shifts_in = 0
        self.shifts_out = 0

    def bind_topology(self, view, endpoint_id: str, cluster: str, model: str) -> None:
        """Attach the shared fleet view (called by ``TopologyView``)."""
        self.view = view
        self.endpoint_id = endpoint_id
        self.cluster = cluster
        self.model = model

    def unbind_topology(self) -> None:
        """Detach from the fleet view (the endpoint left the federation):
        no more cross-cluster shifting, plain queue-depth behaviour stays."""
        self.view = None
        self.endpoint_id = None
        self.cluster = None
        self.model = None
        self._receive_since = None
        self._idle_since = None

    # -- local heuristics -----------------------------------------------------
    def _sibling_signals(self):
        if self.view is None or self.model is None:
            return []
        return [
            sig for entry, sig in self.view.candidates(self.model)
            if sig is not None and entry.endpoint_id != self.endpoint_id
        ]

    @staticmethod
    def _pressure(sig) -> float:
        """A pool's queue pressure, tolerant of cold pools."""
        if sig.ready_instances <= 0:
            return float(sig.waiting_tasks)
        return sig.queue_per_ready

    # -- decisions -------------------------------------------------------------
    def decide(self, signal: "PoolSignal") -> ScalingDecision:
        now = signal.computed_at
        total = signal.total_instances

        # Local saturation wins: behave exactly like the queue-depth heuristic.
        target = self.reactive(signal)
        if target > total:
            self._receive_since = self._idle_since = self._quiet_since = None
            return ScalingDecision(target, "queue depth over threshold")

        siblings = self._sibling_signals()
        hot = max((self._pressure(s) for s in siblings), default=0.0)
        my_pressure = self._pressure(signal)

        # Recipient (pre-warm): a sibling is drowning while this cluster has
        # no spare ready capacity for the overflow — bring a replica up
        # *before* the router starts shedding here, so the cold start hides
        # behind the sibling's backlog instead of adding to a request's wait.
        spare_slots = (
            signal.ready_instances * signal.slots_per_instance
            - signal.in_flight_tasks - signal.waiting_tasks
        )
        receiving = (
            siblings
            and hot > self.queue_per_instance
            and hot >= self.imbalance_ratio * max(my_pressure, 1.0)
            and spare_slots < signal.slots_per_instance
            and signal.total_instances == signal.ready_instances
        )
        if receiving:
            if self._receive_since is None:
                self._receive_since = now
            if now - self._receive_since >= self.imbalance_hold_s:
                self._receive_since = None
                self.shifts_in += 1
                return ScalingDecision(
                    total + 1, "queue imbalance: shifting capacity to this cluster"
                )
            return ScalingDecision(total)
        self._receive_since = None

        # Donor (give-back): fully idle here and no sibling hot enough to
        # shed this way — return the shifted capacity (down to the clamp's
        # floor, possibly zero for a spill cluster).
        sibling_needs_me = hot > self.queue_per_instance / self.imbalance_ratio
        fully_idle = (
            signal.ready_instances > 0
            and signal.waiting_tasks == 0
            and signal.in_flight_tasks == 0
        )
        if siblings and fully_idle and not sibling_needs_me:
            if self._idle_since is None:
                self._idle_since = now
            if now - self._idle_since >= self.scale_down_hold_s:
                self._idle_since = None
                self.shifts_out += 1
                return ScalingDecision(
                    total - 1, "fleet calm: returning shifted capacity"
                )
            return ScalingDecision(total)
        self._idle_since = None

        # Plain quiet scale-down: light load that fits on one fewer instance
        # drains the excess — inherited verbatim from QueueDepthPolicy.
        return super().decide(signal)


#: Policy-name registry: ``AutoscaleConfig.policy`` → factory taking
#: ``(config, defaults)`` where ``defaults`` carries hosting-derived values.
POLICIES: Dict[str, Callable[[AutoscaleConfig, dict], ScalingPolicy]] = {
    "queue_depth": lambda cfg, d: QueueDepthPolicy(
        queue_per_instance=cfg.queue_per_instance or d.get("queue_per_instance", 8),
        scale_down=cfg.scale_down,
        scale_down_hold_s=cfg.scale_down_hold_s,
    ),
    "target_utilization": lambda cfg, d: TargetUtilizationPolicy(
        target=cfg.target_utilization,
        deadband=cfg.deadband,
        cooldown_up_s=cfg.cooldown_up_s,
        cooldown_down_s=cfg.cooldown_down_s,
    ),
    "scheduled": lambda cfg, d: ScheduledPolicy(
        schedule=cfg.schedule,
        period_s=cfg.schedule_period_s,
    ),
    "federated": lambda cfg, d: FederationScalingPolicy(
        queue_per_instance=cfg.queue_per_instance or d.get("queue_per_instance", 8),
        scale_down_hold_s=cfg.scale_down_hold_s,
        imbalance_ratio=cfg.imbalance_ratio,
        imbalance_hold_s=cfg.imbalance_hold_s,
    ),
    "predictive": lambda cfg, d: PredictivePolicy(
        alpha=cfg.ewma_alpha,
        beta=cfg.trend_beta,
        lead_s=cfg.prewarm_lead_s,
        instance_rps=cfg.instance_rps,
        headroom=cfg.headroom,
        queue_per_instance=cfg.queue_per_instance or d.get("queue_per_instance", 8),
        scale_down_hold_s=cfg.scale_down_hold_s,
    ),
}


def make_policy(config: AutoscaleConfig, **defaults) -> ScalingPolicy:
    """Instantiate the policy named by ``config.policy``."""
    try:
        factory = POLICIES[config.policy]
    except KeyError:
        raise ConfigurationError(
            f"Unknown autoscale policy {config.policy!r}; "
            f"expected one of {sorted(POLICIES)}"
        ) from None
    return factory(config, defaults)
