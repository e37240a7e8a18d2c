"""Cold-start-aware replica pool: the control plane's actuator.

A :class:`ReplicaPool` binds one model's scaling policy to a *backend* —
the endpoint-side instance pool that reports its state and can actually
launch and drain instances.  It owns target clamping (min/max), converts
policy targets into launch / drain actions, measures arrival and completion
rates between controller ticks, and keeps an audit log of every scale event
for benchmarks and the dashboard.

The backend protocol (implemented by the FaaS endpoint's ``_ModelPool``)::

    model                   the hosted model's name
    signal() -> PoolSignal  the pool's state now (the snapshot placement reads)
    arrivals_total          monotonically increasing task-arrival counter
    completions_total       monotonically increasing task-completion counter
    launch_one()            submit a scheduler job + bring up an instance
    start_drain_one() -> bool
                            begin drain-before-terminate on one ready
                            instance (False when none is drainable)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..common import sim_logger
from ..sim import Environment
from .policy import ScalingPolicy

if TYPE_CHECKING:
    from ..faas import PoolSignal

__all__ = ["ReplicaPool"]


class ReplicaPool:
    """Policy-driven scaling of one model's instances."""

    def __init__(
        self,
        env: Environment,
        policy: ScalingPolicy,
        backend,
        min_instances: int = 0,
        max_instances: int = 1,
    ):
        self.env = env
        self.policy = policy
        self.backend = backend
        self.min_instances = min_instances
        self.max_instances = max_instances
        #: Audit log of applied scale events (time, current, target, reason).
        self.actions: List[dict] = []
        self.launches = 0
        self.drains = 0
        self._log = sim_logger("repro.autoscale.pool", env)
        # Rate window: measured between ticks only, so reactive checks do not
        # shorten it.
        self._window_start = env.now
        self._arrivals_at_start = backend.arrivals_total
        self._completions_at_start = backend.completions_total

    @property
    def model(self) -> str:
        return self.backend.model

    # -- control entry points --------------------------------------------------
    def reactive(self) -> None:
        """Demand-driven check (a task just started waiting)."""
        signal = self.backend.signal()
        self._apply(signal, self.policy.reactive(signal), reason="reactive")

    def tick(self) -> None:
        """Periodic controller evaluation; advances the rate window."""
        backend = self.backend
        signal = backend.signal()
        now = signal.computed_at
        dt = now - self._window_start
        arrivals = backend.arrivals_total
        completions = backend.completions_total
        if dt > 0:
            signal.arrival_rate_rps = (arrivals - self._arrivals_at_start) / dt
            signal.completion_rate_rps = (completions - self._completions_at_start) / dt
        else:
            signal.arrival_rate_rps = signal.completion_rate_rps = 0.0
        self._window_start = now
        self._arrivals_at_start = arrivals
        self._completions_at_start = completions
        decision = self.policy.decide(signal)
        self._apply(signal, decision.target, reason=decision.reason or "tick")

    def scale_to(self, target: int, reason: str = "manual") -> None:
        """Imperative scaling (operator/benchmark override)."""
        self._apply(self.backend.signal(), target, reason=reason)

    # -- actuation -------------------------------------------------------------
    def _clamp(self, target: int) -> int:
        return max(self.min_instances, min(self.max_instances, target))

    def _apply(self, signal: "PoolSignal", target: Optional[int], reason: str) -> None:
        if target is None:
            return
        current = signal.total_instances
        clamped = self._clamp(target)
        launched = drained = 0
        if clamped > current:
            for _ in range(clamped - current):
                self.backend.launch_one()
                launched += 1
        elif clamped < current and target < current:
            # Drain only when the *policy* asked for fewer instances.  A
            # clamp-down alone can be a transient artifact: while an instance
            # loads, the pool counts it twice (created + launching), so the
            # observed total can exceed the ceiling without any real excess.
            for _ in range(current - clamped):
                if not self.backend.start_drain_one():
                    self._log.warning("scale-down stopped short: no drainable instance",
                                      model=self.model, requested=current - clamped,
                                      drained=drained, reason=reason)
                    break
                drained += 1
        if launched == 0 and drained == 0:
            return
        self.launches += launched
        self.drains += drained
        # Audit the scaling that actually started (a drain request can stop
        # short when no further ready instance is drainable).
        self.actions.append(
            {"time": signal.computed_at, "from": current,
             "to": current + launched - drained, "reason": reason}
        )

    def snapshot(self) -> dict:
        """Scale-event summary (surfaced by benchmarks and ``/metrics``)."""
        return {
            "model": self.model,
            "policy": self.policy.name,
            "min_instances": self.min_instances,
            "max_instances": self.max_instances,
            "launches": self.launches,
            "drains": self.drains,
            "actions": list(self.actions),
        }
