"""The control loop's sensor: periodic samples of one model's replica pool.

A :class:`MetricsFeed` reads a duck-typed *source* (the endpoint's per-model
instance pool) and distils it into a :class:`MetricsSample` — the only input
a :class:`~repro.autoscale.policy.ScalingPolicy` sees; gateway latency is
the placement plane's signal, not the autoscaler's.  Keeping policies
sample-driven makes them trivially testable (feed them handcrafted samples)
and keeps the autoscale package free of dependencies on the FaaS layer.

The source protocol (all plain attributes/properties)::

    model                   str
    ready_count             instances accepting work
    draining_count          instances finishing in-flight work before retirement
    instance_count          instances created (ready + loading + draining)
    launching_count         launches in flight (job queued/starting or model loading)
    provisioned_count       deduplicated non-draining instance count
    waiting_tasks           tasks queued at the pool
    in_flight_tasks         tasks holding an instance slot
    slots_per_instance      max parallel tasks per instance
    kv_utilization          max KV-cache utilisation across ready instances
    cold_start_estimate_s   observed (or default) submit-to-ready time
    arrivals_total          monotonically increasing task-arrival counter
    completions_total       monotonically increasing task-completion counter
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment

__all__ = ["MetricsSample", "MetricsFeed"]


@dataclass
class MetricsSample:
    """One observation of a model's pool (counts, queues, rates, KV) at ``time``."""

    time: float
    model: str
    ready_instances: int
    starting_instances: int
    draining_instances: int
    waiting_tasks: int
    in_flight_tasks: int
    slots_per_instance: int
    arrival_rate_rps: float
    completion_rate_rps: float
    kv_utilization: float
    cold_start_estimate_s: float
    #: Deduplicated instance count (ready + loading + launches without an
    #: instance object yet), draining excluded.  ``total_instances``
    #: deliberately double-counts a loading instance (legacy queue-depth
    #: semantics); policies that compute *absolute* replica targets must
    #: compare against this instead.  ``None`` falls back to
    #: ``total_instances``.
    provisioned_instances: Optional[int] = None

    @property
    def total_instances(self) -> int:
        """Instances the pool counts against its ceiling (draining excluded).

        Mirrors the legacy accounting: a loading instance contributes both
        its instance object and its still-open launch, so this can briefly
        exceed :attr:`provisioned`.
        """
        return self.ready_instances + self.starting_instances

    @property
    def provisioned(self) -> int:
        """Deduplicated provisioned count (see ``provisioned_instances``)."""
        if self.provisioned_instances is not None:
            return self.provisioned_instances
        return self.total_instances

    @property
    def busy_fraction(self) -> float:
        """Demand over ready slot capacity (can exceed 1 when work queues)."""
        capacity = self.ready_instances * self.slots_per_instance
        demand = self.in_flight_tasks + self.waiting_tasks
        if capacity <= 0:
            return 0.0 if demand == 0 else float("inf")
        return demand / capacity

    @property
    def queue_per_ready(self) -> float:
        if self.ready_instances <= 0:
            return float("inf") if self.waiting_tasks else 0.0
        return self.waiting_tasks / self.ready_instances


class MetricsFeed:
    """Samples a pool source.

    Rates are measured between *advancing* samples: the periodic controller
    advances the window each tick, while reactive (demand-driven) checks
    sample without advancing so they do not shorten the measurement window.
    """

    def __init__(self, env: Environment, source):
        self.env = env
        self.source = source
        self._window_start = env.now
        self._arrivals_at_start = source.arrivals_total
        self._completions_at_start = source.completions_total

    def sample(self, advance: bool = True) -> MetricsSample:
        src = self.source
        now = self.env.now
        dt = now - self._window_start
        arrivals = src.arrivals_total
        completions = src.completions_total
        if dt > 0:
            arrival_rate = (arrivals - self._arrivals_at_start) / dt
            completion_rate = (completions - self._completions_at_start) / dt
        else:
            arrival_rate = 0.0
            completion_rate = 0.0
        if advance:
            self._window_start = now
            self._arrivals_at_start = arrivals
            self._completions_at_start = completions

        ready = src.ready_count
        draining = src.draining_count
        # Legacy accounting quirk, kept deliberately: a loading instance is
        # counted both in instance_count and in launching_count, which stops
        # the queue-depth heuristic from piling on launches while the first
        # instance loads.
        total = src.instance_count + src.launching_count - draining

        return MetricsSample(
            time=now,
            model=src.model,
            ready_instances=ready,
            starting_instances=max(0, total - ready),
            draining_instances=draining,
            waiting_tasks=src.waiting_tasks,
            in_flight_tasks=src.in_flight_tasks,
            slots_per_instance=src.slots_per_instance,
            arrival_rate_rps=arrival_rate,
            completion_rate_rps=completion_rate,
            kv_utilization=src.kv_utilization,
            cold_start_estimate_s=src.cold_start_estimate_s,
            provisioned_instances=src.provisioned_count,
        )
