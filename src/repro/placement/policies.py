"""Placement policies: federation routing over the shared TopologyView.

A :class:`PlacementPolicy` picks one of the view's endpoints for a model and
keeps the decision log; subclasses implement ``_choose`` over event-refreshed
:class:`~repro.placement.PoolSignal` snapshots instead of probing endpoint or
scheduler state privately.

* :class:`PriorityRouter` — the paper's §4.5 three-rule algorithm, verbatim:
  rule 1 reads the view's pool signals (the same pool ``signal()`` the
  gateway's ``/jobs`` rows are built from) and rule 2 still pays the public
  status-query latency through :meth:`TopologyView.query_cluster`, so the
  ablation benchmark reproduces bit-identically.
* :class:`LeastLoadedRouter` — picks the ready candidate with the lowest
  load (busy fraction, then queue per ready instance); entirely synchronous
  because the view is already warm.
* :class:`SLORouter` — scores candidates by predicted TTFT against a
  per-tenant latency SLO and sheds to a secondary cluster while the
  primary's observed p50 breaches it, with hold-based hysteresis so the
  shed/recover transitions cannot flap.
* :class:`RandomRouter` / :class:`FirstConfiguredRouter` — the stateless
  ablations of ``benchmarks/bench_federation.py``.

Routing decisions are kept in a *bounded* deque (long sweeps used to grow
the log without limit); cumulative per-endpoint/per-rule counters survive
the eviction and are surfaced on the gateway dashboard via
:meth:`PlacementPolicy.summary`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..common import NotFoundError, RandomSource
from .view import PoolSignal, TopologyView

__all__ = ["RoutingDecision", "PlacementPolicy", "PriorityRouter",
           "LeastLoadedRouter", "SLORouter", "RandomRouter",
           "FirstConfiguredRouter"]

#: Length of the recent-decisions log (the cumulative counters never evict).
MAX_DECISIONS = 512


@dataclass
class RoutingDecision:
    """Outcome of a routing query (kept for observability/logging)."""

    model: str
    endpoint_id: str
    cluster: str
    rule: str
    candidates: int
    tenant: Optional[str] = None


class PlacementPolicy:
    """Router over the shared view: subclasses implement :meth:`_choose`."""

    policy_name = "placement"

    def __init__(self, view: TopologyView):
        self.view = view
        self.decisions: Deque[RoutingDecision] = deque(maxlen=MAX_DECISIONS)
        self.decisions_total = 0
        self.decisions_by_endpoint: Counter = Counter()
        self.decisions_by_rule: Counter = Counter()

    def select(self, model: str, tenant: Optional[str] = None):
        """Simulation process: choose an endpoint for ``model``.

        ``tenant`` is the authenticated caller; tenant-aware policies (the
        SLO router) use it to pick the applicable SLO, everything else may
        ignore it.
        """
        candidates = self.view.endpoints_for_model(model)
        if not candidates:
            raise NotFoundError(f"No federated endpoint hosts model {model}")
        chosen, rule = yield from self._choose(model, candidates, tenant)
        self.decisions.append(RoutingDecision(
            model=model,
            endpoint_id=chosen.endpoint_id,
            cluster=chosen.cluster_name,
            rule=rule,
            candidates=len(candidates),
            tenant=tenant,
        ))
        self.decisions_total += 1
        self.decisions_by_endpoint[chosen.endpoint_id] += 1
        self.decisions_by_rule[rule] += 1
        return chosen

    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        raise NotImplementedError
        yield  # pragma: no cover

    def summary(self) -> dict:
        """Cumulative decision counters (dashboard's ``routing`` block)."""
        return {
            "policy": self.policy_name,
            "total": self.decisions_total,
            "recent": len(self.decisions),
            "by_endpoint": dict(self.decisions_by_endpoint),
            "by_rule": dict(self.decisions_by_rule),
        }

    def _cold_fallback(self, candidates, signals):
        """No pool is ready anywhere: prefer one already coming up, then a
        cluster with free nodes (event-fresh signal, no query latency),
        then the first configured endpoint."""
        for endpoint, sig in signals:
            if sig is not None and sig.active:
                return endpoint, "active-instance"
        for endpoint, _sig in signals:
            cluster = self.view.cluster_signal(endpoint.endpoint_id)
            if cluster is not None and cluster.free_nodes > 0:
                return endpoint, "free-nodes"
        return candidates[0], "first-configured"


class PriorityRouter(PlacementPolicy):
    """The paper's priority-based selection algorithm (§4.5), view-backed."""

    policy_name = "priority"

    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        # Rule 1: model already running or queued somewhere — the pool
        # signals are event-fresh, no per-request endpoint probe needed.
        for endpoint in candidates:
            signal = self.view.pool_signal(endpoint.endpoint_id, model)
            if signal is not None and signal.active:
                return endpoint, "active-instance"
        # Rule 2: a cluster with available nodes, via the *public* status
        # query (latency + staleness preserved for ablation parity).  Every
        # query is bound before the first is awaited: the candidate list was
        # fixed at selection time, so an endpoint that leaves meanwhile is
        # still asked.
        queries = [self.view.query_cluster(e.endpoint_id) for e in candidates]
        for endpoint, query in zip(candidates, queries):
            status = yield from query
            if status.free_nodes > 0:
                return endpoint, "free-nodes"
        # Rule 3: the first endpoint configured for the model.
        return candidates[0], "first-configured"


class LeastLoadedRouter(PlacementPolicy):
    """Route to the least-loaded ready pool (queue depth / busy fraction)."""

    policy_name = "least-loaded"

    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        if False:  # pragma: no cover - keep generator form
            yield None
        signals = [
            (endpoint, self.view.pool_signal(endpoint.endpoint_id, model))
            for endpoint in candidates
        ]
        ready = [(e, s) for e, s in signals if s is not None and s.ready_instances > 0]
        if ready:
            endpoint, _sig = min(
                ready, key=lambda pair: (pair[1].busy_fraction, pair[1].queue_per_ready)
            )
            return endpoint, "least-loaded"
        return self._cold_fallback(candidates, signals)


@dataclass
class _ShedState:
    """Hysteresis bookkeeping for one (model, tenant) SLO lane."""

    shedding: bool = False
    breach_since: Optional[float] = None
    recover_since: Optional[float] = None
    transitions: List[Tuple[float, bool]] = field(default_factory=list)


class SLORouter(PlacementPolicy):
    """SLO-aware routing: predicted-TTFT scoring plus breach shedding.

    Every tenant has a latency SLO (``tenant_slos`` overriding
    ``default_slo_s``) interpreted against the gateway-observed p50 —
    streaming traffic is judged on TTFT, non-streaming on end-to-end
    latency.  While the primary (highest-priority) candidate's p50 breaches
    the SLO for ``breach_hold_s``, traffic sheds to the best-predicted
    secondary; it returns only after the primary's p50 has stayed below
    ``recover_ratio * slo`` for ``recover_hold_s``.  The two holds are the
    hysteresis that prevents shed/recover flapping.
    """

    policy_name = "slo"

    def __init__(self, view, default_slo_s: float = 15.0,
                 tenant_slos: Optional[Dict[str, float]] = None,
                 breach_hold_s: float = 20.0,
                 recover_ratio: float = 0.6,
                 recover_hold_s: float = 60.0):
        super().__init__(view)
        if default_slo_s <= 0:
            raise ValueError("default_slo_s must be > 0")
        if not 0.0 < recover_ratio <= 1.0:
            raise ValueError("recover_ratio must be in (0, 1]")
        self.default_slo_s = default_slo_s
        self.tenant_slos = dict(tenant_slos or {})
        self.breach_hold_s = breach_hold_s
        self.recover_ratio = recover_ratio
        self.recover_hold_s = recover_hold_s
        self._states: Dict[Tuple[str, Optional[str]], _ShedState] = {}

    # -- scoring ---------------------------------------------------------------
    def slo_for(self, tenant: Optional[str]) -> float:
        if tenant is not None and tenant in self.tenant_slos:
            return self.tenant_slos[tenant]
        return self.default_slo_s

    @staticmethod
    def observed_p50(signal: Optional[PoolSignal]) -> Optional[float]:
        """The signal the SLO is judged against: TTFT when streaming traffic
        produced one, end-to-end latency otherwise."""
        if signal is None:
            return None
        if signal.ttft_p50_s is not None:
            return signal.ttft_p50_s
        return signal.latency_p50_s

    def predicted_ttft(self, signal: Optional[PoolSignal]) -> float:
        """Predicted time-to-first-token on a candidate right now.

        A cold pool pays its measured cold start plus everything already
        queued; a warm pool's observed p50 is inflated by the current
        backlog over ready slot capacity.
        """
        if signal is None:
            return float("inf")
        if signal.ready_instances == 0:
            backlog = signal.waiting_tasks * 1.0
            return signal.cold_start_estimate_s + backlog
        observed = self.observed_p50(signal)
        if observed is None:
            # No traffic observed yet: an idle warm pool is as fast as one
            # engine iteration; approximate with the backlog factor alone.
            observed = 1.0
        return observed * max(1.0, signal.busy_fraction)

    # -- hysteresis -------------------------------------------------------------
    def _state(self, model: str, tenant: Optional[str]) -> _ShedState:
        return self._states.setdefault((model, tenant), _ShedState())

    def _update_hysteresis(self, state: _ShedState, observed: Optional[float],
                           slo: float) -> None:
        now = self.view.env.now
        if not state.shedding:
            if observed is not None and observed > slo:
                if state.breach_since is None:
                    state.breach_since = now
                if now - state.breach_since >= self.breach_hold_s:
                    state.shedding = True
                    state.recover_since = None
                    state.transitions.append((now, True))
            else:
                state.breach_since = None
        else:
            if observed is not None and observed <= slo * self.recover_ratio:
                if state.recover_since is None:
                    state.recover_since = now
                if now - state.recover_since >= self.recover_hold_s:
                    state.shedding = False
                    state.breach_since = None
                    state.transitions.append((now, False))
            else:
                state.recover_since = None

    # -- selection ---------------------------------------------------------------
    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        if False:  # pragma: no cover - keep generator form
            yield None
        signals = [
            (endpoint, self.view.pool_signal(endpoint.endpoint_id, model))
            for endpoint in candidates
        ]
        primary, primary_sig = signals[0]
        state = self._state(model, tenant)
        slo = self.slo_for(tenant)
        self._update_hysteresis(state, self.observed_p50(primary_sig), slo)

        ready = [(e, s) for e, s in signals if s is not None and s.ready_instances > 0]
        if not ready:
            return self._cold_fallback(candidates, signals)

        if state.shedding:
            # Shed to the best-predicted candidate — *including* cold
            # secondaries: routing there is what makes their reactive
            # scale-up bootstrap an instance, and their prediction already
            # charges the cold start plus queued backlog.
            scored = [(e, s) for e, s in signals if s is not None]
            endpoint, _sig = min(scored, key=lambda pair: self.predicted_ttft(pair[1]))
            if endpoint is primary:
                return primary, "slo-primary"
            return endpoint, "slo-shed"
        if primary_sig is not None and primary_sig.ready_instances > 0:
            return primary, "slo-primary"
        # Primary not ready (cold/draining): take the best predicted TTFT.
        endpoint, _sig = min(ready, key=lambda pair: self.predicted_ttft(pair[1]))
        return endpoint, "slo-best"

    def shed_transitions(self, model: str,
                         tenant: Optional[str] = None) -> List[Tuple[float, bool]]:
        """(time, shedding) transition log for flap analysis in tests."""
        return list(self._state(model, tenant).transitions)


class RandomRouter(PlacementPolicy):
    """Ablation: uniformly random choice among configured endpoints."""

    policy_name = "random"

    def __init__(self, view: TopologyView, seed: int = 11):
        super().__init__(view)
        self._random = RandomSource(seed=seed)

    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        if False:  # pragma: no cover - keep generator form
            yield None
        return self._random.choice(candidates), "random"


class FirstConfiguredRouter(PlacementPolicy):
    """Ablation: always the first configured endpoint (no status awareness)."""

    policy_name = "first-configured"

    def _choose(self, model: str, candidates, tenant: Optional[str] = None):
        if False:  # pragma: no cover - keep generator form
            yield None
        return candidates[0], "first-configured"
