"""PartitionedDeployment: one federated scenario as communicating partitions.

The orchestration loop is the synchronous-window conservative scheme from
:mod:`repro.parallel.horizon`:

1. every partition reports its *bound* (earliest possible next event);
2. the planner folds in the arrival times of boundary messages collected at
   the previous barrier and picks the next window;
3. each partition receives its inbound messages (sorted by the
   deterministic :func:`~repro.parallel.boundary.sort_key`), applies barrier
   snapshots, advances its environment to the window, and reports its new
   bound + outbound messages + fresh snapshots;
4. repeat until every bound is infinite and no message is in flight.

One barrier per window: the planner already knows the arrival times of the
messages it routes, so the post-delivery bounds need no second barrier.

Every partition runs in the calling process.  Messages, snapshots and
reports are pickle-round-tripped at each barrier, so object identity can
never leak between partitions.
"""

from __future__ import annotations

import hashlib
import pickle
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common import stable_seed
from ..core import ClusterDeploymentSpec, ModelHostingConfig
from ..faas import PoolSignal, RelayConfig
from ..metrics import MergeableSummary, RequestRecord
from ..sweep.spec import ArrivalSpec
from .boundary import BoundaryMessage, sort_key
from .horizon import WindowStats, plan_window
from .partition import Partition, PartitionSpec, build_partition

__all__ = [
    "ClusterShardSpec",
    "FederatedScenario",
    "FederatedRunResult",
    "PartitionedDeployment",
    "run_partitions",
    "run_ping_ring",
    "golden_trace",
    "trace_fingerprint",
]


# --------------------------------------------------------------------------- orchestration
def _roundtrip(obj):
    """Pickle round-trip: boundary data is copied, never shared, so no object
    crosses a partition boundary by reference."""
    return pickle.loads(pickle.dumps(obj))


def run_partitions(specs: List[PartitionSpec], max_windows: Optional[int] = None,
                   ) -> Tuple[Dict[int, dict], WindowStats]:
    """Run a set of partitions to completion under conservative windows.

    Returns ``(payloads, stats)``: each partition's ``finalize()`` dict by
    pid, and the window/overhead breakdown.  ``max_windows`` is a livelock
    guard: planning one more window raises (``None``: no cap).
    """
    specs = sorted(specs, key=lambda spec: spec.pid)
    if len({spec.pid for spec in specs}) != len(specs):
        raise ValueError("partition pids must be unique")
    lookaheads = {spec.pid: spec.lookahead_s for spec in specs}
    partitions: Dict[int, Partition] = {spec.pid: build_partition(spec)
                                        for spec in specs}

    stats = WindowStats()
    bounds = {pid: partition.bound() for pid, partition in partitions.items()}
    pending: List[BoundaryMessage] = []
    pending_snaps: List[Tuple[int, List[PoolSignal]]] = []
    while True:
        effective = dict(bounds)
        for message in pending:
            if message.arrival_time < effective[message.dst]:
                effective[message.dst] = message.arrival_time
        window = plan_window(effective, lookaheads)
        if window is None:
            break
        if max_windows is not None and stats.windows >= max_windows:
            raise RuntimeError(
                f"window cap ({max_windows}) exceeded at t={window.time}: "
                "partitions are exchanging messages without draining")
        stats.windows += 1
        if window.inclusive:
            stats.micro_windows += 1

        inbound: Dict[int, List[BoundaryMessage]] = {}
        for message in sorted(pending, key=sort_key):
            inbound.setdefault(message.dst, []).append(message)
        snapshots: Dict[int, List[PoolSignal]] = {}
        for src, snaps in sorted(pending_snaps):
            for spec in specs:
                if spec.pid != src:
                    snapshots.setdefault(spec.pid, []).extend(snaps)
        pending, pending_snaps = [], []

        barrier_start = _time.perf_counter()
        inbound, snapshots = _roundtrip((inbound, snapshots))
        reports = {}
        for pid in sorted(partitions):
            partition = partitions[pid]
            snaps = snapshots.get(pid)
            if snaps:
                partition.apply_snapshots(snaps)
            messages = inbound.get(pid)
            if messages:
                partition.deliver(messages)
            start = _time.perf_counter()
            bound = partition.advance(window)
            stats.advance_wall_s += _time.perf_counter() - start
            reports[pid] = (bound, partition.collect_outbox(),
                            partition.snapshots(), partition.done())
        reports = _roundtrip(reports)
        stats.sync_wall_s += _time.perf_counter() - barrier_start

        all_done = True
        for pid in sorted(reports):
            bound, outbox, snaps, part_done = reports[pid]
            bounds[pid] = bound
            all_done = all_done and part_done
            for message in outbox:
                stats.messages += 1
                kinds = stats.message_kinds
                kinds[message.kind] = kinds.get(message.kind, 0) + 1
            pending.extend(outbox)
            if snaps:
                pending_snaps.append((pid, snaps))
        # Completion-based termination: shards with perpetual background
        # timers (autoscalers, pool maintenance) keep their bounds finite
        # forever, so exhaustion (plan_window → None) never fires for
        # them.  Once every partition reports done and no boundary
        # message is in flight, nothing observable remains.
        if all_done and not pending:
            break

    payloads = {pid: partition.finalize() for pid, partition in partitions.items()}
    # The barrier timer includes the advances; subtract them so sync_wall_s
    # reflects coordination overhead, not simulation work.
    stats.sync_wall_s = max(0.0, stats.sync_wall_s - stats.advance_wall_s)
    return payloads, stats


# --------------------------------------------------------------------------- scenarios
@dataclass
class ClusterShardSpec:
    """One facility in a partitioned federated scenario: a two-node cluster
    under a local scheduler hosting the scenario's model (see
    :meth:`FederatedScenario.partition_specs`)."""

    name: str


@dataclass
class FederatedScenario:
    """Declarative, pickle-safe description of one partitioned run."""

    clusters: List[ClusterShardSpec] = field(default_factory=list)
    model: str = "Qwen/Qwen2.5-7B-Instruct"
    num_requests: int = 100
    #: Mean request rate of the Poisson arrivals.
    rate: float = 2.0
    seed: int = 0
    stream: bool = False

    @classmethod
    def demo(cls, clusters: int = 2, num_requests: int = 40,
             **overrides) -> "FederatedScenario":
        """Small multi-cluster scenario (tests, quickstart §14)."""
        shards = [ClusterShardSpec(name=f"cluster{i}") for i in range(clusters)]
        return cls(clusters=shards, num_requests=num_requests, **overrides)

    def partition_specs(self) -> List[PartitionSpec]:
        if not self.clusters:
            raise ValueError("FederatedScenario needs at least one cluster")
        relay_config = RelayConfig()
        # Outgoing lookaheads: dispatches leave the gateway after
        # submit+dispatch wire time; results leave a cluster after the
        # result wire time.  These are exactly the arrival stamps the
        # boundary messages carry, so the windows are as wide as causality
        # allows.
        gateway_lookahead = (relay_config.submit_latency_s
                             + relay_config.dispatch_latency_s)
        cluster_lookahead = relay_config.result_latency_s

        specs = [PartitionSpec(
            pid=0, name="gateway", kind="gateway",
            lookahead_s=gateway_lookahead, seed=self.seed,
            params={
                "clusters": [{"pid": index + 1, "name": shard.name}
                             for index, shard in enumerate(self.clusters)],
                "model": self.model,
                "num_requests": self.num_requests,
                "arrival": ArrivalSpec(kind="poisson", rate=self.rate,
                                       seed=stable_seed(self.seed, "arrival")),
                "stream": self.stream,
            },
        )]
        for index, shard in enumerate(self.clusters):
            specs.append(PartitionSpec(
                pid=index + 1, name=shard.name, kind="cluster",
                lookahead_s=cluster_lookahead, seed=self.seed,
                params={
                    "gateway_pid": 0,
                    "cluster": ClusterDeploymentSpec(
                        shard.name, kind="small", num_nodes=2, scheduler="local",
                        models=[ModelHostingConfig(self.model, max_parallel_tasks=32)]),
                },
            ))
        return specs


# --------------------------------------------------------------------------- results
def golden_trace(records: List[RequestRecord]) -> List[tuple]:
    """Canonical per-request tuples (sorted by request id) whose floats are
    bit-exact — the golden-trace form the determinism tests pin."""
    return sorted(
        (r.request_id, r.success, r.send_time, r.completion_time,
         r.prompt_tokens, r.output_tokens, r.first_token_time,
         tuple(r.token_times) if r.token_times else ())
        for r in records
    )


def trace_fingerprint(records: List[RequestRecord]) -> str:
    """SHA-256 over the golden trace (floats via ``repr`` — bit-exact)."""
    digest = hashlib.sha256()
    for entry in golden_trace(records):
        digest.update(repr(entry).encode())
    return digest.hexdigest()


@dataclass
class FederatedRunResult:
    """Merged output of one partitioned federated run."""

    records: List[RequestRecord]
    merged: MergeableSummary
    fingerprint: str
    stats: WindowStats
    wall_s: float
    per_partition: Dict[int, dict]


class PartitionedDeployment:
    """Split one federated deployment into per-cluster partitions and run
    them under conservative synchronous windows, all in the caller's
    process.

    ``workers`` has no effect.  It is accepted only because the layered
    benchmark's ``federated_w2`` workload still passes it; ROADMAP item 17's
    ``benchmark`` change, which re-points that workload, deletes it.
    """

    def __init__(self, scenario: FederatedScenario, workers: int = 1):
        self.scenario = scenario

    def run(self) -> FederatedRunResult:
        started = _time.perf_counter()
        payloads, stats = run_partitions(self.scenario.partition_specs())
        wall_s = _time.perf_counter() - started

        records: List[RequestRecord] = payloads[0]["records"]
        if records:
            duration = max(r.completion_time for r in records) - min(
                r.send_time for r in records)
        else:
            duration = 0.0
        merged = MergeableSummary.from_records(
            records, label=f"partitioned-{len(self.scenario.clusters)}c",
            duration_s=max(duration, 1e-9))

        digest = hashlib.sha256()
        digest.update(merged.fingerprint().encode())
        digest.update(trace_fingerprint(records).encode())
        return FederatedRunResult(
            records=records,
            merged=merged,
            fingerprint=digest.hexdigest(),
            stats=stats,
            wall_s=wall_s,
            per_partition=payloads,
        )


def run_ping_ring(partitions: int = 3, hops: int = 30,
                  latency_s: float = 0.0) -> Dict[int, list]:
    """Null-message exercise: a token circulating ``partitions`` shards.

    With ``latency_s=0`` every edge has zero lookahead, so every window is
    an inclusive micro-window — the conservative scheme's worst case.  The
    progress guarantee says this terminates after exactly ``hops`` hand-offs
    instead of deadlocking; returns each partition's ``(time, hop)`` log.
    """
    ring = list(range(partitions))
    specs = [PartitionSpec(
        pid=pid, name=f"ping{pid}", kind="ping", lookahead_s=latency_s,
        params={"ring": ring, "hops": hops, "latency_s": latency_s,
                "start": pid == 0},
    ) for pid in ring]
    # Generous livelock guard: zero-latency rings need one window per hop
    # (plus setup); anything far beyond that is a planner bug.
    payloads, _stats = run_partitions(specs, max_windows=10 * hops + 100)
    return {pid: payload["log"] for pid, payload in payloads.items()}
