"""PartitionedDeployment: one federated scenario spanning worker processes.

The orchestration loop is the synchronous-window conservative scheme from
:mod:`repro.parallel.horizon`:

1. every partition reports its *bound* (earliest possible next event);
2. the planner folds in the arrival times of boundary messages collected at
   the previous barrier and picks the next window;
3. each worker delivers its partitions' inbound messages (sorted by the
   deterministic :func:`~repro.parallel.boundary.sort_key`), applies barrier
   snapshots, advances its environments to the window, and reports new
   bounds + outbound messages + fresh snapshots;
4. repeat until every bound is infinite and no message is in flight.

One pipe round-trip per window: the planner already knows the arrival times
of the messages it routes, so the post-delivery bounds need no second
barrier.

``workers=1`` runs the identical loop over in-process partitions — with
messages and snapshots still pickle-round-tripped, so object identity can
never leak between partitions and the serial run is the parallel run's
golden reference by construction, for any worker count.
"""

from __future__ import annotations

import hashlib
import pickle
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common import stable_seed
from ..core import ClusterDeploymentSpec, ModelHostingConfig, calibration
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

_INF = float("inf")


# --------------------------------------------------------------------------- hosts
def _roundtrip(obj):
    """Pickle round-trip: the serial fallback ships boundary data through
    the same serialization as real workers, so shared mutable state cannot
    make ``workers=1`` diverge from ``workers>1``."""
    return pickle.loads(pickle.dumps(obj))


def _step_partitions(partitions: Dict[int, Partition], window,
                     inbound: Dict[int, List[BoundaryMessage]],
                     snapshots: Dict[int, List[dict]]) -> Tuple[dict, float]:
    """Advance one host's partitions through a window; returns per-partition
    reports and the wall-clock spent inside advances."""
    reports = {}
    advance_wall = 0.0
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
        advance_wall += _time.perf_counter() - start
        reports[pid] = (bound, partition.collect_outbox(),
                        partition.snapshots(), partition.done())
    return reports, advance_wall


class _SerialHost:
    """All partitions in-process (the ``workers=1`` fallback)."""

    def __init__(self, specs: List[PartitionSpec]):
        self.partitions = {spec.pid: build_partition(spec) for spec in specs}
        self.advance_wall_s = 0.0

    def begin(self) -> Dict[int, float]:
        return {pid: p.bound() for pid, p in self.partitions.items()}

    def post(self, window, inbound, snapshots) -> None:
        inbound, snapshots = _roundtrip((inbound, snapshots))
        self._reports, wall = _step_partitions(self.partitions, window,
                                               inbound, snapshots)
        self._reports = _roundtrip(self._reports)
        self.advance_wall_s += wall

    def recv(self) -> dict:
        reports, self._reports = self._reports, None
        return reports

    def finalize(self) -> Tuple[dict, float]:
        return ({pid: p.finalize() for pid, p in self.partitions.items()},
                self.advance_wall_s)

    def close(self) -> None:
        pass


def _worker_main(conn, specs: List[PartitionSpec]) -> None:
    """Spawn-worker entry point: build partitions, serve window commands."""
    try:
        partitions = {spec.pid: build_partition(spec) for spec in specs}
        conn.send(("ready", {pid: p.bound() for pid, p in partitions.items()}))
        advance_wall = 0.0
        while True:
            command = conn.recv()
            if command[0] == "window":
                _tag, window, inbound, snapshots = command
                reports, wall = _step_partitions(partitions, window,
                                                 inbound, snapshots)
                advance_wall += wall
                conn.send(("report", reports))
            elif command[0] == "finalize":
                conn.send(("final",
                           {pid: p.finalize() for pid, p in partitions.items()},
                           advance_wall))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown command {command[0]!r}")
    except Exception:  # noqa: BLE001 - ship the traceback to the parent
        import traceback
        conn.send(("error", traceback.format_exc(limit=30)))
        raise
    finally:
        conn.close()


class _ProcessHost:
    """A spawn worker owning a subset of the partitions."""

    def __init__(self, specs: List[PartitionSpec], mp_context) -> None:
        self.pids = [spec.pid for spec in specs]
        self._conn, child = mp_context.Pipe(duplex=True)
        self._process = mp_context.Process(target=_worker_main,
                                           args=(child, specs), daemon=True)
        self._process.start()
        child.close()
        self.advance_wall_s = 0.0

    def _recv(self):
        try:
            reply = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"partition worker for pids {self.pids} died unexpectedly"
            ) from None
        if reply[0] == "error":
            raise RuntimeError(f"partition worker crashed:\n{reply[1]}")
        return reply

    def begin(self) -> Dict[int, float]:
        tag, bounds = self._recv()
        if tag != "ready":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected worker reply {tag!r}")
        return bounds

    def post(self, window, inbound, snapshots) -> None:
        self._conn.send(("window", window, inbound, snapshots))

    def recv(self) -> dict:
        _tag, reports = self._recv()
        return reports

    def finalize(self) -> Tuple[dict, float]:
        self._conn.send(("finalize",))
        _tag, payloads, advance_wall = self._recv()
        self.advance_wall_s = advance_wall
        return payloads, advance_wall

    def close(self) -> None:
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung worker guard
            self._process.terminate()


# --------------------------------------------------------------------------- orchestration
def run_partitions(specs: List[PartitionSpec], workers: int = 1,
                   max_windows: Optional[int] = None,
                   ) -> Tuple[Dict[int, dict], WindowStats]:
    """Run a set of partitions to completion under conservative windows.

    Returns ``(payloads, stats)``: each partition's ``finalize()`` dict by
    pid, and the window/overhead breakdown.  ``max_windows`` is a livelock
    guard: planning one more window raises (``None``: no cap).  Workers are
    spawned, never forked, so no parent state leaks into a partition.
    """
    specs = sorted(specs, key=lambda spec: spec.pid)
    if len({spec.pid for spec in specs}) != len(specs):
        raise ValueError("partition pids must be unique")
    lookaheads = {spec.pid: spec.lookahead_s for spec in specs}

    workers = max(1, min(workers, len(specs)))
    if workers == 1:
        hosts: List = [_SerialHost(specs)]
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        assigned: List[List[PartitionSpec]] = [[] for _ in range(workers)]
        for index, spec in enumerate(specs):
            assigned[index % workers].append(spec)
        hosts = [_ProcessHost(group, context) for group in assigned if group]

    host_of: Dict[int, object] = {}
    stats = WindowStats()
    try:
        bounds: Dict[int, float] = {}
        for host in hosts:
            for pid, bound in host.begin().items():
                bounds[pid] = bound
                host_of[pid] = host

        pending: List[BoundaryMessage] = []
        pending_snaps: List[Tuple[int, List[dict]]] = []
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
            snapshots: Dict[int, List[dict]] = {}
            for src, snaps in sorted(pending_snaps):
                for spec in specs:
                    if spec.pid != src:
                        snapshots.setdefault(spec.pid, []).extend(snaps)
            pending, pending_snaps = [], []

            barrier_start = _time.perf_counter()
            for host in hosts:
                host.post(
                    window,
                    {pid: msgs for pid, msgs in inbound.items()
                     if host_of[pid] is host},
                    {pid: snaps for pid, snaps in snapshots.items()
                     if host_of[pid] is host},
                )
            reports: Dict[int, tuple] = {}
            for host in hosts:
                reports.update(host.recv())
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

        payloads: Dict[int, dict] = {}
        advance_total = 0.0
        host_advances = []
        for host in hosts:
            host_payloads, advance_wall = host.finalize()
            payloads.update(host_payloads)
            advance_total += advance_wall
            host_advances.append(advance_wall)
        stats.advance_wall_s = advance_total
        # The barrier timer necessarily includes the workers' (parallel)
        # advance time; subtract the critical path so sync_wall_s reflects
        # coordination overhead, not simulation work.
        stats.sync_wall_s = max(
            0.0, stats.sync_wall_s - (max(host_advances) if len(hosts) > 1
                                      else advance_total))
        return payloads, stats
    finally:
        for host in hosts:
            host.close()


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
        relay_config = calibration.default_relay_config()
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
    workers: int
    wall_s: float
    per_partition: Dict[int, dict]


class PartitionedDeployment:
    """Split one federated deployment into per-cluster partitions and run
    them under conservative synchronous windows.

    ``workers=1`` is the serial fallback (same code path, no processes);
    any larger count shards the partitions across spawn workers.  Merged
    results are bit-identical for every worker count —
    :attr:`FederatedRunResult.fingerprint` is the check.
    """

    def __init__(self, scenario: FederatedScenario, workers: int = 1):
        self.scenario = scenario
        self.workers = workers

    def run(self) -> FederatedRunResult:
        started = _time.perf_counter()
        payloads, stats = run_partitions(self.scenario.partition_specs(),
                                         workers=self.workers)
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
            workers=self.workers,
            wall_s=wall_s,
            per_partition=payloads,
        )


def run_ping_ring(partitions: int = 3, hops: int = 30,
                  latency_s: float = 0.0, workers: int = 1) -> Dict[int, list]:
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
    payloads, _stats = run_partitions(specs, workers=workers,
                                      max_windows=10 * hops + 100)
    return {pid: payload["log"] for pid, payload in payloads.items()}
