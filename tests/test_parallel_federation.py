"""Partitioned federated runs: completion, streaming, snapshots.

Every partition runs in the calling process; the cross-commit fingerprints
of these runs are pinned by ``tests/test_fingerprint_ledger.py``.
Fingerprints are SHA-256 over exact float reprs, so "close" is a failure.
"""

import multiprocessing.process

from repro.faas import HANDLER_CHAT, RelayBoundaryProxy, RelayService
from repro.metrics import RequestRecord
from repro.parallel import (
    FederatedScenario,
    PartitionedDeployment,
    golden_trace,
    trace_fingerprint,
)
from repro.placement import PoolSignal, TopologyView
from repro.sim import Environment


def _run(**overrides):
    overrides.setdefault("num_requests", 12)
    scenario = FederatedScenario.demo(clusters=2, **overrides)
    return PartitionedDeployment(scenario).run()


# ------------------------------------------------------------- completion
def test_serial_run_completes_every_request():
    result = _run()
    assert len(result.records) == 12
    assert all(r.success for r in result.records)
    assert result.stats.windows > 0
    assert result.stats.message_kinds.get("dispatch") == 12
    assert result.stats.message_kinds.get("result") == 12
    relay = result.per_partition[0]["relay"]
    assert relay["submitted"] == relay["completed"] + relay["failed"] == 12


def test_workers_argument_starts_no_process(monkeypatch):
    serial = PartitionedDeployment(FederatedScenario.demo()).run()

    def refuse(self):
        raise AssertionError("a partitioned run started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    result = PartitionedDeployment(FederatedScenario.demo(), workers=2).run()
    assert result.fingerprint == serial.fingerprint


# ------------------------------------------------------------- streaming
def test_streaming_tokens_cross_the_boundary():
    result = _run(stream=True)
    assert all(r.token_times for r in result.records if r.success)
    for record in result.records:
        assert record.first_token_time == record.token_times[0]
        assert record.first_token_time >= record.send_time
        assert list(record.token_times) == sorted(record.token_times)


# ------------------------------------------------------------- merged artifacts
def test_merged_summary_and_stats_expose_run_shape():
    result = _run()
    assert result.merged.num_requests == 12
    assert result.stats.messages == 24
    clusters = [payload for pid, payload in result.per_partition.items() if pid != 0]
    assert sum(payload["tasks_executed"] for payload in clusters) == 12


def test_trace_fingerprint_is_order_insensitive_but_value_sensitive():
    records = [
        RequestRecord(request_id=f"r{i}", model="m", send_time=float(i),
                      completion_time=float(i) + 1.0, prompt_tokens=10,
                      output_tokens=5, success=True)
        for i in range(4)
    ]
    shuffled = [records[2], records[0], records[3], records[1]]
    baseline = trace_fingerprint(records)
    assert baseline == trace_fingerprint(shuffled)
    assert golden_trace(records) == golden_trace(shuffled)
    records[0].completion_time += 1e-12
    assert trace_fingerprint(records) != baseline


# ------------------------------------------------------------- boundary proxy
def _signal(cluster, ready, waiting, in_flight, computed_at=0.0):
    return PoolSignal(model="model-a", endpoint_id=f"ep-{cluster}", cluster=cluster,
                      ready_instances=ready, starting_instances=0,
                      draining_instances=0, queued_jobs=0, waiting_tasks=waiting,
                      in_flight_tasks=in_flight, slots_per_instance=8,
                      max_instances=4, cold_start_estimate_s=30.0,
                      created_instances=ready, open_launches=0,
                      computed_at=computed_at)


def test_boundary_proxy_routes_and_snapshot_refreshes_view():
    env = Environment()
    view = TopologyView(env)
    relay = RelayService(env)
    relay.functions.register("fn-chat", "chat", HANDLER_CHAT, owner="parallel")
    proxy = RelayBoundaryProxy(env, "ep-remote", "remote", ["model-a"],
                               view=view)
    relay.register_endpoint(proxy)
    assert proxy.is_boundary_proxy
    assert proxy.ready_instance_count() == 0

    view.apply_partition_snapshot(_signal("remote", 2, 3, 4, computed_at=12.5))
    # The relay's R(N) curve counts the remote cluster's ready instances.
    assert proxy.ready_instance_count() == relay.active_instance_count() == 2
    # A later barrier's snapshot replaces the signal the proxy reads.
    view.apply_partition_snapshot(_signal("remote", 3, 0, 0, computed_at=14.0))
    assert view.pool_signal("ep-remote", "model-a").computed_at == 14.0
    assert proxy.ready_instance_count() == 3

    # A task sent to the proxy leaves through its outbox stamped with the
    # relay's submit + dispatch wire time, and resolves with the result.
    future = relay.submit("fn-chat", "ep-remote", {"x": 1})
    env.run(until=0.5)
    entry, = proxy.drain_outbox()
    config = relay.config
    assert entry["arrival_time"] == 0.0 + config.submit_latency_s + config.dispatch_latency_s
    assert entry["task_id"] == future.task_id and relay.queued_tasks == 1
    proxy.complete(entry["task_id"], {"success": True, "result": "done"})
    assert env.run(until=future.done) == "done"
    assert relay.queued_tasks == 0

