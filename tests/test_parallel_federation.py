"""Partitioned federated runs: bit-identity, streaming, snapshots, sweep.

The hard guarantee under test: merged results of a partitioned federated
deployment are **bit-identical** for any worker count (serial fallback,
2 and 4 spawn workers).  Fingerprints are SHA-256 over exact float reprs, so
"close" is a failure.

Requires numpy (ShareGPT workload) — listed in conftest's no-numpy
``collect_ignore``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import RelayBoundaryProxy, RelayService
from repro.metrics import RequestRecord
from repro.parallel import (
    FederatedScenario,
    PartitionedDeployment,
    golden_trace,
    trace_fingerprint,
)
from repro.placement import TopologyView
from repro.sim import Environment


def _run(workers, **overrides):
    overrides.setdefault("num_requests", 12)
    scenario = FederatedScenario.demo(clusters=2, **overrides)
    return PartitionedDeployment(scenario, workers=workers).run()


# ------------------------------------------------------------- bit-identity
def test_serial_run_completes_every_request():
    result = _run(workers=1)
    assert len(result.records) == 12
    assert all(r.success for r in result.records)
    assert result.stats.windows > 0
    assert result.stats.message_kinds.get("dispatch") == 12
    assert result.stats.message_kinds.get("result") == 12
    relay = result.per_partition[0]["relay"]
    assert relay["submitted"] == relay["completed"] + relay["failed"] == 12


def test_workers_bit_identical():
    fingerprints = {workers: _run(workers=workers).fingerprint
                    for workers in (1, 2, 4)}
    assert len(set(fingerprints.values())) == 1, fingerprints


@settings(max_examples=3, deadline=None)
@given(
    num_requests=st.integers(min_value=1, max_value=16),
    rate=st.sampled_from([0.5, 2.0, 8.0]),
    clusters=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=3),
)
def test_property_parallel_matches_serial(num_requests, rate, clusters, seed):
    def fingerprint(workers):
        scenario = FederatedScenario.demo(
            clusters=clusters, num_requests=num_requests, rate=rate, seed=seed)
        return PartitionedDeployment(scenario, workers=workers).run().fingerprint

    assert fingerprint(1) == fingerprint(2)


# ------------------------------------------------------------- streaming
def test_streaming_tokens_cross_the_boundary():
    result = _run(workers=1, stream=True)
    assert all(r.token_times for r in result.records if r.success)
    for record in result.records:
        assert record.first_token_time == record.token_times[0]
        assert record.first_token_time >= record.send_time
        assert list(record.token_times) == sorted(record.token_times)


def test_streaming_bit_identical_across_workers():
    assert (_run(workers=1, stream=True).fingerprint
            == _run(workers=2, stream=True).fingerprint)


# ------------------------------------------------------------- merged artifacts
def test_merged_registry_spans_gateway_and_clusters():
    result = _run(workers=1)
    metrics = result.registry.to_dict()
    assert "parallel_gateway_latency_s" in metrics
    assert "parallel_cluster_tasks_total" in metrics
    children = metrics["parallel_cluster_tasks_total"]["children"]
    assert {"cluster0", "cluster1"} <= set(children)


def test_merged_summary_and_stats_expose_run_shape():
    result = _run(workers=1)
    assert result.merged.num_requests == 12
    summary = result.to_summary_dict()
    assert summary["requests"] == 12
    assert summary["windows"] == result.stats.windows
    assert summary["fingerprint"] == result.fingerprint


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
def test_boundary_proxy_routes_and_snapshot_refreshes_view():
    from repro.core import calibration
    from repro.federation import FederationRegistry

    env = Environment()
    view = TopologyView(env, FederationRegistry())
    relay = RelayService(env, calibration.default_relay_config())
    proxy = RelayBoundaryProxy(env, "ep-remote", "remote", ["model-a"],
                               view=view)
    assert proxy.is_boundary_proxy
    assert proxy.ready_instance_count() == 0
    assert proxy.kernel_backlog("model-a") == 0

    snapshot = {
        "model": "model-a", "endpoint_id": "ep-remote", "cluster": "remote",
        "ready_instances": 2, "starting_instances": 1, "draining_instances": 0,
        "queued_jobs": 0, "waiting_tasks": 3, "in_flight_tasks": 4,
        "slots_per_instance": 8, "max_instances": 4,
        "cold_start_estimate_s": 30.0, "computed_at": 12.5,
    }
    view.apply_partition_snapshot(snapshot)
    assert proxy.ready_instance_count() == 2
    assert proxy.kernel_backlog("model-a") == 3 + 4
    signal = view.pool_signal("ep-remote", "model-a")
    assert signal.ready_instances == 2 and signal.computed_at == 12.5
    # The remote signal participates in model-wide placement queries.
    assert any(s.endpoint_id == "ep-remote"
               for s in view.signals_for_model("model-a"))
    _ = relay  # the proxy registers like any endpoint; relay built above


# ------------------------------------------------------------- sweep integration
def test_partitioned_sweep_cell_merges_registries():
    from repro.sweep import SweepRunner
    from repro.sweep.spec import ScenarioSpec

    cells = [
        ScenarioSpec(key=f"part-{cell}", runner="partitioned",
                     num_requests=6, params={"rate": 2.0})
        for cell in range(2)
    ]
    result = SweepRunner(workers=1).run(cells)
    assert result.ok
    assert result.merged(label="cells").num_requests == 12
    registry = result.merged_registry()
    assert registry is not None
    merged = registry.to_dict()
    assert "parallel_requests_total" in merged
    total = sum(merged["parallel_requests_total"]["children"].values())
    assert total == 12
    payloads = result.payloads()
    assert payloads[0]["fingerprint"] == payloads[1]["fingerprint"]
    assert all("partition_stats" in p for p in payloads)


def test_sweep_without_registries_merges_to_none():
    from repro.sweep.runner import ShardResult, SweepResult

    result = SweepResult([ShardResult(key="a", ok=True, payload={})],
                         workers=1, wall_s=0.0, timeline=[])
    assert result.merged_registry() is None
