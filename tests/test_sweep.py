"""Sweep plane: pickle-safety, seeding, sharded execution and merge laws.

The contracts the million-request sweeps rely on:

* every shipped deployment/gateway config pickle-round-trips (cells ship to
  spawned workers);
* named random streams are pure functions of (root seed, key) — independent
  of spawn order and worker assignment;
* a sweep's merged metrics are bit-identical whether run on 1 worker or 4;
* histogram merges are exact and order-independent; merged quantiles stay
  within the documented relative-error bound of the pooled exact quantiles;
* crashed or failing shards are retried a bounded number of times and one
  bad cell never takes down the sweep.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RandomSource, stable_seed
from repro.core import (
    federated_config,
    quickstart_config,
    sophia_benchmark_config,
)
from repro.gateway import GatewayConfig, default_middleware_factories
from repro.metrics import DEFAULT_REL_ERR, LogBucketHistogram, MergeableSummary, RequestRecord
from repro.placement import ReservationMiddleware
from repro.sweep import ArrivalSpec, ScenarioSpec, SweepRunner, SweepSpec

MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"
MODEL_70B = "meta-llama/Llama-3.3-70B-Instruct"


# ---------------------------------------------------------------- pickle safety
class TestConfigPickleSafety:
    @pytest.mark.parametrize("build", [
        lambda: quickstart_config(),
        lambda: quickstart_config(generate_text=False),
        lambda: sophia_benchmark_config(MODEL_70B),
        lambda: sophia_benchmark_config(MODEL_8B, max_instances=2, num_nodes=4),
        lambda: federated_config(MODEL_70B),
        lambda: federated_config(MODEL_8B, sophia_nodes=2, polaris_nodes=2),
    ])
    def test_shipped_deployment_configs_round_trip(self, build):
        config = build()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_gateway_config_with_middlewares_round_trips(self):
        config = GatewayConfig(
            middleware_factories=default_middleware_factories()
            + [ReservationMiddleware.factory()]
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.middleware_factories == config.middleware_factories

    def test_scenario_spec_round_trips(self):
        spec = ScenarioSpec(
            key="grid/rate=4/seed=1", runner="engine", model=MODEL_8B,
            num_requests=100, arrival=ArrivalSpec.for_rate(4.0), seed=1,
            engine={"macro_stepping": True},
            params={"deployment": sophia_benchmark_config(MODEL_8B)},
            tags={"rate": 4.0, "seed": 1},
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


# ---------------------------------------------------------------- named streams
class TestSpawnNamed:
    def test_same_key_same_stream(self):
        a = RandomSource(42).spawn_named("grid/rate=4").uniform(0, 1)
        b = RandomSource(42).spawn_named("grid/rate=4").uniform(0, 1)
        assert a == b

    def test_different_keys_differ(self):
        a = RandomSource(42).spawn_named("grid/rate=4").uniform(0, 1)
        b = RandomSource(42).spawn_named("grid/rate=8").uniform(0, 1)
        assert a != b

    def test_independent_of_spawn_order(self):
        root1 = RandomSource(42)
        first_then_second = (root1.spawn_named("a").uniform(0, 1),
                             root1.spawn_named("b").uniform(0, 1))
        root2 = RandomSource(42)
        second_then_first = (root2.spawn_named("b").uniform(0, 1),
                             root2.spawn_named("a").uniform(0, 1))
        assert first_then_second == (second_then_first[1], second_then_first[0])

    def test_stable_seed_is_pure(self):
        assert stable_seed(0, "grid/a", "workload") == stable_seed(0, "grid/a", "workload")
        assert stable_seed(0, "grid/a") != stable_seed(0, "grid/b")
        assert stable_seed(1, "grid/a") != stable_seed(0, "grid/a")


# ---------------------------------------------------------------- grid expansion
class TestSweepSpec:
    def test_expand_is_deterministic_and_complete(self):
        spec = SweepSpec("g", runner="engine",
                         base={"model": MODEL_8B, "num_requests": 10},
                         axes={"rate": [1.0, 2.0], "seed": [0, 1, 2]})
        cells = spec.expand()
        assert len(cells) == spec.num_cells == 6
        assert [c.key for c in cells] == [c.key for c in spec.expand()]
        assert cells[0].key == "g/rate=1/seed=0"
        # last axis varies fastest
        assert cells[1].key == "g/rate=1/seed=1"
        # spec fields route to fields, everything else to params/tags
        assert cells[0].num_requests == 10 and cells[0].params["rate"] == 1.0
        assert cells[0].tags == {"rate": 1.0, "seed": 0}

    def test_duplicate_keys_rejected(self):
        cells = [ScenarioSpec(key="same", runner="engine"),
                 ScenarioSpec(key="same", runner="engine")]
        with pytest.raises(Exception, match="duplicate"):
            SweepRunner().run(cells)

    def test_empty_axis_rejected(self):
        with pytest.raises(Exception, match="no values"):
            SweepSpec("g", runner="engine", axes={"rate": []}).expand()


# ---------------------------------------------------------------- worker identity
def _tiny_grid():
    return SweepSpec(
        "identity", runner="engine",
        base={"model": MODEL_8B, "num_requests": 30},
        axes={"rate": [4.0, 16.0], "seed": [0, 1]},
    ).expand()


class TestWorkerCountIdentity:
    def test_1_vs_4_workers_bit_identical(self):
        """The tentpole determinism property: merged metrics do not depend on
        the worker count or on shard completion order."""
        cells = _tiny_grid()
        serial = SweepRunner(workers=1).run(cells)
        parallel = SweepRunner(workers=4).run(cells)
        assert serial.ok and parallel.ok
        assert serial.merged().fingerprint() == parallel.merged().fingerprint()
        # per-shard payloads are identical too, not just the reduction
        sp, pp = serial.payload_by_key(), parallel.payload_by_key()
        for key in sp:
            assert sp[key]["mergeable"].fingerprint() == pp[key]["mergeable"].fingerprint()
        # and real worker processes actually ran the parallel sweep
        assert any(e["pid"] != os.getpid() for e in parallel.timeline)

    def test_seed_axis_varies_results(self):
        cells = _tiny_grid()
        result = SweepRunner(workers=1).run(cells)
        by_key = result.payload_by_key()
        assert (by_key["identity/rate=4/seed=0"]["mergeable"].fingerprint()
                != by_key["identity/rate=4/seed=1"]["mergeable"].fingerprint())


# ---------------------------------------------------------------- retry bounds
def flaky_runner(spec):
    sentinel = spec.params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("transient shard failure")
    return {"mergeable": MergeableSummary(label=spec.key, num_requests=1,
                                          num_successful=1, duration_s=1.0)}


def crashing_runner(spec):
    os._exit(13)  # hard worker crash: no exception, no cleanup


def ok_runner(spec):
    return {"mergeable": MergeableSummary(label=spec.key, num_requests=1,
                                          num_successful=1, duration_s=1.0)}


class TestBoundedRetry:
    def test_transient_failure_retried_serially(self, tmp_path):
        sentinel = str(tmp_path / "flaky")
        cell = ScenarioSpec(key="flaky", runner=flaky_runner,
                            params={"sentinel": sentinel})
        result = SweepRunner(workers=1, max_retries=1).run([cell])
        assert result.ok
        assert result.results[0].attempts == 2

    def test_retries_are_bounded(self):
        def always_failing(spec):
            raise RuntimeError("permanent shard failure")

        cell = ScenarioSpec(key="hopeless", runner=always_failing)
        result = SweepRunner(workers=1, max_retries=2).run([cell])
        assert not result.ok
        assert result.results[0].attempts == 3
        assert "permanent shard failure" in result.results[0].error

    def test_worker_crash_does_not_kill_sweep(self):
        """A hard worker crash (os._exit) breaks the pool; the runner must
        rebuild it, retry the crashed shard, and keep the healthy results."""
        cells = [ScenarioSpec(key="ok-1", runner=ok_runner),
                 ScenarioSpec(key="crash", runner=crashing_runner),
                 ScenarioSpec(key="ok-2", runner=ok_runner)]
        # fork context: test-local runners stay importable in the children
        result = SweepRunner(workers=2, mp_context="fork", max_retries=1).run(cells)
        assert not result.ok
        assert [r.key for r in result.failures] == ["crash"]
        assert result.results[0].ok and result.results[2].ok
        crash = result.results[1]
        assert crash.attempts == 2


# ---------------------------------------------------------------- merge laws
def _histogram_from(values):
    h = LogBucketHistogram()
    h.add_many(values)
    return h


positive_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)


class TestMergeLaws:
    @settings(max_examples=60, deadline=None)
    @given(values=positive_samples, data=st.data())
    def test_histogram_merge_is_order_independent(self, values, data):
        """Sharding and merge order never change the bucket table."""
        num_shards = data.draw(st.integers(min_value=1, max_value=5))
        assignment = data.draw(st.lists(
            st.integers(min_value=0, max_value=num_shards - 1),
            min_size=len(values), max_size=len(values)))
        shards = [[] for _ in range(num_shards)]
        for value, shard in zip(values, assignment):
            shards[shard].append(value)
        histograms = [_histogram_from(shard) for shard in shards]
        order = data.draw(st.permutations(range(num_shards)))
        merged = histograms[order[0]]
        for index in order[1:]:
            merged = merged.merge(histograms[index])
        assert merged == _histogram_from(values)

    @settings(max_examples=60, deadline=None)
    @given(values=positive_samples)
    def test_histogram_merge_is_associative(self, values):
        third = max(1, len(values) // 3)
        a = _histogram_from(values[:third])
        b = _histogram_from(values[third:2 * third])
        c = _histogram_from(values[2 * third:])
        assert (a.merge(b)).merge(c) == a.merge(b.merge(c))

    def test_canonical_order_merge_is_bit_identical(self):
        """The runner merges in cell order; the same order must always
        produce the same fingerprint (floats and all)."""
        rng = np.random.default_rng(7)
        shards = []
        for i in range(6):
            records = [RequestRecord(request_id=f"s{i}-r{j}", model="m",
                                     send_time=0.0,
                                     completion_time=float(v),
                                     prompt_tokens=10, output_tokens=5,
                                     success=True)
                       for j, v in enumerate(rng.lognormal(1.0, 1.0, size=50))]
            shards.append(MergeableSummary.from_records(records, label=f"s{i}"))
        once = MergeableSummary.merge_all(shards, label="all")
        again = MergeableSummary.merge_all(shards, label="all")
        assert once.fingerprint() == again.fingerprint()
        assert once.num_requests == 300 and once.num_shards == 6

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            LogBucketHistogram(rel_err=0.01).merge(LogBucketHistogram(rel_err=0.02))


# ---------------------------------------------------------------- quantile bound
class TestQuantileAccuracy:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_merged_quantiles_within_documented_bound(self, seed, q):
        """Merged-shard quantiles are within ``rel_err`` relative error of the
        exact inverted-CDF quantile of the pooled raw samples."""
        rng = np.random.default_rng(seed)
        pooled = rng.lognormal(mean=1.5, sigma=1.2, size=4000)
        shards = np.array_split(pooled, 8)
        merged = None
        for shard in shards:
            h = _histogram_from(shard)
            merged = h if merged is None else merged.merge(h)
        exact = float(np.percentile(pooled, q * 100, method="inverted_cdf"))
        estimate = merged.quantile(q)
        assert abs(estimate - exact) / exact <= DEFAULT_REL_ERR

    def test_bound_documented_in_summary_extras(self):
        summary = MergeableSummary.from_records(
            [RequestRecord(request_id="r", model="m", send_time=0.0,
                           completion_time=1.0, prompt_tokens=1,
                           output_tokens=1, success=True)])
        extras = summary.to_benchmark_summary().extras
        assert extras["quantile_rel_err"] == DEFAULT_REL_ERR
