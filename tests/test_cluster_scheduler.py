"""Unit tests for the PBS and local scheduler simulators."""

import pytest

from repro.common import NotFoundError
from repro.cluster import (
    FacilityStatusProvider,
    JobRequest,
    JobState,
    LocalScheduler,
    PBSScheduler,
    SchedulerConfig,
    make_scheduler,
    small_test_cluster,
)
from repro.sim import Environment


def make_pbs(num_nodes=4, **cfg_kwargs):
    env = Environment()
    cluster = small_test_cluster(num_nodes=num_nodes)
    config = SchedulerConfig(**cfg_kwargs) if cfg_kwargs else None
    sched = PBSScheduler(env, cluster, config)
    return env, cluster, sched


def test_job_request_validation():
    with pytest.raises(ValueError):
        JobRequest("bad", num_nodes=0)
    with pytest.raises(ValueError):
        JobRequest("bad", gpus_per_node=0)
    with pytest.raises(ValueError):
        JobRequest("bad", walltime_s=0)


def test_submit_and_start_single_job():
    env, cluster, sched = make_pbs(cycle_latency_s=5.0, prologue_s=10.0)
    handle = sched.submit(JobRequest("serve-llama", num_nodes=1))

    def observe(env):
        nodes = yield handle.started
        return (env.now, len(nodes), handle.job.state)

    p = env.process(observe(env))
    env.run(until=p)
    now, n_nodes, state = p.value
    # cycle latency (5s) + prologue (10s)
    assert now == pytest.approx(15.0)
    assert n_nodes == 1
    assert state == JobState.RUNNING
    assert handle.job.queue_wait_s == pytest.approx(5.0)


def test_job_rejected_if_larger_than_cluster():
    env, cluster, sched = make_pbs(num_nodes=2)
    with pytest.raises(ValueError):
        sched.submit(JobRequest("huge", num_nodes=3))


def test_fifo_queueing_when_cluster_full():
    env, cluster, sched = make_pbs(num_nodes=1)
    h1 = sched.submit(JobRequest("first", num_nodes=1, walltime_s=100.0))
    h2 = sched.submit(JobRequest("second", num_nodes=1, walltime_s=100.0))

    def run(env):
        yield h1.started
        t1 = env.now
        # release the first job after 50s of use
        yield env.timeout(50.0)
        sched.release(h1.job.job_id)
        yield h2.started
        return (t1, env.now)

    p = env.process(run(env))
    env.run(until=p)
    t1, t2 = p.value
    assert t1 < t2
    assert h1.job.state == JobState.COMPLETED
    assert h2.job.state == JobState.RUNNING


def test_walltime_enforcement():
    env, cluster, sched = make_pbs()
    handle = sched.submit(JobRequest("short", num_nodes=1, walltime_s=30.0))
    env.run(until=200.0)
    assert handle.job.state == JobState.TIMEOUT
    assert handle.finished.value == JobState.TIMEOUT
    assert len(cluster.free_nodes) == cluster.total_nodes


def test_walltime_not_enforced_when_disabled():
    env = Environment()
    cluster = small_test_cluster(num_nodes=1)
    sched = PBSScheduler(env, cluster, SchedulerConfig(enforce_walltime=False))
    handle = sched.submit(JobRequest("long", num_nodes=1, walltime_s=10.0))
    env.run(until=100.0)
    assert handle.job.state == JobState.RUNNING


def test_cancel_queued_job():
    env, cluster, sched = make_pbs(num_nodes=1)
    sched.submit(JobRequest("first", num_nodes=1, walltime_s=1000.0))
    h2 = sched.submit(JobRequest("second", num_nodes=1, walltime_s=1000.0))

    def cancel_later(env):
        yield env.timeout(20.0)
        sched.cancel(h2.job.job_id)

    env.process(cancel_later(env))
    env.run(until=60.0)
    assert h2.job.state == JobState.CANCELLED
    assert h2.finished.value == JobState.CANCELLED


def test_cancel_running_job_frees_nodes():
    env, cluster, sched = make_pbs(num_nodes=1)
    h1 = sched.submit(JobRequest("first", num_nodes=1, walltime_s=1000.0))

    def cancel_later(env):
        yield h1.started
        yield env.timeout(10.0)
        sched.cancel(h1.job.job_id)

    env.process(cancel_later(env))
    env.run(until=100.0)
    assert h1.job.state == JobState.CANCELLED
    assert len(cluster.free_nodes) == 1


def test_release_before_start_cancels():
    env, cluster, sched = make_pbs(num_nodes=1)
    h1 = sched.submit(JobRequest("first", num_nodes=1, walltime_s=1000.0))
    h2 = sched.submit(JobRequest("second", num_nodes=1, walltime_s=1000.0))
    sched.release(h2.job.job_id)
    env.run(until=50.0)
    assert h2.job.state == JobState.CANCELLED
    assert h1.job.state == JobState.RUNNING


def test_unknown_job_id_raises():
    env, cluster, sched = make_pbs()
    with pytest.raises(NotFoundError):
        sched.get_job("nope")
    with pytest.raises(NotFoundError):
        sched.cancel("nope")


def test_fifo_order_preserved_when_no_backfill_window():
    """When the head job can start as soon as nodes free up, later jobs wait (FIFO)."""
    env = Environment()
    cluster = small_test_cluster(num_nodes=2)
    sched = PBSScheduler(env, cluster, SchedulerConfig(cycle_latency_s=1.0, prologue_s=0.0))
    # Job A occupies both nodes for 100s.
    ha = sched.submit(JobRequest("A", num_nodes=2, walltime_s=100.0))
    env.run(until=5.0)
    # Job B (2 nodes) waits for A; job C (1 node) cannot backfill because A
    # holds every node, and once A ends the head job B starts immediately.
    hb = sched.submit(JobRequest("B", num_nodes=2, walltime_s=50.0))
    hc = sched.submit(JobRequest("C", num_nodes=1, walltime_s=10.0))
    env.run(until=300.0)
    assert ha.job.start_time < hb.job.start_time
    assert hb.job.start_time < hc.job.start_time


def test_backfill_short_job_runs_while_head_blocked():
    env = Environment()
    cluster = small_test_cluster(num_nodes=3)
    sched = PBSScheduler(env, cluster, SchedulerConfig(cycle_latency_s=1.0, prologue_s=0.0))
    # A holds 2 of 3 nodes for 100 s.
    sched.submit(JobRequest("A", num_nodes=2, walltime_s=100.0))
    env.run(until=3.0)
    # B needs all 3 nodes -> blocked until A ends. C needs 1 node for 20 s and
    # finishes before A would end, so EASY backfill lets it start immediately.
    hb = sched.submit(JobRequest("B", num_nodes=3, walltime_s=50.0))
    hc = sched.submit(JobRequest("C", num_nodes=1, walltime_s=20.0))
    env.run(until=30.0)
    assert hc.job.state in (JobState.RUNNING, JobState.TIMEOUT, JobState.COMPLETED)
    assert hb.job.state == JobState.QUEUED


def test_no_backfill_when_disabled():
    env = Environment()
    cluster = small_test_cluster(num_nodes=3)
    sched = PBSScheduler(
        env, cluster, SchedulerConfig(cycle_latency_s=1.0, prologue_s=0.0, backfill=False)
    )
    sched.submit(JobRequest("A", num_nodes=2, walltime_s=100.0))
    env.run(until=3.0)
    sched.submit(JobRequest("B", num_nodes=3, walltime_s=50.0))
    hc = sched.submit(JobRequest("C", num_nodes=1, walltime_s=20.0))
    env.run(until=30.0)
    assert hc.job.state == JobState.QUEUED


def test_local_scheduler_immediate():
    env = Environment()
    cluster = small_test_cluster(num_nodes=2)
    sched = LocalScheduler(env, cluster)
    handle = sched.submit(JobRequest("local", num_nodes=1))

    def observe(env):
        yield handle.started
        return env.now

    p = env.process(observe(env))
    env.run(until=p)
    assert p.value == 0.0


def test_make_scheduler_factory():
    env = Environment()
    cluster = small_test_cluster()
    assert isinstance(make_scheduler("pbs", env, cluster), PBSScheduler)
    assert isinstance(make_scheduler("LOCAL", env, cluster), LocalScheduler)
    for kind in ("lsf", "slurm", "kubernetes"):
        with pytest.raises(ValueError):
            make_scheduler(kind, env, cluster)


def test_scheduler_status_counts():
    env, cluster, sched = make_pbs(num_nodes=1)
    sched.submit(JobRequest("a", num_nodes=1, walltime_s=100.0))
    sched.submit(JobRequest("b", num_nodes=1, walltime_s=100.0))
    env.run(until=30.0)
    status = sched.status()
    assert status.running_jobs == 1
    assert status.queued_jobs == 1
    assert status.free_nodes == 0


def test_job_to_dict_fields():
    env, cluster, sched = make_pbs()
    handle = sched.submit(JobRequest("serve", num_nodes=1, metadata={"model": "llama"}))
    env.run(until=30.0)
    d = handle.job.to_dict()
    assert d["state"] == "running"
    assert d["metadata"]["model"] == "llama"
    assert d["queue_wait_s"] is not None


def test_facility_status_provider_caching():
    env, cluster, sched = make_pbs(num_nodes=2)
    provider = FacilityStatusProvider(env, sched, query_latency_s=0.5, refresh_interval_s=60.0)

    def run(env):
        s1 = yield from provider.query()
        sched.submit(JobRequest("x", num_nodes=1, walltime_s=100.0))
        yield env.timeout(30.0)
        s2 = yield from provider.query()  # still cached
        yield env.timeout(60.0)
        s3 = yield from provider.query()  # refreshed
        return s1.free_nodes, s2.free_nodes, s3.free_nodes

    p = env.process(run(env))
    env.run(until=p)
    free1, free2, free3 = p.value
    assert free1 == 2
    assert free2 == 2  # stale snapshot
    assert free3 == 1  # refreshed after interval
    assert provider.query_count == 3
