"""Calibration constants and the paper anchors they were fitted to.

The reproduction runs on a simulator, not on Sophia's DGX A100 nodes, so a
small number of constants map model size / GPU allocation / relay behaviour
onto wall-clock time.  Every constant below is tied to a specific
measurement in the paper; benchmarks assert the resulting *shapes* (who
wins, by roughly what factor, where crossovers fall) rather than exact
numbers.  EXPERIMENTS.md records paper-vs-measured values.
"""

from __future__ import annotations

from typing import Dict

from ..cluster import SchedulerConfig
from ..faas import ComputeClientConfig, RelayConfig
from ..gateway import GatewayConfig
from ..serving import APIServerConfig, EngineConfig, PerfModelConfig

__all__ = [
    "CALIBRATION_NOTES",
    "default_perf_config",
    "default_engine_config",
    "default_api_server_config",
    "default_scheduler_config",
    "default_relay_config",
    "default_gateway_config",
    "default_compute_client_config",
    "DEFAULT_MAX_PARALLEL_TASKS",
    "describe",
]

#: Anchor → constant mapping, kept in one place so EXPERIMENTS.md and the
#: benchmark harnesses can print it alongside results.
CALIBRATION_NOTES: Dict[str, str] = {
    "serving.alpha=4500, beta=0.627, batch_half_saturation=33, prefill_speedup=10": (
        "Fitted jointly to Fig. 3 (70B/TP=8: ~3 s single-request latency, "
        "~1700 output tok/s saturated once prefill interference is paid) and "
        "Fig. 5 (8B/TP=4: ~3300 tok/s saturated)."
    ),
    "api_server.base_handling_s=0.08, degradation_connections=400": (
        "The single-threaded vLLM API front-end tops out near 12 req/s and "
        "collapses to ~4-6 req/s when ~1000 connections are open simultaneously "
        "(Fig. 3, 20 req/s and infinite rate), while adding <0.1 s per request "
        "at low concurrency."
    ),
    "relay.routing_rate_max=66, routing_half_instances=7": (
        "Globus-Compute routing scalability fitted to Fig. 4: 8.3/14.6/20.9/23.9 "
        "req/s for 1-4 instances (the paper attributes the ceiling to Globus "
        "Compute's ability to route requests to multiple instances)."
    ),
    "relay latencies (submit=0.8, dispatch=2.4, result=1.8) + endpoint poll 1.0 + gateway": (
        "The ~6 s per-request overhead of FIRST vs Direct at 1 req/s "
        "(9.2 s vs 3.0 s median, Fig. 3)."
    ),
    "gateway.uncached_connection_setup_s=1.5 + introspection 0.3 s": (
        "Optimization 2: caching token introspection and endpoint connections "
        "'eliminated 2 s from the latency of each request'."
    ),
    "gateway.sync_workers=9": (
        "Optimization 3: the legacy synchronous Django REST deployment could "
        "only process nine requests at a time."
    ),
    "compute_client.poll_interval_s=2.0": (
        "Optimization 1: the original design polled task status every 2 s."
    ),
    "max_parallel_tasks=96": (
        "Endpoint admission bound per instance; keeps the instance's API "
        "front-end healthy while saturating the engine (~9 req/s for 70B)."
    ),
    "offline_factor=1.1": (
        "Batch mode avoids online-serving overhead; a 1000-request 70B batch "
        "reaches ~2100 tok/s overall including the cold start (§5.3.1)."
    ),
}

#: Default per-instance admission bound used by deployments.
DEFAULT_MAX_PARALLEL_TASKS = 96


def default_perf_config() -> PerfModelConfig:
    """Serving timing model fitted to Figs. 3-5 (see CALIBRATION_NOTES)."""
    return PerfModelConfig(
        alpha=4500.0,
        beta=0.627,
        batch_half_saturation=33.0,
        prefill_speedup=10.0,
        engine_init_s=25.0,
        offline_factor=1.1,
    )


def default_engine_config(generate_text: bool = False) -> EngineConfig:
    return EngineConfig(max_num_seqs=256, generate_text=generate_text)


def default_api_server_config() -> APIServerConfig:
    return APIServerConfig(threads=1, base_handling_s=0.08, degradation_connections=400.0)


def default_scheduler_config() -> SchedulerConfig:
    """PBS / Slurm timing of every deployed cluster: a 2 s scheduling cycle
    and a 5 s node prologue before an instance job is running."""
    return SchedulerConfig(cycle_latency_s=2.0, prologue_s=5.0)


def default_relay_config() -> RelayConfig:
    return RelayConfig(
        submit_latency_s=0.8,
        dispatch_latency_s=2.4,
        result_latency_s=1.8,
        routing_rate_max=66.0,
        routing_half_instances=7.0,
    )


def default_gateway_config() -> GatewayConfig:
    return GatewayConfig()


def default_compute_client_config() -> ComputeClientConfig:
    return ComputeClientConfig(poll_interval_s=2.0, poll_latency_s=0.15)


def describe() -> Dict[str, str]:
    """Return the calibration notes (printed by the benchmark harnesses)."""
    return dict(CALIBRATION_NOTES)
