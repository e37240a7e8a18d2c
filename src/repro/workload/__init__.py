"""Workload generation and benchmark driving.

ShareGPT-like synthetic conversations, arrival processes (Poisson / uniform
/ infinite), the benchmark client used to regenerate the paper's figures,
and JSONL batch-input handling.
"""

from .arrivals import (
    ArrivalProcess,
    DiurnalArrival,
    InfiniteArrival,
    PoissonArrival,
    RampArrival,
    TraceReplayArrival,
    UniformArrival,
)
from .batchfile import parse_batch_lines, requests_to_jsonl
from .benchmark_client import BenchmarkClient
from .sharegpt import BATCH_GENERATION_CONFIG, ShareGPTConfig, ShareGPTWorkload

__all__ = [
    "ShareGPTWorkload",
    "ShareGPTConfig",
    "BATCH_GENERATION_CONFIG",
    "ArrivalProcess",
    "InfiniteArrival",
    "PoissonArrival",
    "UniformArrival",
    "DiurnalArrival",
    "RampArrival",
    "TraceReplayArrival",
    "BenchmarkClient",
    "requests_to_jsonl",
    "parse_batch_lines",
]
