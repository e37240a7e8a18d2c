"""Offline (batch-mode) execution of inference requests.

FIRST's batch mode "executes each batch job as a dedicated HPC job. This job
loads the specified model solely for that task, processing all requests from
the user's input file directly without the mediation of a shared online
server" (§4.4).  The runner therefore skips the API front-end entirely and
drives the continuous-batching engine with every request available up front,
which is why batch mode reaches higher token throughput than interactive
serving.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from ..sim import Environment
from .engine import ContinuousBatchingEngine, EngineConfig
from .request import InferenceRequest, InferenceResult
from .timing import PerformanceModel

__all__ = ["OfflineRunResult", "OfflineBatchRunner"]


@dataclass
class OfflineRunResult:
    """Outcome of an offline batch run."""

    results: List[InferenceResult]
    load_time_s: float
    processing_time_s: float

    @property
    def duration_s(self) -> float:
        """Total wall time including the cold start."""
        return self.load_time_s + self.processing_time_s

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.results)

    @property
    def overall_output_tok_s(self) -> float:
        """Output tokens per second over the *total* duration (paper's metric)."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_output_tokens / self.duration_s

    @property
    def processing_output_tok_s(self) -> float:
        """Output tokens per second excluding the model load."""
        if self.processing_time_s <= 0:
            return 0.0
        return self.total_output_tokens / self.processing_time_s

    @property
    def num_completed(self) -> int:
        return sum(1 for r in self.results if r.success)


class OfflineBatchRunner:
    """Runs a list of requests through a dedicated engine with no server overhead."""

    def __init__(
        self,
        env: Optional[Environment],
        perf: PerformanceModel,
        engine_config: Optional[EngineConfig] = None,
        include_load_time: bool = True,
    ):
        self.env = env or Environment()
        # Offline mode avoids streaming/serving overhead: apply the
        # calibrated offline throughput factor.
        cfg = perf.config
        boosted = dataclasses.replace(
            cfg, backend_factor=cfg.backend_factor * cfg.offline_factor
        )
        self.perf = PerformanceModel(
            model=perf.model,
            num_gpus=perf.num_gpus,
            gpu_spec=perf.gpu_spec,
            config=boosted,
            node_spec=perf.node_spec,
            num_nodes=perf.num_nodes,
        )
        self.engine_config = engine_config or EngineConfig()
        self.include_load_time = include_load_time

    def run(self, requests: List[InferenceRequest]):
        """Simulation process: execute all ``requests``; returns :class:`OfflineRunResult`."""
        if not requests:
            return OfflineRunResult(results=[], load_time_s=0.0, processing_time_s=0.0)

        load_time = 0.0
        if self.include_load_time:
            load_time = self.perf.load_time_s()
            yield self.env.timeout(load_time)

        start = self.env.now
        engine = ContinuousBatchingEngine(
            self.env, self.perf, self.engine_config, instance_id="offline-batch"
        )
        events = [engine.submit(req) for req in requests]
        condition = self.env.all_of(events)
        yield condition
        results = [ev.value for ev in events]
        processing = self.env.now - start
        engine.stop()
        return OfflineRunResult(
            results=results, load_time_s=load_time, processing_time_s=processing
        )
