"""Serving performance model.

This module maps a (model, GPU allocation) pair to the timing quantities the
continuous-batching engine needs:

* aggregate decode throughput as a function of the running batch size,
* prefill throughput,
* model load (cold-start) time.

The functional form is the standard saturating-throughput model for
continuous batching: small batches are memory-bandwidth-bound (per-sequence
decode speed is high but aggregate throughput low), large batches approach a
compute-bound ceiling.  Constants are calibrated against the paper's
measurements (see :data:`repro.core.calibration.CALIBRATION_NOTES`):

* Llama 3.3 70B, TP=8 on A100-40GB — ≈3 s median end-to-end latency for a
  ShareGPT request at 1 req/s (Fig. 3) and ≈1700 tok/s aggregate when the
  running batch is ~100 (Fig. 3/4).
* Llama 3.1 8B, TP=4 — ≈3300 tok/s aggregate at saturation (Fig. 5).

Both constraints are satisfied by ``ALPHA ≈ 4500``, ``BETA ≈ 0.627`` and a
batch half-saturation constant of 33 sequences (the ceiling also absorbs the
prefill interference the engine pays when admitting new sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster.gpu import GPUSpec
from ..cluster.node import NodeSpec
from .models import ModelSpec

__all__ = ["PerfModelConfig", "PerformanceModel"]


@dataclass(frozen=True)
class PerfModelConfig:
    """Calibration constants for the serving timing model."""

    #: Scale of the compute-bound decode ceiling (tokens/s); see module docstring.
    alpha: float = 4500.0
    #: Sub-linear exponent of model size in the decode ceiling.
    beta: float = 0.627
    #: Batch size at which aggregate throughput reaches half its ceiling.
    batch_half_saturation: float = 33.0
    #: Prefill is compute-bound and much faster per token than decode.
    prefill_speedup: float = 10.0
    #: Engine initialisation time after weights are loaded (CUDA graphs,
    #: memory profiling, server start) in seconds.
    engine_init_s: float = 25.0
    #: Relative throughput multiplier of the serving backend (vLLM = 1.0;
    #: the paper cites SGLang reaching up to 3.1x on selected models).
    backend_factor: float = 1.0
    #: Throughput multiplier for offline (batch, no-serving) execution.
    offline_factor: float = 1.1


class PerformanceModel:
    """Timing model for one model instance on a specific GPU allocation."""

    def __init__(
        self,
        model: ModelSpec,
        num_gpus: int,
        gpu_spec: GPUSpec,
        config: Optional[PerfModelConfig] = None,
        node_spec: Optional[NodeSpec] = None,
        num_nodes: int = 1,
    ):
        if num_gpus <= 0:
            raise ValueError("num_gpus must be > 0")
        self.model = model
        self.num_gpus = num_gpus
        self.gpu_spec = gpu_spec
        self.config = config or PerfModelConfig()
        self.node_spec = node_spec
        self.num_nodes = max(1, num_nodes)

    # -- decode ------------------------------------------------------------
    @property
    def decode_ceiling_tok_s(self) -> float:
        """Compute-bound aggregate decode ceiling (tokens/s)."""
        cfg = self.config
        compute = self.num_gpus * self.gpu_spec.compute_factor
        return cfg.alpha * cfg.backend_factor * compute / (self.model.params_b ** cfg.beta)

    def aggregate_decode_tok_s(self, batch_size: int) -> float:
        """Aggregate decode throughput for a running batch of ``batch_size``."""
        if batch_size <= 0:
            return 0.0
        b_half = self.config.batch_half_saturation
        return self.decode_ceiling_tok_s * batch_size / (batch_size + b_half)

    def per_sequence_decode_tok_s(self, batch_size: int) -> float:
        """Decode speed seen by a single sequence in a batch of ``batch_size``."""
        if batch_size <= 0:
            return 0.0
        return self.aggregate_decode_tok_s(batch_size) / batch_size

    def decode_step_time_s(self, batch_size: int) -> float:
        """Wall time of one decode iteration (one token for every running sequence)."""
        if batch_size <= 0:
            return 0.0
        return batch_size / self.aggregate_decode_tok_s(batch_size)

    # -- prefill -----------------------------------------------------------
    @property
    def prefill_tok_s(self) -> float:
        """Prompt-processing throughput (tokens/s)."""
        return self.decode_ceiling_tok_s * self.config.prefill_speedup

    def prefill_time_s(self, prompt_tokens: int) -> float:
        return prompt_tokens / self.prefill_tok_s

    # -- cold start ----------------------------------------------------------
    def load_time_s(self, coordination_overhead_s: float = 0.0) -> float:
        """Model cold-start time: read weights from storage + engine init.

        Scales with the model's parameter count (the paper: an 8B model
        "loads relatively quickly" whereas a 405B model needs to coordinate
        loading across multiple nodes, "significantly increasing the cold
        start time").
        """
        read_gbps = (self.node_spec.storage_read_gbps if self.node_spec
                     else NodeSpec.storage_read_gbps)
        # Weight shards are read on every node in parallel; each node reads
        # its share of the weights.
        per_node_gb = self.model.weights_gb / self.num_nodes
        read_time = per_node_gb / read_gbps
        return read_time + self.config.engine_init_s + coordination_overhead_s

    # -- KV cache ------------------------------------------------------------
    def kv_capacity_tokens(self, vram_utilization: float = 0.9) -> int:
        """How many tokens of KV cache fit after the weights are resident."""
        total_vram_gb = self.num_gpus * self.gpu_spec.memory_gb
        available_gb = total_vram_gb * vram_utilization - self.model.weights_gb
        if available_gb <= 0:
            return 0
        return int(available_gb * 1e9 / self.model.kv_bytes_per_token)

    def fits(self, vram_utilization: float = 0.9) -> bool:
        """Whether the weights (plus some KV headroom) fit on this allocation."""
        return self.kv_capacity_tokens(vram_utilization) > 0

    def __repr__(self) -> str:
        return (
            f"<PerformanceModel {self.model.name} on {self.num_gpus}x{self.gpu_spec.name}: "
            f"ceiling={self.decode_ceiling_tok_s:.0f} tok/s>"
        )
