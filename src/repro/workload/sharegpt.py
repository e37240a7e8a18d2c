"""Synthetic ShareGPT-like workload.

The paper benchmarks with the ShareGPT dataset ("thousands of real-world
user-AI conversations across diverse topics", §5.2.2), sampling 1000
requests and reusing the same prompts/output lengths across scenarios for a
fair comparison.  ShareGPT itself cannot be redistributed here, so this
module generates a statistically similar workload: lognormal prompt and
output token lengths whose means match the effective values implied by the
paper's measurements (≈220 prompt tokens and ≈180 output tokens per
request), with a fixed seed so every scenario sees the identical request
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..common.randomness import DRAW_BLOCK, RandomSource
from ..serving import InferenceRequest, RequestKind

__all__ = ["ShareGPTConfig", "ShareGPTWorkload", "BATCH_GENERATION_CONFIG"]

_TOPICS = [
    "genomic sequence annotation",
    "climate model downscaling",
    "particle collision reconstruction",
    "HPC job scheduler troubleshooting",
    "materials synthesis planning",
    "radio telescope calibration",
    "protein folding energetics",
    "turbulent flow simulation",
]


@dataclass(frozen=True)
class ShareGPTConfig:
    """Shape of the synthetic conversation workload."""

    num_requests: int = 1000
    mean_prompt_tokens: float = 220.0
    prompt_sigma: float = 0.8
    mean_output_tokens: float = 180.0
    output_sigma: float = 0.7
    min_prompt_tokens: int = 8
    max_prompt_tokens: int = 3072
    min_output_tokens: int = 4
    max_output_tokens: int = 1500
    seed: int = 20240714

    def __post_init__(self):
        if self.num_requests <= 0:
            raise ValueError("num_requests must be > 0")
        if self.mean_prompt_tokens <= 0 or self.mean_output_tokens <= 0:
            raise ValueError("token means must be > 0")


#: Length profile used for the offline batch-mode experiments (§5.3.1), where
#: generations are not capped by interactive chat targets and run much longer.
BATCH_GENERATION_CONFIG = ShareGPTConfig(
    num_requests=1000,
    mean_prompt_tokens=280.0,
    mean_output_tokens=860.0,
    output_sigma=0.6,
    max_output_tokens=4096,
    seed=20240715,
)


class ShareGPTWorkload:
    """Deterministic generator of ShareGPT-like requests."""

    def __init__(self, config: Optional[ShareGPTConfig] = None):
        self.config = config or ShareGPTConfig()

    def generate(
        self,
        model: str,
        num_requests: Optional[int] = None,
        user: str = "benchmark@anl.gov",
        id_prefix: str = "sharegpt",
    ) -> List[InferenceRequest]:
        """Produce the request list for ``model``.

        The same seed always produces the same (prompt length, output length)
        pairs, mirroring the paper's "same set of input prompts and
        corresponding target output lengths ... for each model across all
        relevant tests".  ``num_requests=None`` means the config's count.

        Lengths are drawn in bulk, ``DRAW_BLOCK`` requests per call, as the
        same values in the same order (prompt, output, prompt, ...) as one
        scalar lognormal call per length; blocks keep the numpy scratch small
        however many requests are made.  Token counts reach
        :class:`InferenceRequest` as Python ``int``s.
        """
        cfg = self.config
        n = cfg.num_requests if num_requests is None else num_requests
        if n < 0:
            raise ValueError("num_requests must be >= 0")
        rng = RandomSource(seed=cfg.seed)
        means = (cfg.mean_prompt_tokens, cfg.mean_output_tokens)
        sigmas = (cfg.prompt_sigma, cfg.output_sigma)
        lows = (cfg.min_prompt_tokens, cfg.min_output_tokens)
        highs = (cfg.max_prompt_tokens, cfg.max_output_tokens)
        requests = []
        for start in range(0, n, DRAW_BLOCK):
            draws = rng.lognormal(means, sigmas, size=(min(DRAW_BLOCK, n - start), 2))
            prompts, outputs = np.clip(draws, lows, highs, out=draws).astype(np.int64).T.tolist()
            for i, (prompt_tokens, output_tokens) in enumerate(zip(prompts, outputs), start):
                requests.append(
                    InferenceRequest(
                        request_id=f"{id_prefix}-{i:06d}",
                        model=model,
                        prompt_tokens=prompt_tokens,
                        max_output_tokens=output_tokens,
                        kind=RequestKind.CHAT_COMPLETION,
                        user=user,
                        prompt_text=f"[conversation {i}] Please help with "
                                    f"{_TOPICS[i % len(_TOPICS)]}.",
                    )
                )
        return requests
