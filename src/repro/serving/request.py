"""Inference request/result records shared across the serving stack."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["RequestKind", "InferenceRequest", "InferenceResult"]


class RequestKind(str, enum.Enum):
    """OpenAI-compatible endpoint the request arrived on."""

    CHAT_COMPLETION = "chat.completion"
    COMPLETION = "text_completion"
    EMBEDDING = "embedding"


@dataclass(slots=True)
class InferenceRequest:
    """A single inference request as seen by an engine.

    ``prompt_tokens`` and ``max_output_tokens`` drive the timing model;
    ``prompt_text``/``messages`` are carried through so examples can produce
    human-readable responses.
    """

    request_id: str
    model: str
    prompt_tokens: int
    max_output_tokens: int
    kind: RequestKind = RequestKind.CHAT_COMPLETION
    user: str = "anonymous"
    prompt_text: str = ""
    stream: bool = False
    arrival_time: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.prompt_tokens < 0:
            raise ValueError("prompt_tokens must be >= 0")
        if self.max_output_tokens <= 0 and self.kind != RequestKind.EMBEDDING:
            raise ValueError("max_output_tokens must be > 0 for generation requests")


@dataclass(slots=True)
class InferenceResult:
    """Engine-side result of a request, with full timing breakdown."""

    request_id: str
    model: str
    prompt_tokens: int
    output_tokens: int
    text: str = ""
    embedding: Optional[list] = None
    success: bool = True
    error: Optional[str] = None

    # timing (simulation seconds)
    arrival_time: float = 0.0
    engine_enqueue_time: float = 0.0
    prefill_start_time: float = 0.0
    first_token_time: float = 0.0
    completion_time: float = 0.0

    # bookkeeping
    instance_id: str = ""
    cluster: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens

    @property
    def engine_latency_s(self) -> float:
        """Time from engine enqueue to completion."""
        return self.completion_time - self.engine_enqueue_time

    @property
    def time_to_first_token_s(self) -> Optional[float]:
        if self.first_token_time <= 0:
            return None
        return self.first_token_time - self.engine_enqueue_time

    def to_openai_chunk(self, delta: Optional[dict] = None,
                        finish_reason: Optional[str] = None,
                        include_usage: bool = False) -> dict:
        """Render one OpenAI-style ``chat.completion.chunk`` frame.

        Used by the streaming path: intermediate chunks carry a ``delta``
        with content, the final chunk carries ``finish_reason`` and (when
        ``include_usage``) the token usage block.
        """
        chunk = {
            "id": self.request_id,
            "object": "chat.completion.chunk",
            "model": self.model,
            "choices": [
                {
                    "index": 0,
                    "delta": delta if delta is not None else {},
                    "finish_reason": finish_reason,
                }
            ],
        }
        if include_usage:
            chunk["usage"] = {
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.output_tokens,
                "total_tokens": self.total_tokens,
            }
        return chunk

    def to_openai_dict(self) -> dict:
        """Render as an OpenAI-style response body."""
        if self.embedding is not None:
            return {
                "object": "list",
                "model": self.model,
                "data": [{"object": "embedding", "index": 0, "embedding": self.embedding}],
                "usage": {"prompt_tokens": self.prompt_tokens,
                          "total_tokens": self.prompt_tokens},
            }
        return {
            "id": self.request_id,
            "object": "chat.completion",
            "model": self.model,
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": self.text},
                    "finish_reason": "stop" if self.success else "error",
                }
            ],
            "usage": {
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.output_tokens,
                "total_tokens": self.total_tokens,
            },
        }
