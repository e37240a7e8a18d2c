"""JSON Lines batch-input files (the ``/v1/batches`` input format, §4.4).

"Users submit batch jobs via the '/v1/batches' endpoint, providing an input
file in JSON Lines format where each line constitutes a complete inference
request."
"""

from __future__ import annotations

import json
from typing import Iterable, List

from ..common import ValidationError
from ..serving import InferenceRequest, RequestKind, estimate_tokens

__all__ = ["requests_to_jsonl", "parse_batch_lines"]


def _request_to_line(request: InferenceRequest) -> dict:
    return {
        "custom_id": request.request_id,
        "method": "POST",
        "url": "/v1/chat/completions",
        "body": {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt_text or ""}],
            "max_tokens": request.max_output_tokens,
            "prompt_tokens_hint": request.prompt_tokens,
        },
    }


def requests_to_jsonl(requests: Iterable[InferenceRequest]) -> str:
    """Serialise requests to the JSONL payload a user would upload."""
    return "\n".join(json.dumps(_request_to_line(r)) for r in requests)


def parse_batch_lines(text: str, default_user: str = "batch@anl.gov") -> List[InferenceRequest]:
    """Parse JSONL batch input into :class:`InferenceRequest` objects.

    Raises :class:`ValidationError` on malformed lines, matching the
    gateway's input-validation responsibility.
    """
    requests: List[InferenceRequest] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"Batch input line {lineno} is not valid JSON: {exc}") from None
        body = payload.get("body", {})
        model = body.get("model")
        if not model:
            raise ValidationError(f"Batch input line {lineno} is missing 'body.model'")
        messages = body.get("messages", [])
        content = " ".join(m.get("content", "") for m in messages)
        prompt_tokens = int(body.get("prompt_tokens_hint") or max(1, estimate_tokens(content)))
        max_tokens = int(body.get("max_tokens", 256))
        if max_tokens <= 0:
            raise ValidationError(f"Batch input line {lineno} has non-positive max_tokens")
        requests.append(
            InferenceRequest(
                request_id=str(payload.get("custom_id", f"batch-line-{lineno}")),
                model=model,
                prompt_tokens=prompt_tokens,
                max_output_tokens=max_tokens,
                kind=RequestKind.CHAT_COMPLETION,
                user=default_user,
                prompt_text=content,
                metadata={"batch_line": lineno},
            )
        )
    if not requests:
        raise ValidationError("Batch input contains no requests")
    return requests
