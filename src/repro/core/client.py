"""OpenAI-style Python client bound to a FIRST deployment.

"Once authenticated, users can make API requests using standard HTTP clients
or the OpenAI Python package" (§4.6).  :class:`FIRSTClient` plays the role of
that OpenAI client: it holds the user's access token (refreshing it when
needed) and exposes ``chat_completion``, ``completion``, ``embedding``,
``create_batch``, ``jobs`` and ``models`` calls.

Three calling styles are supported:

* **blocking** (examples): ``client.chat_completion(...)`` advances the
  simulation until the response is available and returns the OpenAI dict;
* **streaming** (API v2): ``client.chat_completion(..., stream=True)``
  returns an iterator of OpenAI-style ``chat.completion.chunk`` dicts —
  each ``next()`` advances the simulation to the next token event, ending
  with a chunk carrying ``finish_reason`` and the usage block;
* **target protocol** (benchmarks): ``client.submit(request)`` returns a
  simulation event, which is what :class:`~repro.workload.BenchmarkClient`
  expects.

Gateway failures arrive as typed error envelopes.  With the default
``raise_on_error=True`` the client re-raises them as the matching
:mod:`repro.common.errors` exception; with ``raise_on_error=False`` the
envelope dict is returned (or yielded as the terminal chunk) unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..auth import TokenBundle
from ..gateway import GatewayStream, exception_from_envelope, is_error_envelope
from ..serving import InferenceRequest, InferenceResult, RequestKind
from ..sim import Event

__all__ = ["FIRSTClient"]


class FIRSTClient:
    """A user-facing client for one authenticated identity."""

    def __init__(self, deployment, token_bundle: TokenBundle, raise_on_error: bool = True):
        self.deployment = deployment
        self.env = deployment.env
        self.gateway = deployment.gateway
        self._bundle = token_bundle
        #: Re-raise gateway error envelopes as typed exceptions (default) or
        #: hand the raw ``{"error": {...}}`` body back to the caller.
        self.raise_on_error = raise_on_error

    # ------------------------------------------------------------------ token handling
    @property
    def username(self) -> str:
        return self._bundle.username

    @property
    def access_token(self) -> str:
        self._maybe_refresh()
        return self._bundle.access_token

    @property
    def name(self) -> str:
        return "FIRST"

    def _maybe_refresh(self) -> None:
        """Transparently refresh the access token when it nears expiry (§4.6)."""
        if self.env.now >= self._bundle.expires_at - 300.0:
            self._bundle = self.deployment.auth.refresh(self._bundle.refresh_token)

    # ------------------------------------------------------------------ target protocol
    def submit(self, request: InferenceRequest) -> Event:
        """Submit a typed request; returns the result event (benchmark protocol)."""
        return self.gateway.submit_request(self.access_token, request)

    # ------------------------------------------------------------------ blocking helpers
    def _call(self, generator):
        proc = self.env.process(generator)
        return self._unwrap(self.env.run(until=proc))

    def _unwrap(self, response):
        if self.raise_on_error and is_error_envelope(response):
            raise exception_from_envelope(response)
        return response

    def chat_completion(self, model: str, messages: List[Dict[str, str]],
                        max_tokens: int = 256, stream: bool = False, **params):
        """``POST /v1/chat/completions`` (blocking; iterator when ``stream=True``)."""
        body = {"model": model, "messages": messages, "max_tokens": max_tokens,
                "stream": stream, **params}
        if stream:
            return self._open_stream(body, RequestKind.CHAT_COMPLETION)
        return self._call(self.gateway.chat_completions(self.access_token, body))

    def completion(self, model: str, prompt: str, max_tokens: int = 256,
                   stream: bool = False, **params):
        """``POST /v1/completions`` (blocking; iterator when ``stream=True``)."""
        body = {"model": model, "prompt": prompt, "max_tokens": max_tokens,
                "stream": stream, **params}
        if stream:
            return self._open_stream(body, RequestKind.COMPLETION)
        return self._call(self.gateway.completions(self.access_token, body))

    def embedding(self, model: str, text: str) -> dict:
        """``POST /v1/embeddings`` (blocking)."""
        body = {"model": model, "input": text}
        return self._call(self.gateway.embeddings(self.access_token, body))

    # ------------------------------------------------------------------ streaming (API v2)
    def _open_stream(self, body: dict, kind: RequestKind) -> Iterator[dict]:
        """Open a streaming request; returns the chunk iterator."""
        try:
            request = self.gateway.build_request(body, kind)
        except Exception as exc:
            from ..common import ReproError
            from ..gateway import error_envelope

            if self.raise_on_error or not isinstance(exc, ReproError):
                raise
            return iter([error_envelope(exc)])
        stream = self.gateway.submit_stream(self.access_token, request)
        return self._iter_chunks(stream)

    def _iter_chunks(self, stream: GatewayStream) -> Iterator[dict]:
        """Advance the simulation event by event, yielding OpenAI chunks."""
        # Only the identity fields are known mid-stream; the terminal chunk
        # (built from the real result) carries usage.
        request = stream.request
        shell = InferenceResult(
            request_id=request.request_id,
            model=request.model,
            prompt_tokens=request.prompt_tokens,
            output_tokens=0,
        )
        sent_role = False
        while True:
            item = self.env.run(until=stream.channel.get())
            if item is None:
                return  # channel closed without a terminal event
            if item.kind == "error":
                if self.raise_on_error and item.exception is not None:
                    raise item.exception
                yield {"error": item.error}
                return
            if item.kind == "token":
                if not sent_role:
                    sent_role = True
                    yield shell.to_openai_chunk(delta={"role": "assistant", "content": ""})
                yield shell.to_openai_chunk(delta={"content": item.text})
            elif item.kind == "done":
                final = item.result
                stream.result = final
                yield final.to_openai_chunk(
                    finish_reason="stop" if final.success else "error",
                    include_usage=True,
                )
                return

    def create_batch(self, input_jsonl: str, endpoint_id: Optional[str] = None) -> dict:
        """``POST /v1/batches`` (blocking submit; poll with :meth:`get_batch`)."""
        return self._call(self.gateway.create_batch(self.access_token, input_jsonl, endpoint_id))

    def get_batch(self, batch_id: str) -> dict:
        return self._call(self.gateway.get_batch(self.access_token, batch_id))

    def retry_batch(self, batch_id: str) -> dict:
        """``POST /v1/batches/{id}/retry`` — resubmit only the failed requests."""
        return self._call(self.gateway.retry_batch(self.access_token, batch_id))

    def wait_for_batch(self, batch_id: str, poll_every_s: float = 30.0,
                       timeout_s: float = 24 * 3600.0) -> dict:
        """Advance the simulation until the batch reaches a terminal state."""
        waited = 0.0
        while waited < timeout_s:
            status = self.get_batch(batch_id)
            if status["status"] in ("completed", "failed"):
                return status
            self.deployment.run_for(poll_every_s)
            waited += poll_every_s
        raise TimeoutError(f"Batch {batch_id} did not finish within {timeout_s}s")

    # ------------------------------------------------------------------ informational
    def models(self) -> dict:
        """``GET /v1/models``."""
        return self.gateway.list_models()

    def jobs(self) -> List[dict]:
        """``GET /jobs`` — model availability / wait-time transparency (§4.3)."""
        return self.gateway.jobs()

    def dashboard(self) -> dict:
        return self.gateway.dashboard()

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — Prometheus text exposition of the gateway metrics."""
        return self.gateway.metrics_text()

    def get_trace(self, trace_id: str) -> dict:
        """``GET /v1/traces/{id}`` — a retained distributed trace as a dict."""
        return self.gateway.get_trace(trace_id)
