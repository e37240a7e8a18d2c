"""The Compute client SDK used by the Inference Gateway.

The gateway never talks to endpoints directly: it authenticates as an
admin-owned confidential client and submits function invocations through the
cloud relay (§3.2.3).  Two result-retrieval strategies are provided because
the paper's Optimization 1 replaced status polling with concurrent futures:

* :meth:`ComputeClient.wait_future` — event/future-based retrieval (results
  arrive as soon as the relay relays them);
* :meth:`ComputeClient.wait_polling` — the original design, which polls the
  relay for task status every ``poll_interval_s`` (2 s in the paper) and only
  then fetches the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..auth import GlobusAuthLikeService
from ..common import AuthenticationError
from ..serving import STREAM_CHANNEL_KEY
from ..sim import Environment
from .relay import RelayService
from .task import TaskFuture, TaskStatus

__all__ = ["ComputeClientConfig", "ComputeClient"]


@dataclass
class ComputeClientConfig:
    """Client-side behaviour."""

    #: Interval of the legacy polling loop (Optimization 1 removed it).
    poll_interval_s: float = 2.0
    #: Extra latency of a status-poll round trip to the relay.
    poll_latency_s: float = 0.15


class ComputeClient:
    """SDK wrapper around the relay, authenticated as a confidential client."""

    def __init__(
        self,
        env: Environment,
        relay: RelayService,
        client_id: str,
        client_secret: str,
        auth: Optional[GlobusAuthLikeService] = None,
        config: Optional[ComputeClientConfig] = None,
    ):
        self.env = env
        self.relay = relay
        self.client_id = client_id
        self.config = config or ComputeClientConfig()
        self.submitted = 0
        if auth is not None:
            # Validate the confidential client credentials once at start-up.
            auth.authenticate_client(client_id, client_secret)
        elif client_secret is None:
            raise AuthenticationError("Confidential client secret is required")

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        function_id: str,
        endpoint_id: str,
        payload: Dict[str, Any],
        submitter: str = "",
        stream_channel: Optional[Any] = None,
    ) -> TaskFuture:
        """Submit a function invocation; returns a :class:`TaskFuture`.

        ``stream_channel`` (a :class:`~repro.serving.StreamChannel`) rides in
        the task payload down to the endpoint so the serving engine can
        publish per-token events back to the submitter while the final
        result still travels the normal future/polling path.
        """
        payload = dict(payload)
        payload.setdefault("client_id", self.client_id)
        if stream_channel is not None:
            payload[STREAM_CHANNEL_KEY] = stream_channel
        future = self.relay.submit(
            function_id=function_id,
            endpoint_id=endpoint_id,
            payload=payload,
            submitter=submitter,
            client_id=self.client_id,
        )
        self.submitted += 1
        return future

    # -- retrieval strategies ------------------------------------------------------
    def wait_future(self, future: TaskFuture):
        """Future-based retrieval (Optimization 1): resume as soon as the result lands."""
        result = yield future.done
        if future.record.status != TaskStatus.COMPLETED:
            raise RuntimeError(f"Task {future.task_id} failed: {future.record.error}")
        return result

    def wait_polling(self, future: TaskFuture):
        """Legacy polling retrieval: check status every ``poll_interval_s`` seconds."""
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.poll_interval_s)
            if cfg.poll_latency_s > 0:
                yield self.env.timeout(cfg.poll_latency_s)
            status = self.relay.get_status(future.task_id)
            if status.terminal:
                break
        if status != TaskStatus.COMPLETED:
            raise RuntimeError(f"Task {future.task_id} failed: {future.record.error}")
        return self.relay.get_result(future.task_id)
