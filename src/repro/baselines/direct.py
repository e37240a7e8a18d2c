"""The "vLLM Direct" baseline of §5.2.3.

"Requests were sent directly from the benchmarking client to the vLLM
OpenAI-compatible API endpoint running on the designated Sophia nodes" — no
gateway, no Globus Compute, no authentication.  The target simply wraps a
ready :class:`~repro.serving.ServingInstance` and submits to its API
front-end, which is exactly where the front-end concurrency limitation that
FIRST sidesteps lives.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cluster import Node
from ..serving import (
    APIServerConfig,
    EngineConfig,
    InferenceRequest,
    ModelSpec,
    PerfModelConfig,
    ServingInstance,
)
from ..sim import Environment, Event

__all__ = ["DirectVLLMTarget"]


class DirectVLLMTarget:
    """Benchmark target that talks straight to a model instance's API server."""

    name = "vLLM Direct"

    def __init__(self, instance: ServingInstance):
        if not instance.is_ready:
            raise RuntimeError("DirectVLLMTarget requires a ready instance; "
                               "use DirectVLLMTarget.launch(...)")
        self.instance = instance

    @classmethod
    def launch(
        cls,
        env: Environment,
        model: ModelSpec,
        nodes: List[Node],
        tensor_parallel: Optional[int] = None,
        perf_config: Optional[PerfModelConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        api_config: Optional[APIServerConfig] = None,
    ) -> Tuple["DirectVLLMTarget", Event]:
        """Start an instance and return ``(target_factory, ready_event)``.

        Run the environment until ``ready_event`` fires, then call
        ``target_factory.materialise()`` (or simply construct the target from
        the instance) to obtain a usable target.
        """
        instance = ServingInstance(
            env,
            model,
            nodes,
            tensor_parallel=tensor_parallel,
            perf_config=perf_config,
            engine_config=engine_config,
            api_config=api_config,
            via_api_server=True,
        )
        holder = _PendingDirectTarget(instance)
        return holder, instance.ready

    def submit(self, request: InferenceRequest) -> Event:
        return self.instance.submit(request)


class _PendingDirectTarget:
    """Deferred handle returned by :meth:`DirectVLLMTarget.launch`."""

    def __init__(self, instance: ServingInstance):
        self.instance = instance

    def materialise(self) -> DirectVLLMTarget:
        return DirectVLLMTarget(self.instance)
