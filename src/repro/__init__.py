"""repro — reproduction of FIRST (Federated Inference Resource Scheduling Toolkit).

The package is organised as a set of substrates (``sim``, ``cluster``,
``serving``, ``faas``, ``auth``) with the paper's contribution layered on top
(``gateway``, ``placement``, ``core``) plus the workload/metrics/baseline
machinery needed to regenerate every figure and table in the paper's
evaluation (``workload``, ``metrics``, ``baselines``, ``webui``, ``rag``).

The gateway speaks **API v2**: a composable middleware pipeline
(Validation → Auth → RateLimit → ResponseCache → Accounting → Routing →
Dispatch) over a typed request context, typed error envelopes on every
OpenAI-style endpoint, and end-to-end streaming with gateway-observed
TTFT/ITL — see :mod:`repro.gateway` for the stage diagram.

Most users should start from :mod:`repro.core`:

>>> from repro.core import FIRSTDeployment
>>> deployment = FIRSTDeployment.quickstart()
>>> client = deployment.client(user="alice@university.edu")
>>> response = client.chat_completion(
...     "Qwen/Qwen2.5-7B-Instruct",
...     [{"role": "user", "content": "Hello"}],
... )

Streaming responses arrive as OpenAI-style ``chat.completion.chunk`` dicts:

>>> for chunk in client.chat_completion(
...     "Qwen/Qwen2.5-7B-Instruct",
...     [{"role": "user", "content": "Hello"}],
...     stream=True,
... ):
...     print(chunk["choices"][0]["delta"].get("content", ""), end="")
"""

from . import (
    auth,
    baselines,
    cluster,
    common,
    core,
    faas,
    gateway,
    metrics,
    placement,
    rag,
    serving,
    sim,
    webui,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "sim",
    "common",
    "cluster",
    "serving",
    "faas",
    "auth",
    "gateway",
    "placement",
    "workload",
    "metrics",
    "baselines",
    "webui",
    "rag",
    "core",
]
