"""Function registry for the Globus-Compute-like layer.

"Only functions that are pre-registered by the administrators are permitted
to be executed on an endpoint, preventing execution of malicious code"
(§3.2.2).  A registered function is identified by a function id; each
endpoint declares which handler implements it (e.g. interactive inference,
embedding, offline batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..common import AuthorizationError, NotFoundError

__all__ = [
    "HANDLER_CHAT",
    "HANDLER_EMBEDDING",
    "HANDLER_BATCH",
    "RegisteredFunction",
    "FunctionRegistry",
]

#: Built-in handler names understood by compute endpoints.
HANDLER_CHAT = "inference.chat"
HANDLER_EMBEDDING = "inference.embedding"
HANDLER_BATCH = "inference.batch"


@dataclass(frozen=True)
class RegisteredFunction:
    """A function registered with the FaaS service by an administrator."""

    function_id: str
    name: str
    handler: str
    owner: str
    description: str = ""


class FunctionRegistry:
    """Cloud-side registry of admin-registered functions."""

    def __init__(self):
        self._functions: Dict[str, RegisteredFunction] = {}

    def register(
        self,
        function_id: str,
        name: str,
        handler: str,
        owner: str,
        description: str = "",
    ) -> RegisteredFunction:
        if function_id in self._functions:
            raise ValueError(f"Function {function_id} already registered")
        fn = RegisteredFunction(function_id, name, handler, owner, description)
        self._functions[function_id] = fn
        return fn

    def get(self, function_id: str) -> RegisteredFunction:
        try:
            return self._functions[function_id]
        except KeyError:
            raise NotFoundError(f"Unknown function id: {function_id}") from None

    def is_registered(self, function_id: str) -> bool:
        return function_id in self._functions

    def require_registered(self, function_id: str) -> RegisteredFunction:
        """Raise :class:`AuthorizationError` if the function is not pre-registered."""
        if not self.is_registered(function_id):
            raise AuthorizationError(
                f"Function {function_id} is not pre-registered by an administrator"
            )
        return self._functions[function_id]

    @property
    def function_ids(self) -> List[str]:
        return sorted(self._functions)
