"""The gateway's authorization layer.

Validates Globus-Auth-like access tokens, enforces per-model/service
policies, and caches introspection results so that "rapid repeated
requests" don't pay the auth-service round trip or get the gateway
rate-limited by the auth service (Optimization 2, §5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..auth import GlobusAuthLikeService, TokenInfo
from ..common import AuthenticationError, AuthorizationError
from ..sim import Environment, Event

__all__ = ["CachedIntrospection", "GatewayAuthLayer"]


@dataclass
class CachedIntrospection:
    info: TokenInfo
    cached_at: float


class GatewayAuthLayer:
    """Token validation + policy enforcement with an optional cache."""

    def __init__(
        self,
        env: Environment,
        auth: GlobusAuthLikeService,
        cache_enabled: bool = True,
        cache_ttl_s: float = 600.0,
        uncached_connection_setup_s: float = 1.5,
    ):
        self.env = env
        self.auth = auth
        self.cache_enabled = cache_enabled
        self.cache_ttl_s = cache_ttl_s
        self.uncached_connection_setup_s = uncached_connection_setup_s
        self._cache: Dict[str, CachedIntrospection] = {}
        #: In-flight introspections, for single-flight coalescing: a burst of
        #: requests bearing the same (not yet cached) token triggers exactly
        #: one introspection round trip instead of hammering the auth service
        #: and tripping its rate limit.
        self._pending: Dict[str, Event] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0

    def _cached_info(self, access_token: str) -> Optional[TokenInfo]:
        cached = self._cache.get(access_token)
        if cached is None:
            return None
        now = self.env.now
        if now - cached.cached_at >= self.cache_ttl_s or not cached.info.is_valid(now):
            self._cache.pop(access_token, None)
            return None
        return cached.info

    def authenticate(self, access_token: Optional[str]):
        """Simulation process: resolve a token to a :class:`TokenInfo`.

        Cached validations are effectively free; uncached ones pay the
        introspection round trip plus the compute-endpoint connection setup
        the paper describes.  Concurrent requests with the same uncached
        token share a single introspection (single-flight).
        """
        if not access_token:
            raise AuthenticationError("Missing access token")
        if self.cache_enabled:
            info = self._cached_info(access_token)
            if info is not None:
                self.cache_hits += 1
                return info
            pending = self._pending.get(access_token)
            if pending is not None:
                # Another request is already introspecting this token: wait
                # for it and reuse the cached outcome.
                self.coalesced += 1
                yield pending
                info = self._cached_info(access_token)
                if info is not None:
                    self.cache_hits += 1
                    return info
                # The leader's introspection failed; fail the same way.
                raise AuthenticationError("Access token could not be validated")

        self.cache_misses += 1
        leader_event: Optional[Event] = None
        if self.cache_enabled:
            leader_event = self.env.event()
            self._pending[access_token] = leader_event
        try:
            info = yield from self.auth.introspect(access_token)
            if not info.is_valid(self.env.now):
                raise AuthenticationError("Access token is expired or revoked")
            # Re-establishing connections with the compute layer for a request
            # whose identity was not already warm (the pre-caching behaviour).
            if self.uncached_connection_setup_s > 0:
                yield self.env.timeout(self.uncached_connection_setup_s)
            if self.cache_enabled:
                self._cache[access_token] = CachedIntrospection(
                    info=info, cached_at=self.env.now
                )
            return info
        finally:
            if leader_event is not None:
                self._pending.pop(access_token, None)
                if not leader_event.triggered:
                    leader_event.succeed()

    def authorize(self, info: TokenInfo, resource: str) -> None:
        """Policy check for ``resource`` (raises :class:`AuthorizationError`)."""
        decision = self.auth.policies.check(info.username, resource)
        if not decision.allowed:
            raise AuthorizationError(decision.reason)
