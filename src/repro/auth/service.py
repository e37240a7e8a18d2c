"""The Globus-Auth-like identity and access management service.

This is the cloud service the gateway talks to: it registers identity
providers and users, issues 48-hour access tokens plus refresh tokens,
introspects tokens (with a network latency, which is what
the gateway's token cache — Optimization 2 in §5.3.1 — avoids paying per
request), refreshes tokens, and authenticates confidential clients (the
admin-owned client used by the Globus-Compute-like endpoints, §3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common import AuthenticationError, AuthorizationError, RateLimitError
from ..sim import Environment
from .identity import Identity, IdentityProvider
from .policies import PolicyEngine
from .tokens import DEFAULT_TOKEN_LIFETIME_S, TokenBundle, TokenInfo, mint_token_pair

__all__ = ["AuthServiceConfig", "ConfidentialClient", "GlobusAuthLikeService"]


@dataclass
class AuthServiceConfig:
    """Latency and policy parameters of the auth service."""

    token_lifetime_s: float = DEFAULT_TOKEN_LIFETIME_S
    #: Network round-trip for a token introspection call from the gateway.
    introspection_latency_s: float = 0.3
    #: Maximum introspection calls per second before the service rate-limits
    #: the caller (the paper notes FIRST was at risk of being "rate-limited
    #: by the Globus services" before caching was added).
    introspection_rate_limit_per_s: float = 50.0
    rate_limit_window_s: float = 1.0


@dataclass
class ConfidentialClient:
    """An admin-owned OAuth2 confidential client (client id + secret)."""

    client_id: str
    client_secret: str
    owner: str
    description: str = ""


class GlobusAuthLikeService:
    """In-simulation identity/authorization service."""

    def __init__(self, env: Environment, config: Optional[AuthServiceConfig] = None):
        self.env = env
        self.config = config or AuthServiceConfig()
        self.policies = PolicyEngine()
        self._providers: Dict[str, IdentityProvider] = {}
        self._identities: Dict[str, Identity] = {}
        self._tokens: Dict[str, TokenInfo] = {}
        self._refresh_tokens: Dict[str, str] = {}  # refresh -> username
        self._clients: Dict[str, ConfidentialClient] = {}
        self._serial = 0
        # introspection rate-limiting window
        self._window_start = 0.0
        self._window_calls = 0
        # counters
        self.introspection_calls = 0

    # -- registration ---------------------------------------------------------
    def register_provider(self, provider: IdentityProvider) -> None:
        self._providers[provider.domain] = provider

    def register_user(self, username: str, display_name: str = "") -> Identity:
        domain = username.split("@", 1)[1] if "@" in username else ""
        provider = self._providers.get(domain)
        if provider is None:
            raise AuthenticationError(
                f"No identity provider registered for domain {domain!r}"
            )
        identity = Identity(username=username, provider=provider,
                            display_name=display_name or username)
        self._identities[username] = identity
        return identity

    def register_confidential_client(self, client_id: str, client_secret: str,
                                     owner: str, description: str = "") -> ConfidentialClient:
        client = ConfidentialClient(client_id, client_secret, owner, description)
        self._clients[client_id] = client
        return client

    # -- tokens -------------------------------------------------------------------
    def issue_token(self, username: str, scopes: Optional[List[str]] = None) -> TokenBundle:
        """Issue a token bundle (the client SDK and tests call this directly)."""
        identity = self._identities.get(username)
        if identity is None or not identity.active:
            raise AuthenticationError(f"Unknown or inactive identity: {username}")
        decision = self.policies.check(username, "service")
        if not decision.allowed:
            raise AuthorizationError(decision.reason)
        scopes = scopes or ["inference:all"]
        self._serial += 1
        now = self.env.now
        access, refresh = mint_token_pair(username, now, self._serial)
        info = TokenInfo(
            token=access,
            username=username,
            scopes=list(scopes),
            issued_at=now,
            expires_at=now + self.config.token_lifetime_s,
        )
        self._tokens[access] = info
        self._refresh_tokens[refresh] = username
        return TokenBundle(
            access_token=access,
            refresh_token=refresh,
            username=username,
            scopes=list(scopes),
            issued_at=now,
            expires_at=info.expires_at,
        )

    def refresh(self, refresh_token: str, scopes: Optional[List[str]] = None) -> TokenBundle:
        """Exchange a refresh token for a fresh access token (no new login needed)."""
        username = self._refresh_tokens.get(refresh_token)
        if username is None:
            raise AuthenticationError("Invalid refresh token")
        del self._refresh_tokens[refresh_token]
        return self.issue_token(username, scopes)

    def revoke(self, access_token: str) -> None:
        info = self._tokens.get(access_token)
        if info is not None:
            info.active = False

    # -- introspection -----------------------------------------------------------
    def introspect_sync(self, access_token: str) -> TokenInfo:
        """Pure-logic introspection (no latency); used by the cached fast path."""
        info = self._tokens.get(access_token)
        if info is None:
            raise AuthenticationError("Unknown access token")
        return info

    def introspect(self, access_token: str):
        """Simulation process: introspect a token at the auth service.

        Pays the network latency and counts against the caller's rate limit.
        """
        now = self.env.now
        if now - self._window_start >= self.config.rate_limit_window_s:
            self._window_start = now
            self._window_calls = 0
        self._window_calls += 1
        self.introspection_calls += 1
        limit = self.config.introspection_rate_limit_per_s * self.config.rate_limit_window_s
        if self._window_calls > limit:
            raise RateLimitError("Auth service introspection rate limit exceeded")
        if self.config.introspection_latency_s > 0:
            yield self.env.timeout(self.config.introspection_latency_s)
        return self.introspect_sync(access_token)

    # -- confidential clients ------------------------------------------------------
    def authenticate_client(self, client_id: str, client_secret: str) -> ConfidentialClient:
        client = self._clients.get(client_id)
        if client is None or client.client_secret != client_secret:
            raise AuthenticationError("Invalid confidential client credentials")
        return client

    # -- queries ----------------------------------------------------------------------
    @property
    def registered_users(self) -> List[str]:
        return sorted(self._identities)
