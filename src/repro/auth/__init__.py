"""Globus-Auth-like identity and access management substrate.

Provides identity providers, user identities, OAuth2-style access/refresh
tokens (48-hour lifetime), token introspection with realistic latency and
rate limits, declarative access policies, and admin-owned confidential
clients — everything the Inference Gateway's authorization layer (§3.1.2)
and the compute endpoints (§3.2.3) depend on.
"""

from .identity import Identity, IdentityProvider
from .policies import AccessPolicy, PolicyDecision, PolicyEngine
from .service import AuthServiceConfig, ConfidentialClient, GlobusAuthLikeService
from .tokens import DEFAULT_TOKEN_LIFETIME_S, TokenBundle, TokenInfo

__all__ = [
    "Identity",
    "IdentityProvider",
    "TokenInfo",
    "TokenBundle",
    "DEFAULT_TOKEN_LIFETIME_S",
    "AccessPolicy",
    "PolicyDecision",
    "PolicyEngine",
    "GlobusAuthLikeService",
    "AuthServiceConfig",
    "ConfidentialClient",
]
