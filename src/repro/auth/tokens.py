"""OAuth2-style access and refresh tokens.

Access tokens "are valid for 48 hours and can be automatically refreshed"
(§4.6); the gateway passes them in request headers and caches introspection
results for rapid repeated requests (§3.1.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["TokenInfo", "TokenBundle", "DEFAULT_TOKEN_LIFETIME_S"]

#: 48 hours, per §4.6 of the paper.
DEFAULT_TOKEN_LIFETIME_S = 48 * 3600.0


def _mint(seed: str) -> str:
    return hashlib.sha256(seed.encode()).hexdigest()[:40]


@dataclass
class TokenInfo:
    """Result of introspecting an access token."""

    token: str
    username: str
    scopes: List[str]
    issued_at: float
    expires_at: float
    client_id: Optional[str] = None
    active: bool = True

    def is_valid(self, now: float, required_scope: Optional[str] = None) -> bool:
        if not self.active or now >= self.expires_at:
            return False
        if required_scope is not None and required_scope not in self.scopes:
            return False
        return True

    @property
    def lifetime_s(self) -> float:
        return self.expires_at - self.issued_at


@dataclass
class TokenBundle:
    """Access + refresh token pair issued to a user."""

    access_token: str
    refresh_token: str
    username: str
    scopes: List[str]
    issued_at: float
    expires_at: float

    @property
    def expires_in_s(self) -> float:
        return self.expires_at - self.issued_at


def mint_token_pair(username: str, issued_at: float, serial: int) -> tuple:
    """Create a deterministic (access, refresh) token pair."""
    access = _mint(f"access:{username}:{issued_at}:{serial}")
    refresh = _mint(f"refresh:{username}:{issued_at}:{serial}")
    return access, refresh
