"""Identities and identity providers.

Globus Auth lets "users login from different institutions across the world
with multi-factor authentication" (§3.1.2).  The reproduction models the
pieces the gateway depends on: institutional identity providers, user
identities, and linked identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["IdentityProvider", "Identity"]


@dataclass(frozen=True)
class IdentityProvider:
    """An institutional identity provider (e.g. a university SSO)."""

    name: str
    domain: str
    requires_mfa: bool = True

    def issues(self, username: str) -> bool:
        """Whether ``username`` belongs to this provider's domain."""
        return username.endswith("@" + self.domain)


@dataclass
class Identity:
    """A user identity as seen by the auth service."""

    username: str
    provider: IdentityProvider
    display_name: str = ""
    #: Additional usernames linked to this identity (Globus identity linking).
    linked_usernames: List[str] = field(default_factory=list)
    active: bool = True

    @property
    def identity_id(self) -> str:
        return f"identity:{self.username}"

    @property
    def domain(self) -> str:
        return self.username.split("@", 1)[1] if "@" in self.username else ""

    def matches(self, username: str) -> bool:
        return username == self.username or username in self.linked_usernames
