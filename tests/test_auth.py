"""Tests for the Globus-Auth-like identity/authorization substrate."""

import pytest

from repro.auth import (
    AccessPolicy,
    AuthServiceConfig,
    DEFAULT_TOKEN_LIFETIME_S,
    GlobusAuthLikeService,
    IdentityProvider,
    PolicyEngine,
)
from repro.common import AuthenticationError, AuthorizationError, RateLimitError
from repro.sim import Environment


ANL = IdentityProvider("Argonne National Laboratory", "anl.gov", requires_mfa=True)
UNI = IdentityProvider("Example University", "university.edu", requires_mfa=False)


def make_service(config=None):
    env = Environment()
    svc = GlobusAuthLikeService(env, config)
    svc.register_provider(ANL)
    svc.register_provider(UNI)
    svc.register_user("alice@anl.gov", "Alice")
    svc.register_user("bob@university.edu", "Bob")
    return env, svc


# -- identities and providers -------------------------------------------------

def test_identity_provider_domain_matching():
    assert ANL.issues("alice@anl.gov")
    assert not ANL.issues("bob@university.edu")


def test_register_user_requires_known_provider():
    env = Environment()
    svc = GlobusAuthLikeService(env)
    with pytest.raises(AuthenticationError):
        svc.register_user("eve@unknown.org")


def test_identity_lookup_and_linking():
    env = Environment()
    svc = GlobusAuthLikeService(env)
    svc.register_provider(ANL)
    identity = svc.register_user("alice@anl.gov", "Alice")
    assert identity.domain == "anl.gov"
    assert svc.registered_users == ["alice@anl.gov"]
    identity.linked_usernames.append("alice@university.edu")
    assert identity.matches("alice@university.edu")
    # An inactive identity can no longer obtain tokens.
    identity.active = False
    with pytest.raises(AuthenticationError):
        svc.issue_token("alice@anl.gov")


# -- tokens -------------------------------------------------------------------

def test_issue_token_48h_lifetime():
    env, svc = make_service()
    bundle = svc.issue_token("alice@anl.gov")
    assert bundle.expires_in_s == pytest.approx(DEFAULT_TOKEN_LIFETIME_S)
    info = svc.introspect_sync(bundle.access_token)
    assert info.username == "alice@anl.gov"
    assert info.is_valid(now=env.now)
    assert info.is_valid(now=env.now, required_scope="inference:all")
    assert not info.is_valid(now=env.now, required_scope="admin:write")


def test_token_expiry():
    env, svc = make_service()
    bundle = svc.issue_token("alice@anl.gov")
    info = svc.introspect_sync(bundle.access_token)
    assert not info.is_valid(now=env.now + DEFAULT_TOKEN_LIFETIME_S + 1)


def test_issue_token_unknown_user_rejected():
    env, svc = make_service()
    with pytest.raises(AuthenticationError):
        svc.issue_token("stranger@anl.gov")


def test_refresh_token_flow():
    env, svc = make_service()
    bundle = svc.issue_token("alice@anl.gov")
    refreshed = svc.refresh(bundle.refresh_token)
    assert refreshed.username == "alice@anl.gov"
    assert refreshed.access_token != bundle.access_token
    # A refresh token is single-use.
    with pytest.raises(AuthenticationError):
        svc.refresh(bundle.refresh_token)


def test_revoke_token():
    env, svc = make_service()
    bundle = svc.issue_token("alice@anl.gov")
    svc.revoke(bundle.access_token)
    info = svc.introspect_sync(bundle.access_token)
    assert not info.is_valid(now=env.now)


def test_introspection_pays_latency_and_counts_calls():
    env, svc = make_service()
    bundle = svc.issue_token("alice@anl.gov")

    def run(env):
        info = yield from svc.introspect(bundle.access_token)
        return (env.now, info.username)

    p = env.process(run(env))
    env.run(until=p)
    assert p.value[0] == pytest.approx(0.3)
    assert svc.introspection_calls == 1


def test_introspection_unknown_token_fails():
    env, svc = make_service()

    def run(env):
        try:
            yield from svc.introspect("bogus")
        except AuthenticationError:
            return "rejected"

    p = env.process(run(env))
    env.run(until=p)
    assert p.value == "rejected"


def test_introspection_rate_limit():
    env, svc = make_service(AuthServiceConfig(introspection_rate_limit_per_s=5,
                                              introspection_latency_s=0.0))
    bundle = svc.issue_token("alice@anl.gov")

    def run(env):
        hit = 0
        for _ in range(20):
            try:
                yield from svc.introspect(bundle.access_token)
            except RateLimitError:
                hit += 1
        return hit

    p = env.process(run(env))
    env.run(until=p)
    assert p.value == 15  # first 5 pass within the 1-second window


def test_confidential_client_authentication():
    env, svc = make_service()
    svc.register_confidential_client("endpoint-client", "s3cret", owner="admins")
    client = svc.authenticate_client("endpoint-client", "s3cret")
    assert client.owner == "admins"
    with pytest.raises(AuthenticationError):
        svc.authenticate_client("endpoint-client", "wrong")
    with pytest.raises(AuthenticationError):
        svc.authenticate_client("missing", "s3cret")


# -- policies ---------------------------------------------------------------------

def test_policy_domain_restriction():
    policy = AccessPolicy("anl-only", resource="service", allowed_domains=["anl.gov"])
    assert policy.evaluate("alice@anl.gov").allowed
    decision = policy.evaluate("bob@university.edu")
    assert not decision.allowed
    assert "domain" in decision.reason


def test_policy_deny_list():
    policy = AccessPolicy("aurora", resource="model:AuroraGPT-7B",
                          denied_users=["mallory@anl.gov"])
    assert policy.evaluate("alice@anl.gov").allowed
    assert policy.evaluate("bob@university.edu").allowed
    decision = policy.evaluate("mallory@anl.gov")
    assert not decision.allowed
    assert "denied" in decision.reason


def test_policy_mfa_requirement():
    policy = AccessPolicy("high-assurance", require_mfa=True)
    assert not policy.evaluate("bob@university.edu", mfa_satisfied=False).allowed
    assert policy.evaluate("bob@university.edu", mfa_satisfied=True).allowed


def test_policy_engine_resource_scoping():
    engine = PolicyEngine()
    engine.add_policy(AccessPolicy("service-wide", resource="service",
                                   allowed_domains=["anl.gov", "university.edu"]))
    engine.add_policy(AccessPolicy("model-lock", resource="model:secret-model",
                                   allowed_domains=["anl.gov"]))
    # Service-wide policy applies to everything.
    assert engine.check("alice@anl.gov", "model:secret-model").allowed
    assert not engine.check("bob@university.edu", "model:secret-model").allowed
    assert engine.check("bob@university.edu", "model:open-model").allowed
    assert not engine.check("eve@evil.org", "model:open-model").allowed
    assert len(engine.policies) == 2


def test_auth_service_enforces_service_policy_on_login():
    env, svc = make_service()
    svc.policies.add_policy(AccessPolicy("anl-only", allowed_domains=["anl.gov"]))
    svc.issue_token("alice@anl.gov")
    with pytest.raises(AuthorizationError):
        svc.issue_token("bob@university.edu")
