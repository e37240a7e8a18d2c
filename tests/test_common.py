"""Unit tests for shared utilities (errors, ids, randomness)."""

import numpy as np
import pytest

from repro.common import (
    AuthenticationError,
    CapacityError,
    IdGenerator,
    RandomSource,
    RateLimitError,
    ReproError,
    ValidationError,
    short_uuid,
)


def test_error_hierarchy_and_status_codes():
    assert issubclass(AuthenticationError, ReproError)
    assert AuthenticationError.status_code == 401
    assert ValidationError.status_code == 422
    assert RateLimitError.status_code == 429
    assert CapacityError.status_code == 503


def test_id_generator_is_deterministic_and_prefixed():
    gen = IdGenerator()
    assert gen.next("task") == "task-000000"
    assert gen.next("task") == "task-000001"
    assert gen.next("job") == "job-000000"
    assert gen.peek_count("task") == 2
    assert gen.peek_count("missing") == 0


def test_short_uuid_length_and_uniqueness():
    a, b = short_uuid(), short_uuid()
    assert len(a) == 12
    assert a != b


def test_random_source_reproducible():
    a = RandomSource(seed=123)
    b = RandomSource(seed=123)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    assert [a.exponential(1.0) for _ in range(3)] == [b.exponential(1.0) for _ in range(3)]


def test_lognormal_targets_arithmetic_mean():
    rs = RandomSource(seed=0)
    draws = [rs.lognormal(200.0, 0.5) for _ in range(20000)]
    assert abs(np.mean(draws) - 200.0) / 200.0 < 0.05


def test_exponential_mean_validation():
    rs = RandomSource(seed=0)
    with pytest.raises(ValueError):
        rs.exponential(0.0)
    with pytest.raises(ValueError):
        rs.lognormal(-1.0, 0.5)


def test_choice_returns_member():
    rs = RandomSource(seed=0)
    options = ["a", "b", "c"]
    for _ in range(20):
        assert rs.choice(options) in options
