"""Bulk request-set and Poisson-offset draws equal the scalar stream.

``ShareGPTWorkload.generate`` and ``PoissonArrival.offsets`` draw with one
``size=`` call per block instead of one scalar call per value.  The scalar
loops they replaced are kept here as the oracle: every id, text, token count
and offset must equal theirs element for element, and must be a Python
``int`` / ``float`` — a numpy scalar reaching the kernel would slow every
heap comparison and change ``repr``-based fingerprints.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RandomSource
from repro.common.randomness import DRAW_BLOCK
from repro.workload import (
    BATCH_GENERATION_CONFIG,
    PoissonArrival,
    ShareGPTConfig,
    ShareGPTWorkload,
)
from repro.workload.sharegpt import _TOPICS

CONFIGS = {"chat": ShareGPTConfig(), "batch": BATCH_GENERATION_CONFIG}
SEEDS = (0, 1, 20240714)
SIZES = (1, 2, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 10_000)


def scalar_requests(cfg, n, prefix="sharegpt"):
    """The per-request loop ``generate`` ran before it drew in bulk."""
    rng = RandomSource(seed=cfg.seed)
    out = []
    for i in range(n):
        prompt = int(min(cfg.max_prompt_tokens,
                         max(cfg.min_prompt_tokens,
                             rng.lognormal(cfg.mean_prompt_tokens, cfg.prompt_sigma))))
        output = int(min(cfg.max_output_tokens,
                         max(cfg.min_output_tokens,
                             rng.lognormal(cfg.mean_output_tokens, cfg.output_sigma))))
        topic = _TOPICS[i % len(_TOPICS)]
        out.append((f"{prefix}-{i:06d}", prompt, output,
                    f"[conversation {i}] Please help with {topic}."))
    return out


def scalar_offsets(rate, seed, n):
    """The running-sum loop ``PoissonArrival.offsets`` ran before."""
    rng = RandomSource(seed=seed)
    t = 0.0
    out = []
    for _ in range(n):
        out.append(t)
        t += rng.exponential(1.0 / rate)
    return out


@pytest.fixture(scope="module")
def oracle():
    """Scalar request sets at the largest size; smaller sizes are prefixes."""
    return {(name, seed): scalar_requests(replace(cfg, seed=seed), max(SIZES))
            for name, cfg in CONFIGS.items() for seed in SEEDS}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_equals_scalar_stream(oracle, name, seed, size):
    cfg = replace(CONFIGS[name], seed=seed)
    requests = ShareGPTWorkload(cfg).generate("m", num_requests=size)
    got = [(r.request_id, r.prompt_tokens, r.max_output_tokens, r.prompt_text)
           for r in requests]
    assert got == oracle[(name, seed)][:size]
    for r in requests:
        assert type(r.prompt_tokens) is int and type(r.max_output_tokens) is int


@pytest.fixture(scope="module")
def offset_oracle():
    return {seed: scalar_offsets(8.0, seed, max(SIZES)) for seed in SEEDS}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_poisson_offsets_equal_scalar_stream(offset_oracle, seed, size):
    offsets = PoissonArrival(8.0, seed=seed).offsets(size)
    assert offsets == offset_oracle[seed][:size]
    assert all(type(t) is float for t in offsets)


def test_zero_and_negative_counts():
    workload = ShareGPTWorkload()
    assert workload.generate("m", num_requests=0) == []
    assert len(workload.generate("m")) == workload.config.num_requests
    with pytest.raises(ValueError):
        workload.generate("m", num_requests=-1)
    assert PoissonArrival(2.0).offsets(0) == []
    assert PoissonArrival(2.0).offsets(-3) == []


finite = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 300),
       means=st.lists(finite, min_size=1, max_size=3),
       sigma=st.floats(min_value=0.0, max_value=2.0))
def test_bulk_lognormal_equals_scalar_calls(seed, k, means, sigma):
    bulk = RandomSource(seed).lognormal(means, sigma, size=(k, len(means))).ravel().tolist()
    scalar = RandomSource(seed)
    assert bulk == [scalar.lognormal(means[j % len(means)], sigma)
                    for j in range(k * len(means))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 300), mean=finite)
def test_bulk_exponential_equals_scalar_calls(seed, k, mean):
    bulk = RandomSource(seed).exponential(mean, size=k).tolist()
    scalar = RandomSource(seed)
    assert bulk == [scalar.exponential(mean) for _ in range(k)]


def test_bulk_draws_validate_means():
    rs = RandomSource(0)
    with pytest.raises(ValueError):
        rs.exponential(0.0, size=3)
    with pytest.raises(ValueError):
        rs.lognormal((1.0, -1.0), 0.5, size=(3, 2))
