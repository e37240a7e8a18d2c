"""Tests (including property-based) for the paged KV-cache manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import KVCacheConfig, KVCacheManager


def make_manager(capacity_tokens=1600, block_size=16):
    return KVCacheManager(KVCacheConfig(capacity_tokens=capacity_tokens, block_size=block_size))


def test_config_validation():
    with pytest.raises(ValueError):
        KVCacheConfig(capacity_tokens=-1)
    with pytest.raises(ValueError):
        KVCacheConfig(capacity_tokens=100, block_size=0)


def test_blocks_for_rounds_up():
    mgr = make_manager()
    assert mgr.blocks_for(1) == 1
    assert mgr.blocks_for(16) == 1
    assert mgr.blocks_for(17) == 2
    assert mgr.blocks_for(0) == 0


def test_allocate_and_free():
    mgr = make_manager(capacity_tokens=160)  # 10 blocks
    assert mgr.total_blocks == 10
    assert mgr.allocate("a", 64)  # 4 blocks
    assert mgr.used_blocks == 4
    assert mgr.free_blocks == 6
    assert mgr._allocated == {"a": 4}
    mgr.free("a")
    assert mgr.used_blocks == 0
    assert mgr._allocated == {}


def test_allocate_fails_when_full():
    mgr = make_manager(capacity_tokens=160)
    assert mgr.allocate("a", 100)
    assert not mgr.allocate("b", 100)
    assert mgr.allocation_failures == 1


def test_duplicate_allocation_rejected():
    mgr = make_manager()
    mgr.allocate("a", 10)
    with pytest.raises(ValueError):
        mgr.allocate("a", 10)


def test_grow_within_block_is_free():
    mgr = make_manager()
    mgr.allocate("a", 10)
    used = mgr.used_blocks
    assert mgr.grow("a", 15)
    assert mgr.used_blocks == used


def test_grow_allocates_new_blocks():
    mgr = make_manager()
    mgr.allocate("a", 16)
    assert mgr.grow("a", 40)
    assert mgr.used_blocks == 3


def test_grow_unknown_sequence_raises():
    mgr = make_manager()
    with pytest.raises(KeyError):
        mgr.grow("ghost", 10)


def test_grow_fails_when_pool_exhausted():
    mgr = make_manager(capacity_tokens=64)  # 4 blocks
    mgr.allocate("a", 32)
    mgr.allocate("b", 32)
    assert not mgr.grow("a", 64)
    assert mgr.allocation_failures == 1


def test_preempt_tracks_counter():
    mgr = make_manager()
    mgr.allocate("a", 32)
    mgr.preempt("a")
    assert mgr.preemptions == 1
    assert mgr.used_blocks == 0
    # Preempting an unknown sequence is a no-op.
    mgr.preempt("ghost")
    assert mgr.preemptions == 1


def test_utilization_follows_allocation():
    mgr = make_manager(capacity_tokens=160)
    mgr.allocate("a", 80)
    assert mgr.utilization == pytest.approx(0.5)
    mgr.free("a")
    assert mgr.used_blocks == 0
    assert mgr.utilization == 0.0


def test_zero_capacity_reports_full():
    mgr = make_manager(capacity_tokens=0)
    assert mgr.utilization == 1.0
    assert not mgr.allocate("a", 1)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40),
    capacity=st.integers(min_value=160, max_value=8000),
)
def test_property_block_accounting_never_goes_negative_or_overflows(sizes, capacity):
    """Invariant: used + free == total, and used never exceeds total."""
    mgr = KVCacheManager(KVCacheConfig(capacity_tokens=capacity, block_size=16))
    allocated = []
    for i, tokens in enumerate(sizes):
        seq = f"seq-{i}"
        if mgr.allocate(seq, tokens):
            allocated.append(seq)
        assert 0 <= mgr.used_blocks <= mgr.total_blocks
        assert mgr.used_blocks + mgr.free_blocks == mgr.total_blocks
    # Free everything; the pool must return to empty.
    for seq in allocated:
        mgr.free(seq)
    assert mgr.used_blocks == 0


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "grow", "free"]),
                  st.integers(min_value=0, max_value=9),
                  st.integers(min_value=1, max_value=200)),
        min_size=1,
        max_size=60,
    )
)
def test_property_random_operation_sequences_keep_invariants(ops):
    mgr = KVCacheManager(KVCacheConfig(capacity_tokens=3200, block_size=16))
    alive = {}
    for op, idx, tokens in ops:
        seq = f"s{idx}"
        if op == "alloc" and seq not in alive:
            if mgr.allocate(seq, tokens):
                alive[seq] = tokens
        elif op == "grow" and seq in alive:
            if mgr.grow(seq, alive[seq] + tokens):
                alive[seq] += tokens
        elif op == "free" and seq in alive:
            mgr.free(seq)
            del alive[seq]
        assert mgr.used_blocks + mgr.free_blocks == mgr.total_blocks
        # Used blocks must cover at least one block per live sequence and
        # exactly match the per-sequence accounting.
        assert mgr.used_blocks >= len(alive)
        assert mgr.used_blocks == sum(mgr._allocated.values())
