"""The kernel's one event queue: a binary heap inside :class:`Environment`.

The contract is a strict total order over ``(time, priority, eid)`` — ``eid``
is the environment's insertion counter, so no two entries compare equal.
These tests pin it three ways:

* unit tests of the edges (empty queue, same-time ties, ``inf`` and
  extreme-magnitude times, the ``queue=`` argument that now names one value);
* a hypothesis law: under random interleavings of scheduling and stepping —
  same-time ties, far-future outliers, mid-run insertions — every step
  processes exactly the entry ``sorted()`` puts first;
* a golden trace: a mixed kernel workload must match a committed literal, so
  the ordering semantics themselves cannot drift.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EmptySchedule, Environment, Interrupt, Resource

INF = float("inf")


def _schedule_labelled(env, time, priority, label, fired):
    """Schedule a pre-triggered event at ``time`` that logs ``(now, label)``."""
    event = env.event()
    event._ok = True
    event._value = label
    event.callbacks.append(lambda ev: fired.append((env.now, ev._value)))
    env.schedule_at(event, time, priority)


# ---------------------------------------------------------------------------
# contract unit tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["calendar", "packed", "auto", "fibonacci"])
def test_unknown_queue_name_raises_value_error(name):
    with pytest.raises(ValueError):
        Environment(queue=name)
    assert Environment(queue="heap").queue_size == 0  # the one legal value


def test_empty_queue_step_raises_and_peek_is_inf():
    env = Environment()
    assert env.queue_size == 0
    assert env.peek() == INF
    with pytest.raises(EmptySchedule):
        env.step()
    env.run()  # an empty run returns at once
    assert env.now == 0.0


def test_same_time_ties_break_on_priority_then_eid():
    env = Environment()
    fired = []
    _schedule_labelled(env, 1.0, 1, "n-early", fired)
    _schedule_labelled(env, 1.0, 0, "u-early", fired)
    _schedule_labelled(env, 1.0, 1, "n-late", fired)
    _schedule_labelled(env, 1.0, 0, "u-late", fired)
    for _ in range(4):
        env.step()
    assert fired == [(1.0, "u-early"), (1.0, "u-late"), (1.0, "n-early"), (1.0, "n-late")]
    assert env.queue_size == 0


def test_infinite_times_are_ordered_last():
    """Nothing can fire after ``inf``: later finite pushes still pop first,
    and ``inf`` ties break on priority then eid like any other tie."""
    env = Environment()
    fired = []
    _schedule_labelled(env, INF, 1, "inf-a", fired)
    _schedule_labelled(env, INF, 1, "inf-b", fired)
    assert env.peek() == INF and env.queue_size == 2
    _schedule_labelled(env, 3.0, 1, "finite", fired)
    # A higher-priority inf tie arriving *after* the peek must still outrank
    # the older NORMAL-priority inf entries.
    _schedule_labelled(env, INF, 0, "inf-urgent", fired)
    assert env.peek() == 3.0
    env.run()
    assert fired == [(3.0, "finite"), (INF, "inf-urgent"), (INF, "inf-a"), (INF, "inf-b")]
    with pytest.raises(EmptySchedule):
        env.step()


def test_extreme_magnitude_times_terminate():
    """At 1e18 one second is far below an ulp of the event time; ties there
    still order and the run still ends at exactly that time."""
    env = Environment()
    fired = []
    _schedule_labelled(env, 1e18, 1, "huge", fired)
    _schedule_labelled(env, 1e18, 0, "huge-urgent", fired)

    def proc(env):
        yield env.timeout_at(1e18)
        fired.append((env.now, "proc"))

    env.process(proc(env))
    assert env.run_until_horizon(1e18) == 1e18  # exclusive: nothing at 1e18 ran
    assert fired == []
    env.run()
    assert fired == [(1e18, "huge-urgent"), (1e18, "huge"), (1e18, "proc")]


# ---------------------------------------------------------------------------
# hypothesis: every step processes what sorted() puts first
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_steps_pop_in_sorted_order(data):
    env = Environment()
    fired = []
    reference = []  # (time, priority, eid, label) of everything still pending
    n_ops = data.draw(st.integers(min_value=1, max_value=120), label="n_ops")
    for eid in range(n_ops):
        if reference and data.draw(st.booleans(), label="pop?"):
            reference.sort()
            time, _priority, _eid, label = reference.pop(0)
            assert env.peek() == time
            env.step()
            assert fired[-1] == (time, label)
        else:
            # Mid-run insertion at or after `now` — ties (dt=0), clustered
            # near-term deltas, far-future outliers and extreme magnitudes.
            dt = data.draw(
                st.one_of(
                    st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.7]),
                    st.floats(min_value=0.0, max_value=1e7,
                              allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e12, 1e16, 1e18, INF]),
                ),
                label="dt",
            )
            priority = data.draw(st.sampled_from([0, 1]), label="priority")
            _schedule_labelled(env, env.now + dt, priority, eid, fired)
            # eids are issued in scheduling order, so the loop index sorts
            # exactly as the kernel's own counter does.
            reference.append((env.now + dt, priority, eid, eid))
    assert env.queue_size == len(reference)
    # Drain the rest: labels are unique, so the fired list pins the full
    # (time, priority, eid) order of everything still pending.
    del fired[:]
    env.run()
    assert fired == [(t, label) for t, _p, _eid, label in sorted(reference)]


# ---------------------------------------------------------------------------
# golden trace
# ---------------------------------------------------------------------------

def _run_mixed_workload():
    """A deterministic kernel workload touching ties, interrupts, absolute
    timeouts, resource contention and a far-future timer."""
    env = Environment()
    trace = []
    resource = Resource(env, capacity=1)

    def worker(name, delays):
        for delay in delays:
            yield env.timeout(delay)
            trace.append((env.now, name))

    def absolute(name, times):
        for time in times:
            yield env.timeout_at(time)
            trace.append((env.now, name))

    def victim():
        try:
            yield env.timeout(50.0)
        except Interrupt as interrupt:
            trace.append((env.now, f"interrupted:{interrupt.cause}"))
        yield env.timeout(0.25)
        trace.append((env.now, "victim-resumed"))

    def interrupter(proc):
        yield env.timeout(3.3)
        proc.interrupt("halt")

    def contender(name, start, hold):
        yield env.timeout(start)
        request = resource.request()
        yield request
        trace.append((env.now, f"{name}-acquired"))
        yield env.timeout(hold)
        resource.release(request)
        trace.append((env.now, f"{name}-released"))

    def far_future():
        yield env.timeout(1e6)
        trace.append((env.now, "far-future"))

    env.process(worker("tick-a", [1.0, 1.0, 1.0]))
    env.process(worker("tick-b", [1.0, 1.0, 1.0]))  # ties with tick-a
    env.process(absolute("abs", [0.5, 2.0, 2.5]))
    v = env.process(victim())
    env.process(interrupter(v))
    env.process(contender("held", 0.2, 4.0))
    env.process(contender("blocked", 0.4, 1.0))
    env.process(far_future())
    env.run()
    return trace


#: Committed expectation for the mixed workload — pins tie-breaking and
#: interrupt ordering semantics.
GOLDEN_TRACE = [
    (0.2, "held-acquired"),
    (0.5, "abs"),
    (1.0, "tick-a"),
    (1.0, "tick-b"),
    # abs's timeout_at(2.0) was scheduled at t=0.5, before the ticks'
    # second timeouts (scheduled at t=1.0), so insertion order puts it first.
    (2.0, "abs"),
    (2.0, "tick-a"),
    (2.0, "tick-b"),
    (2.5, "abs"),
    (3.0, "tick-a"),
    (3.0, "tick-b"),
    (3.3, "interrupted:halt"),
    (3.55, "victim-resumed"),
    (4.2, "held-released"),
    (4.2, "blocked-acquired"),
    (5.2, "blocked-released"),
    (1e6, "far-future"),
]


def test_golden_trace_of_mixed_kernel_workload():
    assert _run_mixed_workload() == GOLDEN_TRACE
