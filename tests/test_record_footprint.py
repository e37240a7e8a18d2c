"""Per-request records are slotted, round-trip, and stay small.

A simulated day of FIRST traffic keeps one request, one result and one
client record per request, so their size bounds how long a run fits in
memory.  Records also cross process boundaries (sweep and partition
workers), so slotting them must not break pickling.
"""

import dataclasses
import gc
import pickle
import tracemalloc
from array import array

import pytest

from repro.cluster import A100_40GB, dgx_a100_spec
from repro.faas import TaskFuture, TaskRecord, TaskStatus
from repro.gateway import RequestContext, RequestLogEntry
from repro.metrics import RequestRecord
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    InferenceRequest,
    InferenceResult,
    PerformanceModel,
    default_catalog,
)
from repro.sim import Environment, Resource
from repro.workload import PoissonArrival, ShareGPTConfig, ShareGPTWorkload

MODEL_70B = "meta-llama/Llama-3.3-70B-Instruct"


def _request(**overrides):
    fields = dict(request_id="r-1", model=MODEL_70B, prompt_tokens=12,
                  max_output_tokens=34, user="u@anl.gov", prompt_text="hi",
                  stream=True, arrival_time=1.5, metadata={"k": 1})
    fields.update(overrides)
    return InferenceRequest(**fields)


RECORDS = {
    "InferenceRequest": _request,
    "InferenceResult": lambda: InferenceResult(
        request_id="r-1", model=MODEL_70B, prompt_tokens=12, output_tokens=34,
        text="ok", arrival_time=1.5, engine_enqueue_time=1.6,
        prefill_start_time=1.7, first_token_time=1.8, completion_time=3.0,
        instance_id="i-1", cluster="sophia",
        metadata={"gateway_token_times": array("d", [1.8, 1.9])}),
    "RequestRecord": lambda: RequestRecord(
        request_id="r-1", model=MODEL_70B, send_time=1.0, completion_time=3.0,
        prompt_tokens=12, output_tokens=34, success=True, first_token_time=1.8,
        token_times=array("d", [1.8, 1.9])),
    "TaskRecord": lambda: TaskRecord(
        task_id="t-1", function_id="f-1", endpoint_id="ep-1",
        payload={"model": MODEL_70B}, submitter="u@anl.gov",
        status=TaskStatus.COMPLETED, submit_time=1.0, dispatch_time=1.1,
        start_time=1.2, completion_time=3.0, result={"ok": True}),
    "RequestLogEntry": lambda: RequestLogEntry(
        request_id="r-1", user="u@anl.gov", model=MODEL_70B, endpoint="ep-1",
        kind="chat.completion", submitted_at=1.0, completed_at=3.0,
        prompt_tokens=12, output_tokens=34, status="success"),
    "RequestContext": lambda: RequestContext(
        access_token="tok", request=_request(), started_at=1.0,
        model_name=MODEL_70B, gateway_token_times=array("d", [1.8]),
        trace=["validation", "auth"]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_slotted_and_round_trips(name):
    record = RECORDS[name]()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert pickle.loads(pickle.dumps(record)) == record
    first = dataclasses.fields(record)[0].name
    copy = dataclasses.replace(record, **{first: "other"})
    assert getattr(copy, first) == "other"
    assert dataclasses.replace(copy, **{first: getattr(record, first)}) == record


def test_transient_kernel_and_relay_objects_are_slotted():
    # Neither crosses a process boundary (each holds an event bound to the
    # environment), so only the layout is checked.
    env = Environment()
    future = TaskFuture(env, RECORDS["TaskRecord"]())
    request = Resource(env).request()
    for obj in (future, request):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.undeclared = 1
    assert request.resource.release(request) is None


def test_engine_run_retains_bounded_bytes_per_request():
    """Requests plus result events of an engine-only run stay under a byte budget.

    2,000 ShareGPT requests at 8 req/s through one continuous-batching
    engine; tracemalloc counts what is still allocated once the run ends:
    the request list, the completion events and their results.  They
    measure ~770 B per request; the budget leaves ~20 % headroom, and a
    ``__dict__`` or a dict per request breaks it.
    """
    n = 2000
    model = default_catalog().get(MODEL_70B)
    env = Environment()
    engine = ContinuousBatchingEngine(
        env, PerformanceModel(model, 8, A100_40GB, node_spec=dgx_a100_spec()),
        EngineConfig(generate_text=False))
    offsets = PoissonArrival(8.0, seed=1).offsets(n)
    events = []

    def drive(requests):
        last = 0.0
        for request, offset in zip(requests, offsets):
            if offset > last:
                yield env.timeout(offset - last)
                last = offset
            events.append(engine.submit(request))

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        requests = ShareGPTWorkload(dataclasses.replace(ShareGPTConfig(), seed=0)).generate(
            model.name, num_requests=n)
        env.process(drive(requests))
        env.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(events) == n and all(event.value.success for event in events)
    assert retained / n <= 950
