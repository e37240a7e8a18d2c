"""Perfetto / Chrome trace-event JSON export for recorded traces.

Converts a :class:`~repro.obs.trace.TraceContext` (or its ``to_dict()``
form) into the Chrome trace-event format that both ``chrome://tracing``
and https://ui.perfetto.dev load directly.  Timestamps are **simulated**
microseconds (sim seconds × 1e6) — the timeline you see is the simulated
request, not wall clock.  Each layer (gateway / relay / endpoint / engine)
is rendered as its own process row so the request's hop across layers
reads left-to-right, top-to-bottom.
"""

from __future__ import annotations

from typing import Dict, List, Union

__all__ = ["to_chrome_trace"]

#: Stable row order for the known layers; unknown layers follow after.
_LAYER_ORDER = ("gateway", "relay", "endpoint", "engine")


def _layer_pid(layer: str, pids: Dict[str, int]) -> int:
    if layer not in pids:
        pids[layer] = len(pids) + 1
    return pids[layer]


def to_chrome_trace(trace: Union[dict, object]) -> dict:
    """Render a trace as a Chrome trace-event JSON object.

    Accepts a ``TraceContext`` or its ``to_dict()`` output.  Complete spans
    become ``ph:"X"`` duration events; span events become ``ph:"i"``
    instants; per-layer ``process_name`` metadata labels the rows.
    """
    data = trace if isinstance(trace, dict) else trace.to_dict()
    pids: Dict[str, int] = {layer: i + 1 for i, layer in enumerate(_LAYER_ORDER)}
    events: List[dict] = []
    used_layers = set()

    for span in data["spans"]:
        layer = span["layer"] or "other"
        pid = _layer_pid(layer, pids)
        used_layers.add(layer)
        start_us = span["start"] * 1e6
        end = span["end"] if span["end"] is not None else span["start"]
        events.append({
            "name": span["name"],
            "cat": layer,
            "ph": "X",
            "ts": start_us,
            "dur": max(0.0, end * 1e6 - start_us),
            "pid": pid,
            "tid": 1,
            "args": {"span_id": span["span_id"],
                     "parent_id": span["parent_id"],
                     "status": span["status"],
                     **span["attrs"]},
        })
        for event in span["events"]:
            events.append({
                "name": event["name"],
                "cat": layer,
                "ph": "i",
                "s": "p",  # process-scoped instant marker
                "ts": event["time"] * 1e6,
                "pid": pid,
                "tid": 1,
                "args": dict(event["attrs"]),
            })

    for layer, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        if layer in used_layers:
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": layer},
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": data["trace_id"],
            "simulated_duration_s": data["duration_s"],
            "clock": "simulated",
        },
    }

