"""Streaming TTFT/ITL — gateway-observed first-token latency vs. end-to-end.

The paper's interactive WebUI traffic (Table 1) cares about time-to-first-
token and inter-token latency, but API v1 discarded the ``stream`` flag and
those metrics were only measurable inside the serving engine.  Gateway API
v2 honours ``stream=True`` end to end: every token is timed at the engine's
real iteration boundary and reaches the gateway one stream-channel hop
later.  This harness submits through ``client.submit`` and reads the
timeline only after completion, so the engine macro-steps these requests and
hands the gateway each request's token times as one batch; the gateway
stamps token *i* at production time + hop latency, exactly what a
token-by-token reader (``submit_stream``) observes on its clock.

This harness sweeps the offered request rate and reports, for the same
ShareGPT workload:

* non-streaming median end-to-end latency (the only latency API v1 exposed);
* streaming median TTFT and median ITL as observed at the gateway.

Asserted shape: at every rate the streaming TTFT is well below the full
response latency (the first token skips the decode of the remaining ~200+
output tokens and the result-retrieval hop), and ITL stays near the engine's
per-token decode time.
"""

import pytest

from _harness import (
    MODEL_8B,
    print_table,
    run_first_scenario,
    summaries_to_extra_info,
)

RATES = [1.0, 5.0, 10.0]
NUM_REQUESTS = 200


def _rate_label(rate):
    return "inf" if rate is None else f"{rate:g} req/s"


def run_sweep():
    results = {}
    for rate in RATES:
        results[("plain", rate)] = run_first_scenario(
            MODEL_8B, NUM_REQUESTS, rate,
            label=f"FIRST no-stream @ {_rate_label(rate)}",
        )
        results[("stream", rate)] = run_first_scenario(
            MODEL_8B, NUM_REQUESTS, rate,
            label=f"FIRST stream @ {_rate_label(rate)}",
            stream=True,
        )
    return results


@pytest.mark.benchmark(group="streaming-ttft")
def test_streaming_ttft_vs_latency(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    summaries = [results[(mode, rate)] for rate in RATES for mode in ("plain", "stream")]
    print_table("Streaming: gateway-observed TTFT/ITL vs end-to-end latency "
                "(Llama 3.1 8B)", summaries)
    for rate in RATES:
        s = results[("stream", rate)]
        print(f"  stream @ {_rate_label(rate):>9s}: "
              f"TTFT={s.median_ttft_s:.2f}s ITL={s.median_itl_s * 1000:.1f}ms "
              f"vs median latency {results[('plain', rate)].median_latency_s:.2f}s")
    benchmark.extra_info.update(summaries_to_extra_info(summaries))

    for rate in RATES:
        plain = results[("plain", rate)]
        stream = results[("stream", rate)]
        # Everything completed in both modes.
        assert plain.num_successful == NUM_REQUESTS
        assert stream.num_successful == NUM_REQUESTS
        # Streaming exposes TTFT/ITL through the gateway; non-streaming can't.
        assert stream.median_ttft_s is not None
        assert stream.median_itl_s is not None
        # First token arrives well before the full response: the gap covers
        # the remaining decode plus the whole result-retrieval hop (>1 s of
        # relay routing + result latency).
        assert stream.median_ttft_s < 0.85 * plain.median_latency_s
        assert plain.median_latency_s - stream.median_ttft_s > 1.0
        # ITL is on the order of the per-token decode time, far below a second.
        assert stream.median_itl_s < 0.25
        # Streaming does not change the end-to-end completion behaviour.
        assert stream.median_latency_s == pytest.approx(plain.median_latency_s, rel=0.25)

    # TTFT grows with load but stays below the saturated full-response latency.
    assert results[("stream", RATES[0])].median_ttft_s <= results[
        ("stream", RATES[-1])
    ].median_ttft_s * 1.5
