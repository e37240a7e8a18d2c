"""Tests for the baselines, the WebUI layer and the RAG pipeline."""

import numpy as np
import pytest

from repro.baselines import DirectVLLMTarget, OpenAIAPIConfig, OpenAIAPITarget
from repro.cluster import Node, dgx_a100_spec
from repro.common import ValidationError
from repro.core import (
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
)
from repro.rag import (
    FlatIndex,
    RAGPipeline,
    chunk_corpus,
    chunk_document,
    hpc_documentation_corpus,
)
from repro.serving import InferenceRequest, default_catalog
from repro.sim import Environment
from repro.webui import SessionStore, WebUIConcurrencyBenchmark, WebUIServer
from repro.workload import BenchmarkClient, PoissonArrival, ShareGPTWorkload

CATALOG = default_catalog()
MODEL_7B = "Qwen/Qwen2.5-7B-Instruct"
MODEL_8B = "meta-llama/Llama-3.1-8B-Instruct"


# -- Direct vLLM baseline ---------------------------------------------------------------

def test_direct_target_requires_ready_instance_and_serves():
    env = Environment()
    node = Node("n0", dgx_a100_spec())
    spec = CATALOG.get(MODEL_8B)
    pending, ready = DirectVLLMTarget.launch(env, spec, [node])
    with pytest.raises(RuntimeError):
        DirectVLLMTarget(pending.instance)  # not ready yet
    env.run(until=ready)
    target = pending.materialise()
    ev = target.submit(InferenceRequest("d-0", spec.name, prompt_tokens=100,
                                        max_output_tokens=50))
    env.run(until=ev)
    assert ev.value.success


# -- OpenAI API baseline --------------------------------------------------------------------

def test_openai_target_latency_and_rate_limit():
    env = Environment()
    target = OpenAIAPITarget(env, OpenAIAPIConfig(rate_limit_rps=5.0, median_latency_s=2.0))
    workload = ShareGPTWorkload().generate("gpt-4o-mini", num_requests=100)
    client = BenchmarkClient(env, target, label="OpenAI API")
    proc = env.process(client.run(workload, arrival=PoissonArrival(rate=4.5, seed=2)))
    summary = env.run(until=proc)
    # Below the rate limit, latency stays near the 2 s service time...
    assert 1.5 <= summary.median_latency_s <= 3.5
    # ...and throughput tracks the offered rate, far below FIRST's capability.
    assert 3.0 <= summary.request_throughput <= 5.5
    assert target.completed == 100


def test_openai_target_throttles_infinite_burst():
    env = Environment()
    target = OpenAIAPITarget(env, OpenAIAPIConfig(rate_limit_rps=6.7))
    events = [
        target.submit(InferenceRequest(f"o-{i}", "gpt-4o-mini", prompt_tokens=50,
                                       max_output_tokens=100))
        for i in range(200)
    ]
    env.run(until=env.all_of(events))
    duration = env.now
    assert 200 / duration == pytest.approx(6.7, rel=0.15)
    assert target.rate_limited_waits > 0


# -- WebUI -------------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def webui_deployment():
    config = DeploymentConfig(
        clusters=[
            ClusterDeploymentSpec(
                name="devcluster", kind="small", num_nodes=2, scheduler="local",
                models=[ModelHostingConfig(MODEL_7B, max_parallel_tasks=64)],
            )
        ],
        users=["researcher@anl.gov", "benchmark@anl.gov"],
        generate_text=True,
    )
    deployment = FIRSTDeployment(config)
    deployment.warm_up(MODEL_7B)
    return deployment


def test_session_store_and_history_growth():
    store = SessionStore()
    session = store.create("s-1", user="alice@anl.gov", model=MODEL_7B)
    base = session.history_tokens
    session.add_user_message("How do I submit a PBS job?")
    session.add_assistant_message("Use qsub with a job script.", tokens=20)
    session.add_user_message("And job arrays?")
    assert session.turns == 2
    assert session.history_tokens > base + 20
    assert store.sessions_for("alice@anl.gov") == [session]
    with pytest.raises(ValueError):
        store.create("s-1", user="alice@anl.gov", model=MODEL_7B)
    with pytest.raises(KeyError):
        store.get("missing")


def test_webui_chat_turn_and_model_listing(webui_deployment):
    webui = WebUIServer(webui_deployment)
    assert MODEL_7B in webui.available_models()
    session = webui.new_session("researcher@anl.gov", MODEL_7B)
    reply = webui.chat_turn_blocking(session.session_id, "Explain the debug queue limits",
                                     output_tokens=40)
    assert isinstance(reply, str) and len(reply) > 0
    assert session.turns == 1
    # History now includes the assistant reply, so the next turn's prompt is longer.
    first_prompt_tokens = session.history_tokens
    webui.chat_turn_blocking(session.session_id, "thanks, more detail please", output_tokens=40)
    assert session.history_tokens > first_prompt_tokens
    assert webui.turns_served == 2


def test_webui_rejects_unknown_model(webui_deployment):
    webui = WebUIServer(webui_deployment)
    with pytest.raises(ValidationError):
        webui.new_session("researcher@anl.gov", "not-a-model")


def test_webui_compare_multiple_models(webui_deployment):
    webui = WebUIServer(webui_deployment)
    answers = webui.compare("researcher@anl.gov", [MODEL_7B], "Compare storage tiers")
    assert set(answers) == {MODEL_7B}


def test_webui_concurrency_benchmark_scales(webui_deployment):
    webui = WebUIServer(webui_deployment)
    bench = WebUIConcurrencyBenchmark(webui, user="benchmark@anl.gov")
    low = bench.run(MODEL_7B, concurrency=8, duration_s=60.0)
    high = bench.run(MODEL_7B, concurrency=32, duration_s=60.0)
    assert high.completed_requests > low.completed_requests
    assert high.token_throughput > low.token_throughput
    assert "TP/s" in high.row()
    assert high.to_dict()["concurrency"] == 32


# -- RAG ------------------------------------------------------------------------------------------

def test_chunker_produces_bounded_chunks():
    corpus = hpc_documentation_corpus()
    chunks = chunk_document(corpus[0], max_tokens=32)
    assert len(chunks) >= 2
    assert all(c.tokens <= 40 for c in chunks)
    assert all(c.doc_id == corpus[0].doc_id for c in chunks)
    with pytest.raises(ValueError):
        chunk_document(corpus[0], max_tokens=0)
    all_chunks = chunk_corpus(corpus)
    assert len(all_chunks) >= len(corpus)


def test_flat_index_exact_search():
    index = FlatIndex(dim=16)
    vectors = np.eye(16)[:5]
    index.add(vectors, metadata=list("abcde"))
    hits = index.search(np.eye(16)[2], k=2)
    assert hits[0].metadata == "c"
    assert hits[0].score == pytest.approx(1.0)
    assert len(index) == 5
    with pytest.raises(ValueError):
        index.add(np.eye(8)[:1], ["bad-dim"])
    with pytest.raises(ValueError):
        index.add(np.eye(16)[:2], ["only-one-meta"])


def test_rag_pipeline_local_embeddings_retrieves_relevant_docs():
    pipeline = RAGPipeline(client=None, local_embeddings=True, top_k=3)
    n = pipeline.ingest()
    assert n > 10
    answer = pipeline.answer("How do I submit a job with qsub and check the queue?")
    assert any("PBS" in s or "job" in s.lower() for s in answer.sources)
    hits = pipeline.retrieve("How large is the local SSD scratch on each node?")
    assert any(h.metadata.doc_id == "storage" for h in hits)


def test_rag_pipeline_with_first_service(webui_deployment):
    # Reuse the warm deployment; add the embedding model host on the fly is not
    # possible, so use local embeddings but the real chat endpoint.
    client = webui_deployment.client("researcher@anl.gov")
    pipeline = RAGPipeline(client=client, chat_model=MODEL_7B, local_embeddings=True, top_k=2)
    pipeline.ingest()
    answer = pipeline.answer("What is the walltime limit of the debug queue?", max_tokens=64)
    assert len(answer.answer) > 0
    assert len(answer.retrieved) == 2
