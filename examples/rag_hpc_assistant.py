#!/usr/bin/env python3
"""Case study §6.2 — an HPC assistant built from FIRST's embedding + chat services.

NV-Embed-v2 embeds facility documentation into a vector index (the FAISS
substitute in :mod:`repro.rag`); at question time the most relevant passages
are retrieved and folded into the prompt sent to the LLM.

Run:  python examples/rag_hpc_assistant.py
"""

from repro.core import FIRSTDeployment, quickstart_config
from repro.rag import RAGPipeline, hpc_documentation_corpus

CHAT_MODEL = "Qwen/Qwen2.5-7B-Instruct"
EMBED_MODEL = "nvidia/NV-Embed-v2"

QUESTIONS = [
    "How do I submit a job with PBS and check its status?",
    "How much local SSD scratch does each compute node have?",
    "What is the walltime limit of the debug queue?",
    "How should I run an Apptainer container that uses MPI?",
]


def main() -> None:
    deployment = FIRSTDeployment(quickstart_config())
    client = deployment.client("researcher@anl.gov")

    # Build the assistant: embed the documentation corpus through the
    # service's /v1/embeddings endpoint and index it.
    pipeline = RAGPipeline(
        client=client,
        embedding_model=EMBED_MODEL,
        chat_model=CHAT_MODEL,
        top_k=3,
    )
    corpus = hpc_documentation_corpus()
    n_chunks = pipeline.ingest(corpus)
    print(f"Indexed {len(corpus)} documentation pages as {n_chunks} chunks "
          f"using {EMBED_MODEL}")

    for question in QUESTIONS:
        answer = pipeline.answer(question, max_tokens=96)
        print("\nQ:", question)
        print("  retrieved:", ", ".join(answer.sources))
        print("  A:", answer.answer[:180], "...")

    dashboard = client.dashboard()
    print("\nService usage for this session:")
    print(f"  embedding + chat requests: {dashboard['total_completed']}")
    print(f"  output tokens            : {dashboard['total_output_tokens']}")


if __name__ == "__main__":
    main()
