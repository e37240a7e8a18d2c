#!/usr/bin/env python3
"""Web chat interface walk-through (§4.7).

The Open-WebUI-like front-end authenticates the user, only lists models that
are currently *running*, keeps per-session chat histories, supports a
multi-column comparison of several models, and forwards every turn to the
Inference Gateway.

Run:  python examples/webui_chat.py
"""

from repro.core import FIRSTDeployment, quickstart_config
from repro.webui import WebUIServer

MODEL_A = "Qwen/Qwen2.5-7B-Instruct"
MODEL_B = "meta-llama/Llama-3.1-8B-Instruct"


def main() -> None:
    deployment = FIRSTDeployment(quickstart_config())
    # Keep both chat models hot so they appear in the dropdown.
    deployment.warm_up(MODEL_A)
    deployment.warm_up(MODEL_B)

    webui = WebUIServer(deployment)
    print("Models shown in the WebUI dropdown (running only):")
    for model in webui.available_models():
        print("   -", model)

    # A chat session: the history accumulates turn by turn.
    session = webui.new_session("researcher@anl.gov", MODEL_A)
    print(f"\nStarted session {session.session_id} with {MODEL_A}")
    for turn, prompt in enumerate(
        ["What queues exist on this system?",
         "Which one should I use for a 30-minute test?",
         "And how do I request GPUs there?"],
        start=1,
    ):
        reply = webui.chat_turn_blocking(session.session_id, prompt, output_tokens=60)
        print(f"  turn {turn}: prompt tokens so far = {session.history_tokens:4d} | "
              f"reply: {reply[:80]}...")

    # Multi-column comparison: the same question to two models side by side.
    print("\nComparing two models on the same question:")
    answers = webui.compare(
        "researcher@anl.gov", [MODEL_A, MODEL_B],
        "Summarise the difference between the debug and production queues.",
        output_tokens=48,
    )
    for model, answer in answers.items():
        print(f"  [{model}] {answer[:90]}...")

    print(f"\nTurns served by the WebUI backend: {webui.turns_served}")
    print(f"Stored sessions: {len(webui.sessions)}")


if __name__ == "__main__":
    main()
