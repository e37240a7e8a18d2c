"""Chat-session model for the web interface (§4.7).

The Open-WebUI-based interface keeps per-user chat histories in its own
backend database and forwards every turn (with the full conversation so far)
to the Gateway API.  Because histories accumulate, later turns carry longer
prompts — which is the mechanism behind the throughput differences between
short and long WebUI benchmark runs (Table 1): a longer run reaches deeper
turns, whose growing prefill cost lowers completed-requests-per-second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..serving import estimate_tokens

__all__ = ["ChatMessage", "ChatSession", "SessionStore"]


@dataclass
class ChatMessage:
    role: str
    content: str
    tokens: int


@dataclass
class ChatSession:
    """One user's conversation with one model."""

    session_id: str
    user: str
    model: str
    system_prompt_tokens: int = 30
    messages: List[ChatMessage] = field(default_factory=list)
    created_at: float = 0.0

    @property
    def turns(self) -> int:
        return sum(1 for m in self.messages if m.role == "user")

    @property
    def history_tokens(self) -> int:
        """Prompt tokens contributed by the accumulated history."""
        return self.system_prompt_tokens + sum(m.tokens for m in self.messages)

    def add_user_message(self, content: str, tokens: Optional[int] = None) -> ChatMessage:
        message = ChatMessage(role="user", content=content,
                              tokens=tokens or estimate_tokens(content))
        self.messages.append(message)
        return message

    def add_assistant_message(self, content: str, tokens: int) -> ChatMessage:
        message = ChatMessage(role="assistant", content=content, tokens=tokens)
        self.messages.append(message)
        return message


class SessionStore:
    """The WebUI backend's PostgreSQL-backed session persistence."""

    def __init__(self):
        self._sessions: Dict[str, ChatSession] = {}

    def create(self, session_id: str, user: str, model: str, created_at: float = 0.0) -> ChatSession:
        if session_id in self._sessions:
            raise ValueError(f"Session {session_id} already exists")
        session = ChatSession(session_id=session_id, user=user, model=model,
                              created_at=created_at)
        self._sessions[session_id] = session
        return session

    def get(self, session_id: str) -> ChatSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"Unknown session: {session_id}") from None

    def sessions_for(self, user: str) -> List[ChatSession]:
        return [s for s in self._sessions.values() if s.user == user]

    def __len__(self) -> int:
        return len(self._sessions)
