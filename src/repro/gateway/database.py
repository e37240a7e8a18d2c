"""In-memory stand-in for the gateway's PostgreSQL database.

The real gateway logs every user activity, stores batch jobs and the
federated endpoint configuration in PostgreSQL (§3.1).  The reproduction
keeps the same table semantics in memory with simple query helpers so the
metrics dashboard, the ``/jobs`` endpoint and the usage summaries behave the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["RequestLogEntry", "BatchRecord", "GatewayDatabase"]


@dataclass(slots=True)
class RequestLogEntry:
    """One row of the request log."""

    request_id: str
    user: str
    model: str
    endpoint: str
    kind: str
    submitted_at: float
    completed_at: Optional[float] = None
    prompt_tokens: int = 0
    output_tokens: int = 0
    status: str = "pending"
    error: Optional[str] = None

    @property
    def latency_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


@dataclass
class BatchRecord:
    """One row of the batches table (the ``/v1/batches`` resource)."""

    batch_id: str
    user: str
    model: str
    endpoint: str
    num_requests: int
    status: str = "validating"
    created_at: float = 0.0
    completed_at: Optional[float] = None
    completed_requests: int = 0
    failed_requests: int = 0
    output_tokens: int = 0
    error: Optional[str] = None
    #: Per-request failure reasons (request_id → reason string) for batches
    #: that completed with partial failures.
    failure_reasons: Dict[str, str] = field(default_factory=dict)
    results: List = field(default_factory=list)

    def to_dict(self) -> dict:
        from .responses import envelope_for_reason

        errors = None
        if self.failure_reasons:
            errors = {
                "object": "list",
                "data": [
                    {"request_id": rid, "error": envelope_for_reason(reason)["error"]}
                    for rid, reason in sorted(self.failure_reasons.items())
                ],
            }
        return {
            "id": self.batch_id,
            "object": "batch",
            "model": self.model,
            "endpoint": self.endpoint,
            "status": self.status,
            "created_at": self.created_at,
            "completed_at": self.completed_at,
            "request_counts": {
                "total": self.num_requests,
                "completed": self.completed_requests,
                "failed": self.failed_requests,
            },
            "output_tokens": self.output_tokens,
            "error": self.error,
            "errors": errors,
        }


class GatewayDatabase:
    """Tables: users, request log, batches."""

    def __init__(self):
        self.users: Dict[str, dict] = {}
        self.request_log: List[RequestLogEntry] = []
        self.batches: Dict[str, BatchRecord] = {}

    # -- users -----------------------------------------------------------------
    def upsert_user(self, username: str) -> dict:
        record = self.users.setdefault(
            username, {"username": username, "requests": 0, "tokens": 0}
        )
        return record

    @property
    def user_count(self) -> int:
        return len(self.users)

    # -- request log ------------------------------------------------------------
    def log_request(self, entry: RequestLogEntry) -> None:
        self.request_log.append(entry)
        user = self.upsert_user(entry.user)
        user["requests"] += 1

    def complete_request(self, entry: RequestLogEntry, output_tokens: int,
                         completed_at: float, status: str = "completed",
                         error: Optional[str] = None) -> None:
        entry.output_tokens = output_tokens
        entry.completed_at = completed_at
        entry.status = status
        entry.error = error
        self.users[entry.user]["tokens"] += output_tokens

    def requests_for_user(self, username: str) -> List[RequestLogEntry]:
        return [e for e in self.request_log if e.user == username]

    @property
    def total_requests(self) -> int:
        return len(self.request_log)

    @property
    def total_output_tokens(self) -> int:
        return sum(e.output_tokens for e in self.request_log)

    # -- batches ------------------------------------------------------------------
    def insert_batch(self, record: BatchRecord) -> None:
        self.batches[record.batch_id] = record

    def get_batch(self, batch_id: str) -> Optional[BatchRecord]:
        return self.batches.get(batch_id)

    def usage_summary(self) -> dict:
        """Aggregate usage numbers (the paper quotes 8.7M requests / 76 users /
        10B tokens for its 10-month deployment)."""
        return {
            "total_requests": self.total_requests,
            "total_users": self.user_count,
            "total_output_tokens": self.total_output_tokens,
            "total_batches": len(self.batches),
        }
