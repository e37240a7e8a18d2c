"""Batch-job model shared by every scheduler implementation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["JobState", "JobRequest", "Job"]


class JobState(str, enum.Enum):
    """Lifecycle of a scheduler job.

    Mirrors the states surfaced by the paper's ``/jobs`` endpoint:
    ``queued`` (waiting for allocation), ``starting`` (nodes acquired, model
    loading), ``running`` (hot), plus terminal states.
    """

    QUEUED = "queued"
    STARTING = "starting"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.CANCELLED, JobState.FAILED, JobState.TIMEOUT)


@dataclass
class JobRequest:
    """Resource request submitted to a scheduler."""

    name: str
    num_nodes: int = 1
    gpus_per_node: int = 8
    walltime_s: float = 7200.0
    queue: str = "default"
    #: Free-form metadata (e.g. which model instance this job will host).
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be > 0")
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be > 0")
        if self.walltime_s <= 0:
            raise ValueError("walltime_s must be > 0")


@dataclass
class Job:
    """A job tracked by a scheduler, with timing bookkeeping."""

    job_id: str
    request: JobRequest
    state: JobState = JobState.QUEUED
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    nodes: List = field(default_factory=list)  # List[Node] once allocated
    exit_reason: Optional[str] = None

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds spent waiting in the queue, once started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def to_dict(self) -> dict:
        """Serialisable summary, as returned by the gateway's ``/jobs`` endpoint."""
        return {
            "job_id": self.job_id,
            "name": self.request.name,
            "state": self.state.value,
            "num_nodes": self.request.num_nodes,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "queue_wait_s": self.queue_wait_s,
            "metadata": dict(self.request.metadata),
        }
