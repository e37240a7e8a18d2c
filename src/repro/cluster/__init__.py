"""HPC cluster substrate: GPUs, nodes, clusters, jobs and batch schedulers.

This package simulates the compute facilities FIRST deploys onto (Sophia,
Polaris) including their batch schedulers, so that node acquisition, queue
waits, co-location and hot/cold starts behave as in the paper without any
real hardware.
"""

from .cluster import Cluster, ClusterStatus, Interconnect
from .facilities import polaris_like, small_test_cluster, sophia_like
from .gpu import A100_40GB, A100_80GB, GPU, GPUSpec, H100_80GB, MI250_64GB
from .job import Job, JobRequest, JobState
from .node import Node, NodeSpec, dgx_a100_spec
from .scheduler import (
    JobHandle,
    LocalScheduler,
    PBSScheduler,
    SchedulerBase,
    SchedulerConfig,
    make_scheduler,
)
from .status import FacilityStatusProvider

__all__ = [
    "GPU",
    "GPUSpec",
    "A100_40GB",
    "A100_80GB",
    "H100_80GB",
    "MI250_64GB",
    "Node",
    "NodeSpec",
    "dgx_a100_spec",
    "Cluster",
    "ClusterStatus",
    "Interconnect",
    "sophia_like",
    "polaris_like",
    "small_test_cluster",
    "Job",
    "JobRequest",
    "JobState",
    "JobHandle",
    "SchedulerBase",
    "SchedulerConfig",
    "PBSScheduler",
    "LocalScheduler",
    "make_scheduler",
    "FacilityStatusProvider",
]
