"""Parallel federated simulation: event-horizon sharded clusters.

One federated deployment is split into per-cluster partitions, each owning
its own kernel :class:`~repro.sim.Environment`.  The only cross-partition
edges are relay transfers, whose wire latencies become the conservative
lookahead for synchronous-window PDES:

- :mod:`repro.parallel.boundary` — serialized boundary messages with
  deterministic ordering and causality validation;
- :mod:`repro.parallel.horizon` — window planning (exclusive windows plus
  inclusive zero-lookahead micro-windows: the null-message progress
  guarantee);
- :mod:`repro.parallel.partition` — gateway / cluster / ping partitions
  wrapping the existing relay, endpoint, and serving stacks;
- :mod:`repro.parallel.deployment` — the orchestrator
  (:class:`PartitionedDeployment`), which runs every partition in the
  calling process and pickle-round-trips whatever crosses a boundary.
"""

from .boundary import DISPATCH, PING, RESULT, BoundaryMessage, sort_key, validate_arrival
from .deployment import (
    ClusterShardSpec,
    FederatedRunResult,
    FederatedScenario,
    PartitionedDeployment,
    golden_trace,
    run_partitions,
    run_ping_ring,
    trace_fingerprint,
)
from .horizon import Window, WindowStats, plan_window
from .partition import (
    PARTITION_KINDS,
    ClusterPartition,
    GatewayPartition,
    Partition,
    PartitionSpec,
    PingPartition,
    build_partition,
)

__all__ = [
    "BoundaryMessage",
    "DISPATCH",
    "RESULT",
    "PING",
    "sort_key",
    "validate_arrival",
    "Window",
    "WindowStats",
    "plan_window",
    "Partition",
    "PartitionSpec",
    "GatewayPartition",
    "ClusterPartition",
    "PingPartition",
    "PARTITION_KINDS",
    "build_partition",
    "ClusterShardSpec",
    "FederatedScenario",
    "FederatedRunResult",
    "PartitionedDeployment",
    "run_partitions",
    "run_ping_ring",
    "golden_trace",
    "trace_fingerprint",
]
