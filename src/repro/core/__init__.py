"""The FIRST toolkit facade: deployments, calibration and the client SDK."""

from . import calibration
from .client import FIRSTClient
from .deployment import (
    AutoscaleConfig,
    ClusterDeploymentSpec,
    DeploymentConfig,
    FIRSTDeployment,
    ModelHostingConfig,
    ObservabilityConfig,
    federated_config,
    quickstart_config,
    sophia_benchmark_config,
)

__all__ = [
    "FIRSTDeployment",
    "DeploymentConfig",
    "ClusterDeploymentSpec",
    "ModelHostingConfig",
    "AutoscaleConfig",
    "ObservabilityConfig",
    "FIRSTClient",
    "calibration",
    "quickstart_config",
    "sophia_benchmark_config",
    "federated_config",
]
