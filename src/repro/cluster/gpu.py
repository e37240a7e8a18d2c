"""GPU device models.

The reproduction does not execute kernels on real accelerators; a GPU is a
named capacity (VRAM plus relative compute throughput) that model instances
reserve.  Relative throughput factors are used by the serving timing model
(:mod:`repro.serving.timing`) to scale prefill/decode rates across device
generations, mirroring the paper's statement that FIRST targets NVIDIA A100,
H100 and AMD MI250 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["GPUSpec", "GPU", "A100_40GB", "A100_80GB", "H100_80GB", "MI250_64GB"]


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"NVIDIA A100-SXM4-40GB"``.
    memory_gb:
        Usable device memory in GiB.
    compute_factor:
        Relative throughput versus an A100-40GB (1.0).  Used to scale the
        serving timing model across hardware generations.
    mem_bandwidth_gbps:
        Device memory bandwidth, informational.
    """

    name: str
    memory_gb: float
    compute_factor: float = 1.0
    mem_bandwidth_gbps: float = 1555.0

    def __post_init__(self):
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be > 0")
        if self.compute_factor <= 0:
            raise ValueError("compute_factor must be > 0")


#: The GPU that makes up most of Sophia (24 DGX A100 nodes).
A100_40GB = GPUSpec("NVIDIA A100-SXM4-40GB", memory_gb=40.0, compute_factor=1.0,
                    mem_bandwidth_gbps=1555.0)
#: Two Sophia nodes carry 80 GB A100s.
A100_80GB = GPUSpec("NVIDIA A100-SXM4-80GB", memory_gb=80.0, compute_factor=1.05,
                    mem_bandwidth_gbps=2039.0)
H100_80GB = GPUSpec("NVIDIA H100-SXM5-80GB", memory_gb=80.0, compute_factor=2.2,
                    mem_bandwidth_gbps=3350.0)
MI250_64GB = GPUSpec("AMD MI250-64GB", memory_gb=64.0, compute_factor=0.9,
                     mem_bandwidth_gbps=3276.0)


@dataclass
class GPU:
    """A physical GPU inside a node.

    Tracks how much VRAM has been reserved by model instances so that several
    models can be co-located on one node (the paper's example: a 70B model on
    6 GPUs while 8B and 7B models use the remaining 2).
    """

    index: int
    spec: GPUSpec
    reserved_gb: float = 0.0
    owner: Optional[str] = None

    @property
    def free_gb(self) -> float:
        """VRAM not yet reserved."""
        return self.spec.memory_gb - self.reserved_gb

    @property
    def in_use(self) -> bool:
        return self.owner is not None

    def reserve(self, vram_gb: float, owner: str) -> None:
        """Reserve ``vram_gb`` of this GPU for ``owner`` (a model instance id)."""
        if self.in_use:
            raise RuntimeError(f"GPU {self.index} already reserved by {self.owner}")
        if vram_gb > self.spec.memory_gb + 1e-9:
            raise ValueError(
                f"Cannot reserve {vram_gb:.1f} GB on a {self.spec.memory_gb:.1f} GB GPU"
            )
        self.reserved_gb = vram_gb
        self.owner = owner

    def free(self) -> None:
        """Release the reservation."""
        self.reserved_gb = 0.0
        self.owner = None
