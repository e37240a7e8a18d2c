"""Declarative, pickle-safe descriptions of simulation cells.

A *cell* is one independent simulation: a deployment/engine configuration,
a workload and an arrival spec.  :class:`ScenarioSpec`
describes a cell declaratively — everything it embeds pickles, so the
:class:`~repro.sweep.runner.SweepRunner` can ship cells to worker
processes.  :class:`SweepSpec` describes a *grid* of cells (axes of rates,
policies, seeds, ...) and expands it deterministically, so benchmarks say
*what* to run, not *how*.

Seeding discipline: a cell's workload and arrival seeds are
:func:`repro.common.stable_seed` keys over its description (a ``seed`` grid
axis, the model, the rate — see :mod:`repro.sweep.scenarios`), never over
which worker ran it or in what order — a sweep's merged metrics are
therefore independent of worker count and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..common import ConfigurationError
from ..workload import (
    ArrivalProcess,
    DiurnalArrival,
    InfiniteArrival,
    PoissonArrival,
    RampArrival,
    TraceReplayArrival,
    UniformArrival,
)

__all__ = ["ArrivalSpec", "ScenarioSpec", "SweepSpec"]


@dataclass
class ArrivalSpec:
    """Pickle-safe description of an arrival process.

    ``kind`` selects the process; ``params`` carries its keyword arguments
    (e.g. ``{"base_rate": 0.2, "peak_rate": 4.0, "period_s": 500.0}`` for
    ``diurnal``, or ``{"trace": [...], "name": "flash"}`` for ``trace``).
    """

    kind: str = "inf"  # inf | poisson | uniform | diurnal | ramp | trace
    rate: Optional[float] = None
    seed: int = 7
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_rate(cls, rate: Optional[float], poisson: bool = True,
                 seed: int = 7) -> "ArrivalSpec":
        """``rate=None`` (or ``inf``) → infinite arrival; otherwise
        Poisson (seeded) or uniform at ``rate``."""
        if rate is None or rate == float("inf"):
            return cls(kind="inf")
        return cls(kind="poisson" if poisson else "uniform", rate=rate, seed=seed)

    def build(self) -> ArrivalProcess:
        if self.kind == "inf":
            return InfiniteArrival()
        if self.kind == "poisson":
            return PoissonArrival(self.rate, seed=self.seed)
        if self.kind == "uniform":
            return UniformArrival(self.rate)
        if self.kind == "diurnal":
            return DiurnalArrival(seed=self.seed, **self.params)
        if self.kind == "ramp":
            return RampArrival(seed=self.seed, **self.params)
        if self.kind == "trace":
            return TraceReplayArrival(self.params["trace"],
                                      name=self.params.get("name", "trace"))
        raise ConfigurationError(f"unknown arrival kind {self.kind!r}")


@dataclass
class ScenarioSpec:
    """One simulation cell, described declaratively.

    ``runner`` names the cell function: a short name registered in
    :data:`repro.sweep.scenarios.RUNNERS`, or a module-level callable
    (pickled by reference).  The runner receives the spec and returns a
    pickle-safe payload — by convention a dict with at least a ``"mergeable"``
    :class:`~repro.metrics.MergeableSummary` and an exact ``"summary"``
    :class:`~repro.metrics.BenchmarkSummary`.
    """

    key: str
    runner: Union[str, Callable]
    model: str = ""
    num_requests: int = 0
    arrival: Optional[ArrivalSpec] = None
    #: ``EngineConfig`` field overrides for engine-level cells.
    engine: Dict[str, Any] = field(default_factory=dict)
    #: Runner-specific parameters (pickle-safe values only).
    params: Dict[str, Any] = field(default_factory=dict)
    #: The grid-axis values that produced this cell (set by ``SweepSpec.expand``).
    tags: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def resolve_runner(self) -> Callable:
        if callable(self.runner):
            return self.runner
        from . import scenarios  # local import: scenarios imports heavy substrates

        try:
            return scenarios.RUNNERS[self.runner]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown runner {self.runner!r}; registered: "
                f"{sorted(scenarios.RUNNERS)}") from exc

    def run(self) -> Any:
        """Execute the cell in this process and return the runner's payload."""
        return self.resolve_runner()(self)


def _format_axis_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


#: ScenarioSpec fields an axis or base entry may set directly; anything else
#: lands in ``params``.
_SPEC_FIELDS = ("model", "num_requests", "arrival", "engine", "label")


@dataclass
class SweepSpec:
    """A grid of cells: shared base settings plus axes to sweep.

    ``axes`` maps axis name to the values swept, in significance order; the
    expansion enumerates the cartesian product with the *last* axis varying
    fastest, and keys cells ``"{name}/{axis}={value}/..."`` — stable across
    runs, so cell keys never depend on worker count or scheduling.

    Axis names (and ``base`` keys) matching a :class:`ScenarioSpec` field
    (``model``, ``num_requests``, ``arrival``, ``engine``, ``label``) set
    that field; every other name lands in ``ScenarioSpec.params`` for the
    runner.  Axis values are additionally recorded in ``ScenarioSpec.tags``
    — a ``seed`` axis reseeds each cell's workload and arrivals from there.
    """

    name: str
    runner: Union[str, Callable]
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def expand(self) -> List[ScenarioSpec]:
        for axis, values in self.axes.items():
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")
        cells: List[ScenarioSpec] = []
        axis_names = list(self.axes)
        combos = [()]
        for axis in axis_names:
            combos = [c + (v,) for c in combos for v in self.axes[axis]]
        for combo in combos:
            axis_values = dict(zip(axis_names, combo))
            merged: Dict[str, Any] = {**self.base, **axis_values}
            key = self.name + "".join(
                f"/{axis}={_format_axis_value(value)}"
                for axis, value in axis_values.items())
            fields = {name: merged.pop(name) for name in _SPEC_FIELDS if name in merged}
            cells.append(ScenarioSpec(
                key=key,
                runner=self.runner,
                params=merged,
                tags=axis_values,
                **fields,
            ))
        return cells

    @property
    def num_cells(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total
