"""Sharded execution of scenario cells across worker processes.

:class:`SweepRunner` executes a list of :class:`~repro.sweep.spec.ScenarioSpec`
cells on a ``multiprocessing`` worker pool (or serially in-process with
``workers=1`` — the debugging fallback: same code path, no pickling across
processes, ``pdb`` works).  Guarantees:

* **Determinism** — results are returned (and merged) in cell order, never
  completion order, so merged float accumulations are bit-identical across
  worker counts; cell seeds are keyed by the cell's description (see
  :mod:`repro.sweep.spec`), so the simulated results themselves are too.
* **Bounded retry** — a shard that raises *or crashes its worker* is retried
  up to ``max_retries`` times before being reported as a failure; one bad
  cell cannot take down the sweep, nor be blamed on a neighbour: a crash
  breaks the whole pool, so the shards in flight in it are re-run, one per
  pool, before any of them is charged an attempt for it.
* **Structured progress** — per-shard wall time, worker pid and attempt
  count are recorded in the result timeline (and optionally printed live).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..common import ConfigurationError
from ..metrics import MergeableSummary
from .spec import ScenarioSpec

__all__ = ["ShardResult", "SweepResult", "SweepRunner"]


@dataclass
class ShardResult:
    """Outcome of one cell: the runner's payload plus execution metadata."""

    key: str
    ok: bool = False
    payload: Any = None
    error: Optional[str] = None
    wall_s: float = 0.0
    pid: int = 0
    attempts: int = 1
    tags: Dict[str, Any] = field(default_factory=dict)


def _execute_cell(spec: ScenarioSpec) -> ShardResult:
    """Worker entry point: run one cell, never raise (errors are data)."""
    start = time.perf_counter()
    try:
        payload = spec.run()
        return ShardResult(key=spec.key, ok=True, payload=payload,
                           wall_s=time.perf_counter() - start,
                           pid=os.getpid(), tags=dict(spec.tags))
    except Exception:  # noqa: BLE001 - shard failures are retried/reported
        return ShardResult(key=spec.key, ok=False,
                           error=traceback.format_exc(limit=20),
                           wall_s=time.perf_counter() - start,
                           pid=os.getpid(), tags=dict(spec.tags))


class SweepResult:
    """Results of one sweep, in cell order."""

    def __init__(self, results: List[ShardResult], workers: int, wall_s: float,
                 timeline: List[dict]):
        self.results = results
        self.workers = workers
        self.wall_s = wall_s
        #: Completion-ordered events: {key, ok, wall_s, pid, attempt, index, total}.
        self.timeline = timeline

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[ShardResult]:
        return [r for r in self.results if not r.ok]

    def __iter__(self):
        return iter(self.results)

    def payload_by_key(self) -> Dict[str, Any]:
        return {r.key: r.payload for r in self.results if r.ok}

    # -- reductions --------------------------------------------------------
    def mergeables(self) -> List[MergeableSummary]:
        return [r.payload["mergeable"] for r in self.results
                if r.ok and isinstance(r.payload.get("mergeable"), MergeableSummary)]

    def merged(self, label: Optional[str] = None) -> MergeableSummary:
        """Reduce every shard's mergeable metrics, in cell order.

        Merging in cell order (not completion order) pins the float-addition
        order, so the reduction is bit-identical for any worker count.
        """
        return MergeableSummary.merge_all(self.mergeables(), label=label)


class SweepRunner:
    """Executes scenario cells, sharded across ``workers`` processes.

    ``workers=1`` runs every cell in-process (serial fallback).  The
    ``mp_context`` defaults to ``"spawn"`` — workers import a fresh
    interpreter, so cells must be fully pickle-safe (which
    :class:`ScenarioSpec` guarantees) and results cannot depend on parent
    state leaking through ``fork``.
    """

    def __init__(self, workers: int = 1, mp_context: str = "spawn",
                 max_retries: int = 1,
                 progress: Union[bool, Callable[[dict], None], None] = None):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.workers = workers
        self.mp_context = mp_context
        self.max_retries = max_retries
        self.progress = progress

    # -- public API --------------------------------------------------------
    def run(self, cells: Sequence[ScenarioSpec]) -> SweepResult:
        cells = list(cells)
        keys = [c.key for c in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ConfigurationError(f"duplicate cell keys: {dupes}")
        start = time.perf_counter()
        timeline: List[dict] = []
        if self.workers == 1 or len(cells) <= 1:
            results = self._run_serial(cells, timeline)
        else:
            results = self._run_parallel(cells, timeline)
        ordered = [results[key] for key in keys]
        return SweepResult(ordered, workers=self.workers,
                           wall_s=time.perf_counter() - start, timeline=timeline)

    # -- execution strategies ----------------------------------------------
    def _run_serial(self, cells: List[ScenarioSpec],
                    timeline: List[dict]) -> Dict[str, ShardResult]:
        results: Dict[str, ShardResult] = {}
        for cell in cells:
            attempts = 0
            while True:
                attempts += 1
                result = _execute_cell(cell)
                if result.ok or attempts > self.max_retries:
                    break
                self._report(timeline, result, attempts, len(results), len(cells),
                             retrying=True)
            result.attempts = attempts
            results[cell.key] = result
            self._report(timeline, result, attempts, len(results), len(cells))
        return results

    def _run_parallel(self, cells: List[ScenarioSpec],
                      timeline: List[dict]) -> Dict[str, ShardResult]:
        results: Dict[str, ShardResult] = {}
        attempts: Dict[str, int] = {c.key: 0 for c in cells}
        pending, shared = list(cells), True
        total = len(cells)
        ctx = multiprocessing.get_context(self.mp_context)
        # Round-based: each round gets fresh pools, so a worker hard-crash
        # (which breaks a ProcessPoolExecutor and fails every future in it)
        # only costs the in-flight round.  A shard that breaks a pool shared
        # with others cannot be told from its neighbours, so all of them are
        # re-queued uncharged and the next round gives each its own pool,
        # ``workers`` pools at a time.
        while pending:
            if shared:
                waves = [[pending]]
            else:
                waves = [[[cell] for cell in pending[i:i + self.workers]]
                         for i in range(0, len(pending), self.workers)]
            pending, shared = [], True
            for wave in waves:
                with ExitStack() as stack:
                    futures = {}
                    for batch in wave:
                        pool = stack.enter_context(ProcessPoolExecutor(
                            max_workers=min(self.workers, len(batch)), mp_context=ctx))
                        for cell in batch:
                            futures[pool.submit(_execute_cell, cell)] = (cell, len(batch) == 1)
                    for future in as_completed(futures):
                        cell, alone = futures[future]
                        try:
                            result = future.result()
                        except Exception as exc:  # worker crash / pickling failure
                            if isinstance(exc, BrokenProcessPool) and not alone:
                                pending.append(cell)
                                shared = False
                                continue
                            result = ShardResult(
                                key=cell.key, ok=False, tags=dict(cell.tags),
                                error=f"{type(exc).__name__}: {exc}")
                        attempts[cell.key] += 1
                        if not result.ok and attempts[cell.key] <= self.max_retries:
                            pending.append(cell)
                            self._report(timeline, result, attempts[cell.key],
                                         len(results), total, retrying=True)
                            continue
                        result.attempts = attempts[cell.key]
                        results[cell.key] = result
                        self._report(timeline, result, attempts[cell.key],
                                     len(results), total)
        return results

    # -- progress ----------------------------------------------------------
    def _report(self, timeline: List[dict], result: ShardResult, attempt: int,
                done: int, total: int, retrying: bool = False) -> None:
        event = {
            "key": result.key,
            "ok": result.ok,
            "retrying": retrying,
            "wall_s": round(result.wall_s, 4),
            "pid": result.pid,
            "attempt": attempt,
            "done": done,
            "total": total,
        }
        timeline.append(event)
        if callable(self.progress):
            self.progress(event)
        elif self.progress:
            status = "retry" if retrying else ("ok" if result.ok else "FAILED")
            print(f"  [{done}/{total}] {result.key} {status} "
                  f"in {result.wall_s:.2f}s (pid {result.pid}, attempt {attempt})")
