"""Submission order and in-flight window for rank tasks.

The engine runs every plan through one completion-driven loop
(:meth:`~repro.runtime.RankExecutor.run_iter` plus a reorder buffer that
commits in ascending rank order).  A scheduler decides only two things
about that loop:

* the **submission order** — :meth:`order` returns the tasks in the
  order they are handed to workers;
* the **in-flight window** — ``max_in_flight`` caps how many tasks run
  at once; ``None`` lets the engine size it from the backend's worker
  count.

Two orders ship:

* :class:`StaticScheduler` — ascending rank order (the default).  With
  ``max_in_flight=1`` rank *k + 1* is not submitted before rank *k* has
  committed, the streamed generator's commit-after-every-rank shape that
  its ``crash_hook`` relies on;
* :class:`WorkQueueScheduler` — longest estimated task first (LPT), so
  one straggling rank no longer idles the rest of the pool.

A locality-aware scheduler plugs in without touching the engine loop:
anything with ``order(tasks, memory_budget_entries=...) -> [task, ...]``
and a ``max_in_flight`` attribute works.  Determinism contract:
*commits* happen in ascending rank order under every scheduler — sink
commit order and manifest write order follow it regardless of execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.plan import RankTask
from repro.errors import GenerationError


def _require_unique_ranks(tasks: Sequence[RankTask]) -> None:
    """Reject task lists with duplicate ranks.

    A duplicate rank would make two tasks race for one shard filename
    and one manifest slot — caught here, at scheduling time, for every
    scheduler.
    """
    seen = set()
    dupes = set()
    for task in tasks:
        if task.rank in seen:
            dupes.add(task.rank)
        seen.add(task.rank)
    if dupes:
        raise GenerationError(
            f"duplicate rank(s) in task list: {sorted(dupes)}"
        )


@dataclass(frozen=True)
class _Scheduler:
    """The shared window field and ordering; subclasses define ``_key``."""

    max_in_flight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise GenerationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )

    def order(
        self,
        tasks: Sequence[RankTask],
        *,
        memory_budget_entries: Optional[int] = None,
    ) -> List[RankTask]:
        """Submission order.

        ``memory_budget_entries`` is part of the protocol so a
        budget-aware scheduler can use it; backpressure against the
        budget is applied by the engine (it knows what is buffered), not
        by the ordering.
        """
        _require_unique_ranks(tasks)
        return sorted(tasks, key=self._key)


@dataclass(frozen=True)
class StaticScheduler(_Scheduler):
    """Deterministic ascending-rank submission (the default scheduler)."""

    @staticmethod
    def _key(task: RankTask):
        return task.rank


@dataclass(frozen=True)
class WorkQueueScheduler(_Scheduler):
    """Longest-estimated-first (LPT) submission.

    LPT is the classic greedy bound for minimizing makespan on identical
    machines (within 4/3 of optimal); each task goes to whichever worker
    frees up first.  Ties break by rank.  Output stays byte-identical to
    :class:`StaticScheduler` because the engine commits completions
    through a reorder buffer in ascending rank order.
    """

    @staticmethod
    def _key(task: RankTask):
        return (-task.estimated_entries, task.rank)
