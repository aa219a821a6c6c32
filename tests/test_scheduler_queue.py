"""Scheduler submission orders, windows, and the duplicate-rank guard."""

import pytest

from repro.engine import StaticScheduler, WorkQueueScheduler
from repro.engine.plan import RankTask
from repro.errors import GenerationError


def _tasks(entries):
    return [
        RankTask(rank=i, assignment=None, estimated_entries=e)
        for i, e in enumerate(entries)
    ]


class TestWorkQueueOrder:
    def test_lpt_order_longest_first(self):
        tasks = _tasks([10, 50, 30])
        order = WorkQueueScheduler().order(tasks)
        assert [t.rank for t in order] == [1, 2, 0]

    def test_ties_break_by_rank(self):
        tasks = _tasks([20, 20, 20])
        order = WorkQueueScheduler().order(tasks)
        assert [t.rank for t in order] == [0, 1, 2]

    def test_order_accepts_budget_keyword(self):
        tasks = _tasks([1, 2])
        order = WorkQueueScheduler().order(tasks, memory_budget_entries=100)
        assert [t.rank for t in order] == [1, 0]

    def test_empty_task_list(self):
        assert WorkQueueScheduler().order([]) == []
        assert StaticScheduler().order([]) == []


class TestMaxInFlight:
    def test_default_is_none(self):
        assert WorkQueueScheduler().max_in_flight is None

    def test_explicit_value_kept(self):
        assert WorkQueueScheduler(max_in_flight=3).max_in_flight == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_value_rejected(self, bad):
        with pytest.raises(GenerationError, match="max_in_flight"):
            WorkQueueScheduler(max_in_flight=bad)


class TestDuplicateRankGuard:
    """Regression: a duplicated rank must fail fast in every scheduler."""

    def _duped(self):
        return [
            RankTask(rank=0, assignment=None, estimated_entries=5),
            RankTask(rank=1, assignment=None, estimated_entries=5),
            RankTask(rank=0, assignment=None, estimated_entries=7),
        ]

    def test_static_schedule_rejects_duplicates(self):
        with pytest.raises(GenerationError, match=r"duplicate rank\(s\).*\[0\]"):
            StaticScheduler().order(self._duped())

    def test_queue_order_rejects_duplicates(self):
        with pytest.raises(GenerationError, match=r"duplicate rank\(s\).*\[0\]"):
            WorkQueueScheduler().order(self._duped())

    def test_unique_ranks_pass(self):
        order = StaticScheduler().order(_tasks([5, 5, 7]))
        assert [t.rank for t in order] == [0, 1, 2]
