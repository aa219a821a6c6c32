"""Progress events emitted by the rank executor.

The executor is a library; how progress is shown is the caller's
business.  :class:`RankEvents` is a bag of optional callbacks — anything
unset is a no-op — and :class:`ConsoleProgress` is the concrete consumer
the CLI uses to print live per-rank progress lines.

Callbacks fire in the coordinating process (never inside pool workers),
so consumers may freely touch stdout, registries, or UI state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional, TextIO


@dataclass
class RankEvents:
    """Optional per-rank progress callbacks.

    ``on_rank_start(rank, attempt)`` — a rank's work is about to be
    submitted (attempt 0 is the first try);
    ``on_rank_done(rank, elapsed_s, attempt)`` — a rank finished
    successfully;
    ``on_retry(rank, attempt, delay_s, error)`` — a transient failure was
    classified and the rank will be retried after ``delay_s``;
    ``on_straggler(rank, elapsed_s, median_s)`` — a rank came in slower
    than the straggler threshold relative to the round's median;
    ``on_reassigned(rank, attempt, error)`` — the worker running the
    rank vanished (its process died and broke the pool) and the same
    attempt was resubmitted.
    """

    on_rank_start: Optional[Callable[[int, int], None]] = None
    on_rank_done: Optional[Callable[[int, float, int], None]] = None
    on_retry: Optional[Callable[[int, int, float, BaseException], None]] = None
    on_straggler: Optional[Callable[[int, float, float], None]] = None
    on_reassigned: Optional[Callable[[int, int, BaseException], None]] = None

    # -- emit helpers (None-safe) -------------------------------------------
    def rank_start(self, rank: int, attempt: int) -> None:
        if self.on_rank_start is not None:
            self.on_rank_start(rank, attempt)

    def rank_done(self, rank: int, elapsed_s: float, attempt: int) -> None:
        if self.on_rank_done is not None:
            self.on_rank_done(rank, elapsed_s, attempt)

    def retry(self, rank: int, attempt: int, delay_s: float, error: BaseException) -> None:
        if self.on_retry is not None:
            self.on_retry(rank, attempt, delay_s, error)

    def straggler(self, rank: int, elapsed_s: float, median_s: float) -> None:
        if self.on_straggler is not None:
            self.on_straggler(rank, elapsed_s, median_s)

    def reassigned(self, rank: int, attempt: int, error: BaseException) -> None:
        if self.on_reassigned is not None:
            self.on_reassigned(rank, attempt, error)


class ConsoleProgress:
    """Prints one line per rank event — the CLI's live progress view."""

    def __init__(self, total_ranks: int, *, stream: TextIO | None = None) -> None:
        self.total_ranks = total_ranks
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0

    def events(self) -> RankEvents:
        return RankEvents(
            on_rank_done=self._rank_done,
            on_retry=self._retry,
            on_straggler=self._straggler,
            on_reassigned=self._reassigned,
        )

    def _rank_done(self, rank: int, elapsed_s: float, attempt: int) -> None:
        self.done += 1
        suffix = f" (attempt {attempt + 1})" if attempt else ""
        print(
            f"  rank {rank} done in {elapsed_s:.4f}s "
            f"[{self.done}/{self.total_ranks}]{suffix}",
            file=self.stream,
        )

    def _retry(self, rank: int, attempt: int, delay_s: float, error: BaseException) -> None:
        print(
            f"  rank {rank} failed (attempt {attempt + 1}): {error}; "
            f"retrying in {delay_s:.3f}s",
            file=self.stream,
        )

    def _straggler(self, rank: int, elapsed_s: float, median_s: float) -> None:
        print(
            f"  rank {rank} straggled: {elapsed_s:.4f}s vs median {median_s:.4f}s",
            file=self.stream,
        )

    def _reassigned(self, rank: int, attempt: int, error: BaseException) -> None:
        print(
            f"  rank {rank} lost its worker ({error}); reassigned",
            file=self.stream,
        )
