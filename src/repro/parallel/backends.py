"""Execution backends for the simulated ranks.

A backend runs a per-rank work function on rank inputs; the formal
contract is :class:`repro.typing.Backend` — ``name``, ``submit(fn,
item)`` returning a handle, ``as_completed(handles)`` yielding handles
in completion order, and an optional ``shutdown()`` — which is what
the engine's completion-driven work-queue path runs on.  Three
implementations ship:

* :class:`SerialBackend` — ranks one after another in-process
  (deterministic, zero overhead — the default for validation);
* :class:`ThreadBackend` — a thread pool.  The per-rank kernel releases
  the GIL inside NumPy, so threads overlap real work without the pickling
  constraints of processes;
* :class:`MultiprocessingBackend` — a process pool, demonstrating that
  per-rank work is genuinely independent (nothing but the immutable
  inputs crosses the process boundary — the algorithm's no-communication
  property, enforced by construction).

Backends are registered by name; :func:`get_backend` is what the CLI's
``--backend`` flag and the generator's string-accepting entry points use;
:func:`make_backend` additionally sizes the worker pool.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, List, Sequence, TypeVar, Union

from repro.errors import GenerationError
from repro.typing import Backend, WorkHandle

T = TypeVar("T")
R = TypeVar("R")

#: Anything accepted where a backend is expected: a registry name, a
#: ready-made instance, or None (meaning the default serial backend).
BackendLike = Union[str, Backend, None]


def backend_worker_count(backend: Backend) -> int:
    """How many units of work ``backend`` can genuinely overlap.

    Reads the conventional sizing attributes (``max_workers`` for pools,
    ``processes`` for multiprocessing); a backend exposing neither is
    treated as serial.  The engine uses this to size its in-flight
    window and to normalize ``engine.worker_utilization``.
    """
    for attr in ("max_workers", "processes"):
        value = getattr(backend, attr, None)
        if isinstance(value, int) and value > 0:
            return value
    return 1


class _ImmediateHandle:
    """Handle for work executed eagerly at submit time (serial path).

    The serial backend has no worker to defer to, so ``submit`` runs the
    item in the caller and the handle just replays the captured value or
    exception.
    """

    __slots__ = ("_value", "_error")

    def __init__(self, fn: Callable[[T], R], item: T) -> None:
        self._value: object = None
        self._error: BaseException | None = None
        try:
            self._value = fn(item)
        except BaseException as exc:  # replayed by result(), not swallowed
            self._error = exc

    def result(self) -> object:
        if self._error is not None:
            raise self._error
        return self._value


def _futures_as_completed(handles: Sequence[WorkHandle]) -> Iterator[WorkHandle]:
    """Completion-order iteration for ``concurrent.futures`` handles."""
    from concurrent.futures import as_completed

    return as_completed(handles)


class SerialBackend:
    """Run every rank's work in the calling process, in rank order.

    ``submit`` executes eagerly (there is no worker to hand off to), so
    ``as_completed`` order equals submission order — which is what makes
    the serial backend the deterministic reference for the streaming
    execution path too.
    """

    name = "serial"

    def submit(self, fn: Callable[[T], R], item: T) -> _ImmediateHandle:
        return _ImmediateHandle(fn, item)

    def as_completed(
        self, handles: Sequence[WorkHandle]
    ) -> Iterator[WorkHandle]:
        return iter(handles)


class ThreadBackend:
    """Run ranks in a thread pool.

    Threads share the interpreter, so ``fn`` needs no pickling; the
    Kronecker kernel spends its time in NumPy (GIL released), so threads
    genuinely overlap.  The pool is created lazily on first use and
    persists until ``shutdown()``; ``submit`` hands work to it directly,
    so ``as_completed`` yields in true completion order — the overlap
    the engine's work-queue scheduler exploits.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or max(1, (os.cpu_count() or 1))
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def submit(self, fn: Callable[[T], R], item: T) -> WorkHandle:
        return self._ensure_pool().submit(fn, item)

    def as_completed(
        self, handles: Sequence[WorkHandle]
    ) -> Iterator[WorkHandle]:
        return _futures_as_completed(handles)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def default_start_method() -> str:
    """The preferred ``multiprocessing`` start method on this platform.

    ``fork`` where the OS offers it (cheapest: no re-import, no pickling
    of module state), ``spawn`` otherwise (macOS ≥ 3.8 defaults and
    Windows, where ``fork`` does not exist).
    """
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class MultiprocessingBackend:
    """Run ranks in a ``multiprocessing`` pool.

    ``fn`` and ``items`` must be picklable (the generator's worker is a
    module-level function for exactly this reason).  ``start_method``
    defaults to :func:`default_start_method` — ``fork`` where available,
    falling back to ``spawn`` on platforms without it.

    ``submit`` lazily starts a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    outlive a single call; ``shutdown()`` releases it.

    The backend advertises the ``zero_copy_tiles`` capability: for
    triples-payload sinks the engine moves tiles through a
    :class:`~repro.parallel.shm.SharedTilePool` instead of pickling them
    across the process boundary (1.4-1.7x faster at 10^7 edges; see
    ``docs/architecture.md``).  Output bytes are identical either way.
    """

    name = "multiprocessing"
    zero_copy_tiles = True

    def __init__(
        self,
        processes: int | None = None,
        start_method: str | None = None,
    ) -> None:
        import multiprocessing as mp

        self.processes = processes or max(1, (os.cpu_count() or 1))
        if start_method is None:
            start_method = default_start_method()
        elif start_method not in mp.get_all_start_methods():
            raise GenerationError(
                f"unknown multiprocessing start method {start_method!r}; "
                f"this platform offers {mp.get_all_start_methods()}"
            )
        self.start_method = start_method
        self._executor = None

    def _ensure_executor(self):
        if self._executor is not None and getattr(self._executor, "_broken", False):
            # One dead worker process poisons the whole
            # ProcessPoolExecutor (every later submit raises
            # BrokenProcessPool).  The work itself is deterministic and
            # re-runnable, so discard the carcass and let a fresh pool
            # take its place instead of staying broken for the rest of
            # the run.
            self._executor.shutdown(wait=False)
            self._executor = None
        if self._executor is None:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=mp.get_context(self.start_method),
            )
        return self._executor

    def submit(self, fn: Callable[[T], R], item: T) -> WorkHandle:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return self._ensure_executor().submit(fn, item)
        except BrokenProcessPool:
            # The pool broke between the health check and the submit;
            # rebuild once and resubmit (a second break propagates).
            self._executor.shutdown(wait=False)
            self._executor = None
            return self._ensure_executor().submit(fn, item)

    def as_completed(
        self, handles: Sequence[WorkHandle]
    ) -> Iterator[WorkHandle]:
        return _futures_as_completed(handles)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


_BACKENDS: Dict[str, Callable[[], Backend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "multiprocessing": MultiprocessingBackend,
}


def list_backends() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_BACKENDS)


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name.

    >>> get_backend("serial").name
    'serial'
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise GenerationError(
            f"unknown backend {name!r}; choose from {list_backends()}"
        ) from None
    return factory()


def make_backend(name: str, workers: int | None = None) -> Backend:
    """Instantiate a registered backend sized to ``workers``.

    ``workers=None`` defers to the backend's own default sizing (same as
    :func:`get_backend`).  ``serial`` accepts only 1; ``thread`` /
    ``multiprocessing`` size their pools.
    """
    if workers is None:
        return get_backend(name)
    if workers < 1:
        raise GenerationError(f"workers must be >= 1, got {workers}")
    if name == "serial":
        if workers != 1:
            raise GenerationError(
                f"the serial backend is single-worker; got workers={workers}"
            )
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(max_workers=workers)
    if name == "multiprocessing":
        return MultiprocessingBackend(processes=workers)
    raise GenerationError(
        f"unknown backend {name!r}; choose from {list_backends()}"
    )


def resolve_backend(backend: BackendLike) -> Backend:
    """Normalize a backend name / instance / None to an instance.

    ``None`` means the default :class:`SerialBackend`; a string is looked
    up in the registry; anything satisfying the :class:`~repro.typing.Backend`
    protocol (``submit`` and ``as_completed``) passes through unchanged.
    Anything else — a map-only object included — is refused.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, Backend):
        return backend
    raise GenerationError(
        f"backend must be a name, a Backend instance, or None; got {backend!r}"
    )
