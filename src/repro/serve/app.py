"""The asyncio design/tile server.

One event loop, three endpoints:

* ``GET /v1/design/{digest}`` and ``POST /v1/design`` — analytic
  :class:`~repro.catalog.DesignProperties` through the
  :class:`~repro.catalog.DesignCatalog`.  A **warm** hit is answered
  from memory: each record in the catalog cache is read and validated
  once, and its 200 and 304 replies are kept prebuilt, so a hit is one
  socket write on the event loop (never a file read, the executor or
  the engine).  A miss reads the cache file in the worker executor; a
  **cold** compute runs there too, so the event loop stays responsive,
  and concurrent identical cold requests are coalesced into a single
  computation (*single-flight*).  Responses carry an ``ETag`` equal to
  the record checksum and an immutable ``Cache-Control`` — a record is
  a pure function of its digest and of whether it holds the
  participation histograms, so clients may cache forever.
* ``GET /v1/tiles/{digest}/{rank}?start=&stop=`` — on-demand tile
  generation through the existing plan/model layer, streamed as chunked
  :mod:`repro.net` frames (OPEN / TILE / COMMIT / RESULT).  Tiles are
  produced by :func:`repro.engine.iter_task_tiles`, the same
  transform path the local engine uses, so a reassembled stream is
  byte-identical to a local :func:`~repro.engine.execute` run.
* ``GET /v1/health`` and ``GET /v1/metrics`` — liveness and the
  :class:`~repro.runtime.MetricsRegistry` snapshot.

Back-pressure and failure policy: at most ``max_concurrency`` requests
are in flight (the rest get an immediate 429), every request carries a
deadline (``request_timeout_s``; 503 before the response starts, an
ABORT frame after), a request's tiling ``budget=`` may not exceed the
server's ``memory_budget_entries`` (413), and a client that disconnects
mid-stream tears down only its own request — tiles are pulled on the
event loop, one per loop turn, so a stream owns no queues, threads, or
shared memory that could leak.  :meth:`DesignServer.stop` ends every
open connection and waits for its handler.

Addressing: designs are named by their partition-invariant catalog
digest (:func:`repro.catalog.key_digest`).  A digest alone cannot
reconstruct a design, so the server keeps an in-memory registry
populated by ``POST /v1/design`` (and CLI preloads); ``GET`` of an
unregistered, uncached digest is a 404.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.catalog import DesignCatalog, key_digest
from repro.design import PowerLawDesign
from repro.engine import iter_task_tiles, plan_from_design, plan_from_model
from repro.errors import DesignError, GenerationError, ReproError
from repro.models import MODEL_CHOICES, resolve_model
from repro.net.codec import (
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_TILE,
    encode_control_payload,
    encode_frame,
    frame_parts,
    tile_payload_parts,
)
from repro.runtime import MetricsRegistry
from repro.runtime.tracing import Tracer
from repro.serve.http import (
    BadRequest,
    ChunkedWriter,
    PayloadTooLarge,
    Request,
    empty_response,
    json_response,
    read_request,
    send_json,
)

#: Cache-Control for design records: the record for a digest is a pure
#: function of the digest, so it is immutable by construction.
_DESIGN_CACHE_CONTROL = "public, max-age=31536000, immutable"

#: Bucket bounds (seconds) of the per-phase server histograms: a 1-2-5
#: series that resolves 10 µs to 10 ms.
PHASE_BUCKETS = (1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`DesignServer`."""

    host: str = "127.0.0.1"
    #: Port to bind; ``0`` asks the OS for a free one (see
    #: :attr:`DesignServer.port` after :meth:`DesignServer.start`).
    port: int = 0
    #: Catalog cache directory; ``None`` serves from memory only (every
    #: design query recomputes — fine for tests, wrong for serving).
    cache_dir: Optional[str] = None
    #: Default rank count for tile plans (per-request ``ranks=`` wins).
    ranks: int = 4
    #: Default tiling budget for tile plans, and the largest ``budget=``
    #: a request may ask for (413 above).  Tiles are pulled on the event
    #: loop, so this bounds how long one pull holds it.  A tile of 2^14
    #: entries is a ~400 KB TILE frame; one of the engine's 5·10^7
    #: default would pass ``MAX_FRAME_BYTES``.
    memory_budget_entries: int = 1 << 14
    #: Requests in flight before new ones get an immediate 429.
    max_concurrency: int = 64
    #: Per-request deadline: 503 before the response starts, an ABORT
    #: frame once a stream is underway.
    request_timeout_s: float = 30.0
    #: Largest explicit tile range one request may ask for (413 above);
    #: open-ended streams that exceed it are aborted mid-stream.
    max_tiles_per_request: int = 4096
    #: Largest accepted request body.
    max_body_bytes: int = 1 << 20
    #: Worker threads for cache reads, cold computes, and plan builds.
    executor_workers: int = 4
    #: Stop after this many handled requests (test/CI convenience).
    max_requests: Optional[int] = None


class _HttpError(Exception):
    """Internal shortcut: raise to answer a plain JSON error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Registered:
    """A design the server can rebuild plans and records for."""

    digest: str
    subject: object  # PowerLawDesign (kron) or a GeneratorModel instance
    design: PowerLawDesign
    spec: Dict


@dataclass(frozen=True)
class _DesignReplies:
    """One design record's complete 200 (``ok``) and 304
    (``not_modified``) responses, head and body, built once."""

    etag: str
    has_participation: bool
    ok: bytes
    not_modified: bytes


def _design_replies(digest: str, record, cached: bool) -> _DesignReplies:
    etag = f'"{record.checksum()}"'
    headers = {"ETag": etag, "Cache-Control": _DESIGN_CACHE_CONTROL}
    doc = {
        "digest": digest,
        "source": record.source,
        "cached": cached,
        "record": record.to_doc(),
    }
    return _DesignReplies(
        etag=etag,
        has_participation=record.triangles.has_participation,
        ok=json_response(200, doc, headers=headers),
        not_modified=empty_response(304, headers=headers),
    )


def _answers(replies: Optional[_DesignReplies], include_participation: bool) -> bool:
    """Whether ``replies`` may answer a request (with participation?)."""
    return replies is not None and (
        replies.has_participation or not include_participation
    )


def _compute_analytic(catalog, subject, include_participation):
    """The cold-path computation (module-level so tests can monkeypatch
    in a slow or gated compute to exercise 429/single-flight paths)."""
    return catalog.analytic(
        subject, include_participation=include_participation
    )


def _control_frame(frame_type: int, doc: Dict, rank: int = -1) -> bytes:
    return encode_frame(frame_type, encode_control_payload(doc), rank=rank)


def design_spec_from_doc(doc) -> Tuple[object, PowerLawDesign, Dict]:
    """A request body → ``(catalog subject, design, normalized spec)``.

    The subject is what :func:`repro.catalog.key_digest` is taken over:
    the design itself for the deterministic model, the resolved model
    instance for the SKG family (their digests differ — a noisy run is
    not the deterministic graph).
    """
    if not isinstance(doc, dict):
        raise _HttpError(422, "design spec must be a JSON object")
    unknown = set(doc) - {
        "star_sizes", "self_loop", "model", "seed", "noise", "participation",
    }
    if unknown:
        raise _HttpError(422, f"unknown design fields {sorted(unknown)}")
    sizes = doc.get("star_sizes")
    if not isinstance(sizes, list) or not sizes or not all(
        isinstance(m, int) and not isinstance(m, bool) for m in sizes
    ):
        raise _HttpError(
            422, "star_sizes must be a non-empty list of integers"
        )
    model_name = doc.get("model", "kron")
    if model_name not in MODEL_CHOICES:
        raise _HttpError(
            422, f"model must be one of {list(MODEL_CHOICES)}"
        )
    seed = doc.get("seed", 0)
    noise = doc.get("noise", 0.1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _HttpError(422, "seed must be an integer")
    if not isinstance(noise, (int, float)) or isinstance(noise, bool):
        raise _HttpError(422, "noise must be a number")
    try:
        design = PowerLawDesign(sizes, doc.get("self_loop"))
        subject = resolve_model(
            model_name, design=design, seed=seed, noise=float(noise)
        )
    except (DesignError, GenerationError) as exc:
        raise _HttpError(422, str(exc)) from exc
    if subject is None:
        subject = design
    spec = {
        "star_sizes": [int(m) for m in sizes],
        "self_loop": design.self_loop.value,
        "model": model_name,
        "seed": int(seed),
        "noise": float(noise),
    }
    return subject, design, spec


def _normalize_digest(raw: str) -> str:
    """URL digest (bare hex or ``sha256:hex``) → canonical form."""
    hexpart = raw.split(":", 1)[-1]
    if raw.count(":") > 1 or not hexpart or not all(
        c in "0123456789abcdef" for c in hexpart
    ):
        raise _HttpError(404, f"malformed digest {raw!r}")
    return f"sha256:{hexpart}"


def _int_param(request: Request, name: str, default: Optional[int]) -> Optional[int]:
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise _HttpError(
            422, f"query parameter {name}={raw!r} is not an integer"
        ) from exc


class DesignServer:
    """The asyncio graph service (see the module docstring)."""

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.catalog = DesignCatalog(config.cache_dir)
        self.registry: Dict[str, _Registered] = {}
        #: The warm tier: per digest, the replies of the newest record
        #: read from or stored to the catalog cache.
        self._warm: Dict[str, _DesignReplies] = {}
        self._plans: Dict[Tuple[str, int, int], object] = {}
        self._inflight: Dict[Tuple[str, bool], asyncio.Task] = {}
        #: Open connections: each handler task and its stream writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.executor_workers,
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._active = 0
        self._handled = 0
        self._done = asyncio.Event()
        self.port: Optional[int] = None
        metric = self.metrics
        self._requests = metric.counter("serve.requests")
        self._active_gauge = metric.gauge("serve.active_requests")
        self._request_s = metric.histogram("serve.request_s")
        self._cache_hits = metric.counter("serve.design_cache_hits")
        self._tiles_streamed = metric.counter("serve.tiles_streamed")
        self._parse_s = metric.histogram("serve.parse_s", PHASE_BUCKETS)
        self._lookup_s = metric.histogram("serve.design.lookup_s", PHASE_BUCKETS)
        self._write_s = metric.histogram("serve.design.write_s", PHASE_BUCKETS)
        self._tile_generate_s = metric.histogram(
            "serve.tiles.generate_s", PHASE_BUCKETS
        )
        self._tile_encode_s = metric.histogram(
            "serve.tiles.encode_s", PHASE_BUCKETS
        )
        self._tile_write_s = metric.histogram("serve.tiles.write_s", PHASE_BUCKETS)

    # -- registry -----------------------------------------------------------
    def register(self, doc) -> str:
        """Register a design spec; returns its catalog digest.

        Idempotent — registering the same spec twice lands on the same
        digest and entry.  Used by ``POST /v1/design`` and CLI preload.
        """
        subject, design, spec = design_spec_from_doc(doc)
        digest = key_digest(subject)
        self.registry[digest] = _Registered(
            digest=digest, subject=subject, design=design, spec=spec
        )
        return digest

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening, end every open connection, and wait for their
        handlers, so none is left for the loop's teardown to cancel."""
        if self._server is not None:
            self._server.close()
        for task, writer in list(self._connections.items()):
            writer.transport.abort()
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)
        self._done.set()

    async def serve_until_done(self) -> None:
        """Block until :meth:`stop` (or the ``max_requests`` budget)."""
        await self._done.wait()

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- connection loop ----------------------------------------------------
    def _accept(self, reader, writer) -> None:
        """Run each connection as a handler task that :meth:`stop` owns."""
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except BadRequest as exc:
                    self.metrics.counter("serve.http_errors").inc()
                    await send_json(writer, 400, {"error": str(exc), "status": 400})
                    break
                except PayloadTooLarge as exc:
                    self.metrics.counter("serve.http_errors").inc()
                    await send_json(writer, 413, {"error": str(exc), "status": 413})
                    break
                if request is None:
                    break
                self._parse_s.observe(time.perf_counter() - request.arrived)
                keep_alive = await self._dispatch(request, writer)
                self._handled += 1
                if (
                    self.config.max_requests is not None
                    and self._handled >= self.config.max_requests
                ):
                    self._done.set()
                    break
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self.metrics.counter("serve.disconnects").inc()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: Request, writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        self._requests.inc()
        if self._active >= self.config.max_concurrency:
            self.metrics.counter("serve.rejected_busy").inc()
            await send_json(
                writer,
                429,
                {"error": "server saturated; retry later", "status": 429},
                headers={"Retry-After": "1"},
            )
            return request.keep_alive
        self._active += 1
        self._active_gauge.set(self._active)
        started = time.monotonic()
        deadline = started + self.config.request_timeout_s
        try:
            with self.tracer.span(
                "serve.request", method=request.method, path=request.path
            ):
                try:
                    await self._route(request, writer, deadline)
                except _HttpError as exc:
                    self.metrics.counter("serve.http_errors").inc()
                    await send_json(
                        writer,
                        exc.status,
                        {"error": str(exc), "status": exc.status},
                    )
                except asyncio.TimeoutError:
                    self.metrics.counter("serve.timeouts").inc()
                    await send_json(
                        writer,
                        503,
                        {"error": "request deadline exceeded", "status": 503},
                    )
                except ReproError as exc:
                    self.metrics.counter("serve.http_errors").inc()
                    await send_json(
                        writer, 500, {"error": str(exc), "status": 500}
                    )
            return request.keep_alive
        finally:
            self._active -= 1
            self._active_gauge.set(self._active)
            self._request_s.observe(time.monotonic() - started)

    async def _route(self, request: Request, writer, deadline: float) -> None:
        parts = [p for p in request.path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {request.path!r}")
        tail = parts[1:]
        if tail == ["health"]:
            if request.method != "GET":
                raise _HttpError(405, "health is GET-only")
            await send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "designs": len(self.registry),
                    "active": self._active,
                },
            )
            return
        if tail == ["metrics"]:
            if request.method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            await send_json(writer, 200, self.metrics.snapshot())
            return
        if tail == ["design"]:
            if request.method != "POST":
                raise _HttpError(405, "POST a design spec here")
            await self._handle_design_post(request, writer, deadline)
            return
        if len(tail) == 2 and tail[0] == "design":
            if request.method != "GET":
                raise _HttpError(405, "design records are GET-only")
            await self._handle_design_get(request, writer, tail[1], deadline)
            return
        if len(tail) == 3 and tail[0] == "tiles":
            if request.method != "GET":
                raise _HttpError(405, "tile streams are GET-only")
            await self._handle_tiles(request, writer, tail[1], tail[2], deadline)
            return
        raise _HttpError(404, f"unknown path {request.path!r}")

    # -- design records -----------------------------------------------------
    def _keep_warm(self, digest: str, replies: _DesignReplies) -> _DesignReplies:
        """Make ``replies`` the digest's warm entry; returns the entry.

        Each record that lands replaces the entry, as each store
        replaces the digest's one cache file, except that a record
        without the participation histograms never replaces one with
        them: it can only be a stale read or a slower plain compute
        racing the upgrade.
        """
        current = self._warm.get(digest)
        if (
            current is None
            or replies.has_participation
            or not current.has_participation
        ):
            self._warm[digest] = current = replies
        return current

    def _read_cached(self, digest: str) -> Optional[_DesignReplies]:
        """One validated cache read, its replies built (executor side)."""
        record = self.catalog.cache.load(digest, "analytic")
        return None if record is None else _design_replies(digest, record, True)

    async def _lookup(
        self, digest: str, include_participation: bool
    ) -> Optional[_DesignReplies]:
        """The warm entry for ``digest``, else one cache read in the
        executor that fills it; ``None`` when neither has a record that
        satisfies the request (never the engine)."""
        started = time.perf_counter()
        replies = self._warm.get(digest)
        if (
            not _answers(replies, include_participation)
            and self.catalog.cache is not None
        ):
            loop = asyncio.get_running_loop()
            read = await loop.run_in_executor(
                self._executor, self._read_cached, digest
            )
            if read is not None:
                replies = self._keep_warm(digest, read)
        self._lookup_s.observe(time.perf_counter() - started)
        return replies if _answers(replies, include_participation) else None

    async def _compute_single_flight(
        self, digest: str, subject, include_participation: bool, deadline: float
    ):
        """Coalesce concurrent cold computes for one digest.

        The first requester creates the compute task; everyone else
        awaits the same task through a shield, so a waiter hitting its
        deadline abandons the wait without cancelling the computation
        the other requesters (and the cache) still want.  The task
        fills the warm entry once the catalog cache holds the record.
        """
        key = (digest, include_participation)
        task = self._inflight.get(key)
        if task is None:
            self.metrics.counter("serve.design_computes").inc()
            task = asyncio.ensure_future(
                self._compute(digest, subject, include_participation)
            )
            self._inflight[key] = task
            task.add_done_callback(lambda _t: self._inflight.pop(key, None))
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise asyncio.TimeoutError
        return await asyncio.wait_for(asyncio.shield(task), timeout=remaining)

    async def _compute(self, digest: str, subject, include_participation: bool):
        loop = asyncio.get_running_loop()
        record = await loop.run_in_executor(
            self._executor,
            _compute_analytic,
            self.catalog,
            subject,
            include_participation,
        )
        if self.catalog.cache is not None:
            # DesignCatalog.analytic stored it: the record is in the cache.
            self._keep_warm(digest, _design_replies(digest, record, True))
        return record

    async def _respond_design(
        self, request: Request, writer, replies: _DesignReplies
    ) -> None:
        started = time.perf_counter()
        if request.header("if-none-match", "").strip() == replies.etag:
            writer.write(replies.not_modified)
        else:
            writer.write(replies.ok)
        await writer.drain()
        self._write_s.observe(time.perf_counter() - started)

    async def _serve_design(
        self,
        request: Request,
        writer,
        digest: str,
        include_participation: bool,
        deadline: float,
    ) -> None:
        """Answer from the warm tier or the cache; compute on a miss."""
        replies = await self._lookup(digest, include_participation)
        if replies is not None:
            self._cache_hits.inc()
            await self._respond_design(request, writer, replies)
            return
        registered = self.registry.get(digest)
        if registered is None:
            raise _HttpError(
                404,
                f"unknown digest {digest}; POST its design spec to "
                "/v1/design first",
            )
        record = await self._compute_single_flight(
            digest, registered.subject, include_participation, deadline
        )
        await self._respond_design(
            request, writer, _design_replies(digest, record, False)
        )

    async def _handle_design_post(
        self, request: Request, writer, deadline: float
    ) -> None:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        include_participation = bool(
            isinstance(doc, dict) and doc.get("participation", False)
        )
        digest = self.register(doc)
        await self._serve_design(
            request, writer, digest, include_participation, deadline
        )

    async def _handle_design_get(
        self, request: Request, writer, raw_digest: str, deadline: float
    ) -> None:
        digest = _normalize_digest(raw_digest)
        include_participation = request.query.get("participation") in (
            "1", "true", "yes",
        )
        await self._serve_design(
            request, writer, digest, include_participation, deadline
        )

    # -- tile streams -------------------------------------------------------
    @staticmethod
    def _build_plan(registered: _Registered, ranks: int, budget: int):
        if registered.spec["model"] == "kron":
            return plan_from_design(
                registered.design, ranks, memory_budget_entries=budget
            )
        return plan_from_model(
            registered.subject, ranks, memory_budget_entries=budget
        )

    async def _handle_tiles(
        self, request: Request, writer, raw_digest: str, raw_rank: str, deadline: float
    ) -> None:
        self.metrics.counter("serve.tile_requests").inc()
        digest = _normalize_digest(raw_digest)
        registered = self.registry.get(digest)
        if registered is None:
            raise _HttpError(
                404,
                f"unknown digest {digest}; POST its design spec to "
                "/v1/design first",
            )
        try:
            rank = int(raw_rank)
        except ValueError as exc:
            raise _HttpError(
                422, f"rank {raw_rank!r} is not an integer"
            ) from exc
        ranks = _int_param(request, "ranks", self.config.ranks)
        budget = _int_param(
            request, "budget", self.config.memory_budget_entries
        )
        start = _int_param(request, "start", 0)
        stop = _int_param(request, "stop", None)
        if ranks < 1:
            raise _HttpError(422, f"ranks={ranks} must be positive")
        if budget < 1:
            raise _HttpError(422, f"budget={budget} must be positive")
        if budget > self.config.memory_budget_entries:
            raise _HttpError(
                413,
                f"budget={budget} exceeds this server's limit of "
                f"{self.config.memory_budget_entries} entries",
            )
        if rank < 0 or rank >= ranks:
            raise _HttpError(
                422, f"rank {rank} out of range for a {ranks}-rank plan"
            )
        if start < 0:
            raise _HttpError(422, f"start={start} must be non-negative")
        if stop is not None and stop <= start:
            raise _HttpError(
                422, f"empty tile range [{start}, {stop})"
            )
        if stop is not None and stop - start > self.config.max_tiles_per_request:
            raise _HttpError(
                413,
                f"range of {stop - start} tiles exceeds the per-request "
                f"limit of {self.config.max_tiles_per_request}",
            )
        key = (digest, ranks, budget)
        plan = self._plans.get(key)
        if plan is None:
            loop = asyncio.get_running_loop()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError
            try:
                plan = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._executor, self._build_plan, registered, ranks, budget
                    ),
                    timeout=remaining,
                )
            except ReproError as exc:
                raise _HttpError(422, f"cannot plan this run: {exc}") from exc
            self._plans[key] = plan
        task = plan.tasks[rank]
        await self._stream_tiles(
            writer, digest, plan, task, rank, start, stop, deadline
        )

    async def _stream_tiles(
        self, writer, digest, plan, task, rank, start, stop, deadline
    ) -> None:
        """Pump one rank's tiles through a chunked response.

        The generator is pulled on the event loop, and the stream gives
        the loop one turn after each pulled tile (``drain()`` does not
        yield below the write high-water mark), so other connections are
        served between tiles and a pull holds the loop for one tile of a
        budget the server bounds.  A disconnecting client ends the
        request between pulls — there are no queues, producer tasks,
        threads, or shared-memory segments to leak.  An explicit
        ``[start, stop)`` pulls exactly ``stop`` tiles.  Each sent tile
        observes its generate time (the ``next()`` calls since the last
        sent tile), and its encode and write times.
        """
        chunked = ChunkedWriter(
            writer, headers={"Content-Type": "application/x-repro-frames"}
        )
        self.metrics.gauge("serve.open_streams").inc()
        gen = iter_task_tiles(plan, task)
        sent = 0
        nnz = 0
        index = 0
        try:
            open_doc = {
                "digest": digest,
                "rank": rank,
                "ranks": plan.n_ranks,
                "start": start,
                "stop": stop,
                "budget": plan.memory_budget_entries,
                "model": type(plan.model).__name__,
            }
            await chunked.write(_control_frame(FRAME_OPEN, open_doc, rank))
            pull_s = 0.0
            while stop is None or index < stop:
                if time.monotonic() >= deadline:
                    raise asyncio.TimeoutError
                pulling = time.perf_counter()
                tile = next(gen, None)
                pull_s += time.perf_counter() - pulling
                if tile is None:
                    break
                if index >= start:
                    if sent >= self.config.max_tiles_per_request:
                        raise _HttpError(
                            413,
                            f"open-ended stream exceeded the per-request "
                            f"limit of {self.config.max_tiles_per_request} "
                            "tiles",
                        )
                    rows, cols, vals = tile
                    encoding = time.perf_counter()
                    parts = frame_parts(
                        FRAME_TILE,
                        tile_payload_parts(rows, cols, vals),
                        rank=rank,
                        tile_index=index,
                    )
                    writing = time.perf_counter()
                    await chunked.write(*parts)
                    written = time.perf_counter()
                    self._tile_generate_s.observe(pull_s)
                    self._tile_encode_s.observe(writing - encoding)
                    self._tile_write_s.observe(written - writing)
                    pull_s = 0.0
                    sent += 1
                    nnz += int(rows.shape[0])
                    self._tiles_streamed.inc()
                index += 1
                await asyncio.sleep(0)
            stats = {"rank": rank, "tiles": sent, "nnz": nnz}
            await chunked.write(_control_frame(FRAME_COMMIT, stats, rank))
            await chunked.write(
                _control_frame(FRAME_RESULT, {"digest": digest, **stats})
            )
            await chunked.close()
            self.metrics.counter("serve.bytes_streamed").inc(
                chunked.bytes_sent
            )
        except (asyncio.TimeoutError, _HttpError, ReproError) as exc:
            if not chunked.started:
                raise
            # The head is gone; the only honest signal left is in-band.
            if isinstance(exc, asyncio.TimeoutError):
                self.metrics.counter("serve.timeouts").inc()
                message = "request deadline exceeded"
            else:
                self.metrics.counter("serve.http_errors").inc()
                message = str(exc)
            try:
                await chunked.write(
                    _control_frame(FRAME_ABORT, {"error": message}, rank)
                )
                await chunked.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self.metrics.counter("serve.disconnects").inc()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Mid-stream client disconnect: this request simply ends.
            # The keep-alive loop's next read observes the dead socket
            # and closes the connection; nothing else was allocated.
            self.metrics.counter("serve.disconnects").inc()
        finally:
            gen.close()
            self.metrics.gauge("serve.open_streams").dec()


# -- embedding helpers --------------------------------------------------------
class ServerHandle:
    """A :class:`DesignServer` running on a daemon-thread event loop.

    The shape tests and the load harness share: construct, use
    ``base_url`` from any thread, ``stop()`` when done.
    """

    def __init__(self, server: DesignServer, loop, thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def base_url(self) -> str:
        return self.server.base_url

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def register(self, doc) -> str:
        """Thread-safe registry preload (no HTTP round-trip)."""
        return asyncio.run_coroutine_threadsafe(
            _async_register(self.server, doc), self._loop
        ).result(timeout=30)

    def stop(self, timeout: float = 10.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


async def _async_register(server: DesignServer, doc) -> str:
    return server.register(doc)


def start_in_thread(
    config: ServerConfig = ServerConfig(),
    *,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ServerHandle:
    """Boot a server on its own event loop in a daemon thread."""
    loop = asyncio.new_event_loop()
    server_box: Dict[str, DesignServer] = {}
    ready = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        server = DesignServer(config, metrics=metrics, tracer=tracer)
        server_box["server"] = server
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()
        # stop() ended the connections; a cold compute may still be in
        # flight, so cancel it and close without destroying pending tasks.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("design server failed to start within 30s")
    return ServerHandle(server_box["server"], loop, thread)


__all__ = [
    "DesignServer",
    "ServerConfig",
    "ServerHandle",
    "design_spec_from_doc",
    "start_in_thread",
]
