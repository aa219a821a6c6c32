#!/usr/bin/env python
"""Load harness for the graph service: ``python tools/bench_load.py``.

Boots a :class:`repro.serve.DesignServer` on a daemon thread (or
targets a running server via ``--url``), performs one cold
``POST /v1/design`` to warm the catalog entry, then hammers the warm
``GET /v1/design/{digest}`` path with many concurrent clients — each
thread owning its own connection — and reports the latency
distribution (p50/p95/p99 in milliseconds) and aggregate throughput.

The contract being measured is the serving layer's whole point: a warm
design query is one cache file read behind an event loop, so under
concurrency it must stay flat (no engine executions, no lock convoy).
When the harness boots the server itself it asserts exactly that —
zero ``serve.design_computes`` during the measured phase, every
request a cache hit.

Measurements append to the ``BENCH_serve.json`` trajectory (created on
first run, never overwritten at the repo root; always copied into
``--artifact-dir`` for CI upload).  ``tools/bench_smoke.py`` guard 10
reuses :func:`run_load` and enforces the p99 floor against the
recorded trajectory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: The design every measurement uses, so trajectory entries compare
#: like with like: stochastic enough that a cold compute is visible,
#: small enough that CI never waits on it.
DEFAULT_SPEC = {
    "star_sizes": [3, 4, 5, 9],
    "self_loop": "center",
    "model": "noisy-skg",
    "seed": 3,
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_load(
    *,
    url: str | None = None,
    clients: int = 32,
    requests_per_client: int = 25,
    spec: dict | None = None,
    cache_dir: str | None = None,
    timeout: float = 30.0,
) -> dict:
    """Run one load measurement; returns the result document.

    With ``url=None`` the harness boots its own in-thread server (with
    a private metrics registry, so the zero-engine-executions assertion
    is airtight) and tears it down afterwards.  Against a remote
    ``url`` the latency numbers are still measured but the metrics
    assertions are skipped — another process's registry is not visible
    here.
    """
    from repro.errors import ServeError
    from repro.runtime import MetricsRegistry
    from repro.serve import ServeClient, ServerConfig, start_in_thread

    spec = dict(spec or DEFAULT_SPEC)
    handle = None
    metrics = None
    tmp = None
    if url is None:
        metrics = MetricsRegistry()
        if cache_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
            cache_dir = tmp.name
        handle = start_in_thread(
            ServerConfig(
                cache_dir=cache_dir,
                max_concurrency=max(64, clients * 2),
                request_timeout_s=timeout,
            ),
            metrics=metrics,
        )
        url = handle.base_url
    try:
        warmup = ServeClient(url, timeout=timeout)
        cold_start = time.perf_counter()
        reply = warmup.post_design(spec)
        cold_s = time.perf_counter() - cold_start
        digest = reply["digest"]
        warm_reply = warmup.get_design(digest)
        if not warm_reply.doc["cached"]:
            raise ServeError(
                "warm-up GET was not served from cache; the measured "
                "phase would not be measuring the warm path"
            )
        warmup.close()

        computes_before = None
        if metrics is not None:
            computes_before = metrics.counter("serve.design_computes").snapshot()

        latencies: list[list[float]] = [[] for _ in range(clients)]
        errors: list[str] = []
        barrier = threading.Barrier(clients + 1)

        def _client(slot: int) -> None:
            try:
                client = ServeClient(url, timeout=timeout)
                barrier.wait()
                for _ in range(requests_per_client):
                    start = time.perf_counter()
                    got = client.get_design(digest)
                    latencies[slot].append(time.perf_counter() - start)
                    if got.doc is not None and not got.doc["cached"]:
                        errors.append(f"client {slot}: uncached warm reply")
                client.close()
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                errors.append(f"client {slot}: {exc}")

        threads = [
            threading.Thread(target=_client, args=(slot,), daemon=True)
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        wall_start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=timeout * clients)
        wall_s = time.perf_counter() - wall_start

        flat = sorted(s for per in latencies for s in per)
        completed = len(flat)
        result = {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "completed": completed,
            "errors": errors,
            "cold_s": cold_s,
            "wall_s": wall_s,
            "p50_ms": percentile(flat, 0.50) * 1e3,
            "p95_ms": percentile(flat, 0.95) * 1e3,
            "p99_ms": percentile(flat, 0.99) * 1e3,
            "rps": completed / wall_s if wall_s > 0 else float("nan"),
            "digest": digest,
        }
        if metrics is not None:
            computes_after = metrics.counter("serve.design_computes").snapshot()
            result["warm_computes"] = computes_after - computes_before
            result["cache_hits"] = metrics.counter(
                "serve.design_cache_hits"
            ).snapshot()
        return result
    finally:
        if handle is not None:
            handle.stop()
        if tmp is not None:
            tmp.cleanup()


def record_trajectory(
    root: Path, result: dict, artifact_dir: Path | None
) -> dict:
    """Append ``result`` to the BENCH_serve.json trajectory.

    Repo-root file is created on first run and never overwritten;
    the merged document always lands in ``artifact_dir`` when given.
    """
    entry = {
        key: result[key]
        for key in (
            "clients",
            "requests_per_client",
            "completed",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "rps",
            "cold_s",
        )
    }
    if "warm_computes" in result:
        entry["warm_computes"] = result["warm_computes"]
    bench_path = root / "BENCH_serve.json"
    trajectory: list[dict] = []
    if bench_path.exists():
        with open(bench_path, "r", encoding="utf-8") as fh:
            trajectory = json.load(fh)["trajectory"]
    trajectory = trajectory + [entry]
    document = {
        "schema": 1,
        "command": "bench-load",
        "spec": DEFAULT_SPEC,
        "trajectory": trajectory,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if not bench_path.exists():
        bench_path.write_text(text)
        print(f"bench-load: recorded {bench_path.name}", file=sys.stderr)
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        out = artifact_dir / bench_path.name
        out.write_text(text)
        print(f"bench-load: wrote trajectory to {out}", file=sys.stderr)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url",
        type=str,
        default=None,
        help="target a running server instead of booting one in-process "
        "(metrics assertions are skipped)",
    )
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--requests", type=int, default=25)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced load for CI probes (8 clients x 8 requests)",
    )
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="also write the BENCH_serve.json trajectory here",
    )
    args = parser.parse_args(argv)

    clients = 8 if args.smoke else args.clients
    requests_per_client = 8 if args.smoke else args.requests
    result = run_load(
        url=args.url,
        clients=clients,
        requests_per_client=requests_per_client,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
    )
    if result["errors"]:
        for line in result["errors"][:10]:
            print(f"bench-load: ERROR {line}", file=sys.stderr)
        return 1
    expected = clients * requests_per_client
    if result["completed"] != expected:
        print(
            f"bench-load: only {result['completed']}/{expected} requests "
            "completed",
            file=sys.stderr,
        )
        return 1
    if result.get("warm_computes", 0) != 0:
        print(
            f"bench-load: {result['warm_computes']} engine computes "
            "during the warm phase; the cache is not serving",
            file=sys.stderr,
        )
        return 1
    record_trajectory(ROOT, result, args.artifact_dir)
    print(
        f"bench-load: {result['completed']} warm queries from {clients} "
        f"clients — p50 {result['p50_ms']:.2f}ms, p95 "
        f"{result['p95_ms']:.2f}ms, p99 {result['p99_ms']:.2f}ms, "
        f"{result['rps']:,.0f} req/s (cold compute {result['cold_s']:.3f}s)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
