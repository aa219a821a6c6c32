#!/usr/bin/env python
"""Benchmark smoke target: ``python tools/bench_smoke.py``.

Seven cheap CI guards:

1. the Fig.-3 scaling benchmark at toy scale (the metrics-snapshot test
   only), asserting a machine-readable metrics JSON was produced — the
   perf trajectory stays observable;
2. a tiny ``--memory-budget`` streamed run, asserting the engine
   actually tiled (``engine.tiles`` > rank count) AND that the tiled
   output is byte-identical to the default-budget run — the
   bounded-memory path stays exact;
3. the chunked shard reader against a per-line reference, asserting
   equality and a throughput floor — the fast path stays fast;
4. a streamed run with one injected 10× straggler rank on a 4-worker
   thread backend, run under both schedulers, asserting the work queue
   beats the static path on wall-clock, beats it on worker utilization
   (with an absolute floor), and produces byte-identical shards and
   manifest — the completion-driven path stays both faster and exact;
5. the model-determinism guard: a stochastic-Kronecker (``skg``) run
   executed twice with the same seed must produce byte-identical shards
   and manifest, a different seed must change the bytes, and the
   per-model edges/sec (``kron``/``skg``/``noisy-skg`` at a common toy
   scale) is appended to the recorded ``BENCH_models.json`` trajectory —
   counter-based seeding stays reproducible and the model layer's
   throughput stays observable;
6. the catalog-cache guard: a warm ``DesignCatalog`` lookup of a
   stochastic-model record must return the cold compute's record and
   leave its cache entry byte-identical; a corrupted (bit-flipped)
   entry must be silently recomputed — never trusted, never a crash —
   restoring the original bytes; the cold/warm latencies and speedup
   are appended to the recorded ``BENCH_catalog.json`` trajectory — the
   design-server latency contract stays measured (that a warm lookup
   computes nothing is asserted by
   ``tests/test_catalog_cache.py::test_warm_lookup_hits_without_recompute``);
7. the serve-latency guard: 32 concurrent clients issuing warm
   ``GET /v1/design/{digest}`` queries against an in-process
   :class:`repro.serve.DesignServer` must all be served from the
   catalog cache (zero engine executions during the measured phase)
   with p99 latency under the recorded floor x10; the latency
   distribution and throughput are appended to the recorded
   ``BENCH_serve.json`` trajectory (shared with
   ``tools/bench_load.py``) — the serving layer's warm-path latency
   contract stays enforced.

Byte-identity after an interrupted-then-resumed run and over the
socket transport are tier-1 tests
(``tests/test_stream_resume.py::TestResume::test_interrupted_then_resumed_is_byte_identical``,
``tests/test_sink_conformance.py::TestByteIdentityAcrossTransports::test_shard_output_byte_identical``).

With ``--artifact-dir`` the tiled and straggler runs' metrics snapshots
plus the updated ``BENCH_*.json`` trajectories are written there for CI
to upload.  The full benchmark suite is run separately.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def smoke_tiled_budget(
    root: Path, memory_budget: int | None, artifact_dir: Path | None
) -> int:
    """Run the streamed generator under a tiny tile budget and require
    (a) real tiling happened, (b) byte-identity with the default run."""
    sys.path.insert(0, str(root / "src"))
    from repro.design import PowerLawDesign
    from repro.engine import RunConfig
    from repro.parallel import generate_to_disk
    from repro.runtime import MetricsRegistry

    design = PowerLawDesign([3, 4, 5], "center")
    n_ranks = 5
    if memory_budget is None:
        # 63 is the smallest budget at which both split halves of this
        # design's factor nnzs [7, 9, 11] still fit.
        memory_budget = 63
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-tile-smoke-") as tmp:
        default_dir, tiny_dir = Path(tmp) / "default", Path(tmp) / "tiny"
        generate_to_disk(design, n_ranks, default_dir)
        generate_to_disk(
            design,
            n_ranks,
            tiny_dir,
            config=RunConfig(memory_budget_entries=memory_budget),
            metrics=metrics,
        )
        snapshot = metrics.snapshot()
        tiles = snapshot["counters"].get("engine.tiles", 0)
        if tiles <= n_ranks:
            print(
                f"bench-smoke: budget {memory_budget} produced only {tiles} "
                f"tiles over {n_ranks} ranks — tiling did not engage",
                file=sys.stderr,
            )
            return 1
        for path in sorted(default_dir.iterdir()):
            if (tiny_dir / path.name).read_bytes() != path.read_bytes():
                print(
                    f"bench-smoke: {path.name} differs under tile budget "
                    f"{memory_budget}",
                    file=sys.stderr,
                )
                return 1
    snapshot["run"] = {
        "command": "bench-smoke tiled-budget",
        "memory_budget_entries": memory_budget,
        "ranks": n_ranks,
        "tiles": tiles,
        "peak_tile_entries": snapshot["gauges"].get("engine.peak_tile_entries"),
    }
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        out = artifact_dir / "tiled_budget_metrics.json"
        out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"bench-smoke: wrote tiled-run metrics to {out}", file=sys.stderr)
    print(
        f"bench-smoke: OK — budget {memory_budget} cut {tiles:.0f} tiles "
        f"(peak {snapshot['run']['peak_tile_entries']:.0f} entries), "
        "output byte-identical to default budget",
        file=sys.stderr,
    )
    return 0


class StragglerDelay:
    """Injector that *delays* instead of failing: one rank sleeps 10×
    longer than the rest inside the worker, before the kernel.

    Module-level and stateless (delay is a function of ``rank``) so it
    pickles across process boundaries, same contract as
    :class:`repro.runtime.FailureInjector`.
    """

    def __init__(
        self, slow_rank: int = 0, slow_s: float = 0.5, base_s: float = 0.05
    ) -> None:
        self.slow_rank = slow_rank
        self.slow_s = slow_s
        self.base_s = base_s

    def __call__(self, rank: int, attempt: int) -> None:
        time.sleep(self.slow_s if rank == self.slow_rank else self.base_s)


def smoke_straggler_queue(root: Path, artifact_dir: Path | None) -> int:
    """Same plan, same 4-worker thread backend, one 10× straggler rank:
    the work-queue scheduler must finish faster and busier than the
    static rank-by-rank path, with byte-identical output."""
    sys.path.insert(0, str(root / "src"))
    from repro.design import PowerLawDesign
    from repro.engine import RunConfig, WorkQueueScheduler
    from repro.parallel import generate_to_disk
    from repro.parallel.backends import ThreadBackend
    from repro.runtime import MetricsRegistry

    design = PowerLawDesign([3, 4, 5], "center")
    n_ranks = 8
    delay = StragglerDelay()
    utilization_floor = 0.30
    results: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-straggler-smoke-") as tmp:
        for label, scheduler in (
            ("static", None),  # generate_to_disk default: rank-by-rank
            ("queue", WorkQueueScheduler()),
        ):
            backend = ThreadBackend(max_workers=4)
            metrics = MetricsRegistry()
            out = Path(tmp) / label
            t0 = time.perf_counter()
            generate_to_disk(
                design,
                n_ranks,
                out,
                config=RunConfig(backend=backend, scheduler=scheduler),
                failure_injector=delay,
                metrics=metrics,
            )
            wall = time.perf_counter() - t0
            backend.shutdown()
            gauges = metrics.snapshot()["gauges"]
            results[label] = {
                "wall_s": wall,
                "worker_utilization": gauges.get("engine.worker_utilization", 0.0),
                "straggler_gap_s": gauges.get("engine.straggler_gap_s", 0.0),
                "queue_depth": gauges.get("engine.queue_depth", 0.0),
            }
            results[label + "_dir"] = out
        static, queue = results["static"], results["queue"]
        names = sorted(p.name for p in results["static_dir"].iterdir())
        if names != sorted(p.name for p in results["queue_dir"].iterdir()):
            print("bench-smoke: scheduler runs wrote different files", file=sys.stderr)
            return 1
        for name in names:
            if (results["static_dir"] / name).read_bytes() != (
                results["queue_dir"] / name
            ).read_bytes():
                print(
                    f"bench-smoke: {name} differs between schedulers",
                    file=sys.stderr,
                )
                return 1
        if queue["wall_s"] >= static["wall_s"]:
            print(
                f"bench-smoke: queue wall {queue['wall_s']:.3f}s not below "
                f"static wall {static['wall_s']:.3f}s under the straggler",
                file=sys.stderr,
            )
            return 1
        if queue["worker_utilization"] <= static["worker_utilization"]:
            print(
                f"bench-smoke: queue utilization "
                f"{queue['worker_utilization']:.3f} not above static "
                f"{static['worker_utilization']:.3f}",
                file=sys.stderr,
            )
            return 1
        if queue["worker_utilization"] < utilization_floor:
            print(
                f"bench-smoke: queue utilization "
                f"{queue['worker_utilization']:.3f} below the "
                f"{utilization_floor} floor",
                file=sys.stderr,
            )
            return 1
    snapshot = {
        "run": {
            "command": "bench-smoke straggler-queue",
            "ranks": n_ranks,
            "workers": 4,
            "slow_rank": delay.slow_rank,
            "slow_s": delay.slow_s,
            "base_s": delay.base_s,
            "utilization_floor": utilization_floor,
        },
        "static": static,
        "queue": queue,
    }
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        out = artifact_dir / "straggler_queue_metrics.json"
        out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"bench-smoke: wrote straggler metrics to {out}", file=sys.stderr)
    print(
        "bench-smoke: OK — straggler run: queue "
        f"{queue['wall_s']:.3f}s (util {queue['worker_utilization']:.2f}) vs "
        f"static {static['wall_s']:.3f}s "
        f"(util {static['worker_utilization']:.2f}), output byte-identical",
        file=sys.stderr,
    )
    return 0


def smoke_degree_reader(root: Path) -> int:
    """Equality + throughput floor for the chunked shard reader."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from repro.parallel import read_streamed_degree_distribution
    from repro.parallel.stream import StreamingDegreeAccumulator

    num_vertices = 10_000
    lines = 150_000
    rng = np.random.default_rng(12345)
    rows = rng.integers(0, num_vertices, size=lines)
    cols = rng.integers(0, num_vertices, size=lines)
    with tempfile.TemporaryDirectory(prefix="repro-reader-smoke-") as tmp:
        path = Path(tmp) / "edges.0.tsv"
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{r}\t{c}\t1\n" for r, c in zip(rows, cols))
        # Per-line reference (the pre-optimization algorithm).
        reference = StreamingDegreeAccumulator(num_vertices)
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                reference.add_block_rows(np.array([int(line.split("\t", 1)[0])]))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fast = read_streamed_degree_distribution([path], num_vertices)
            best = min(best, time.perf_counter() - t0)
        if fast != reference.distribution():
            print(
                "bench-smoke: chunked reader disagrees with per-line reference",
                file=sys.stderr,
            )
            return 1
        rate = lines / best
        floor = 200_000.0
        if rate < floor:
            print(
                f"bench-smoke: chunked reader at {rate:,.0f} lines/s, "
                f"below the {floor:,.0f} floor",
                file=sys.stderr,
            )
            return 1
    print(
        f"bench-smoke: OK — chunked reader exact at {rate:,.0f} lines/s "
        f"(floor {200_000:,})",
        file=sys.stderr,
    )
    return 0


def _load_trajectory(path: Path) -> list[dict]:
    """Return the recorded measurement list, or [] if none yet."""
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["trajectory"]


def smoke_model_determinism(root: Path, artifact_dir: Path | None) -> int:
    """Guard 7: SKG seed determinism and the per-model BENCH trajectory."""
    sys.path.insert(0, str(root / "src"))
    from repro.design import PowerLawDesign
    from repro.engine import ShardSink, execute, plan_from_design, plan_from_model
    from repro.models import NoisySKGModel, StochasticKroneckerModel

    design = PowerLawDesign([3, 4, 5, 9], "center")
    n_ranks = 4

    def shard_tree(directory: Path) -> dict[str, bytes]:
        return {
            f.name: f.read_bytes()
            for f in sorted(directory.iterdir())
            if f.suffix in (".tsv", ".json")
        }

    def run(plan, directory: Path) -> float:
        start = time.perf_counter()
        result = execute(plan, ShardSink(directory))
        elapsed = time.perf_counter() - start
        return result.sink_result.total_edges / max(elapsed, 1e-9)

    models = {
        "kron": lambda: plan_from_design(design, n_ranks),
        "skg": lambda: plan_from_model(
            StochasticKroneckerModel(
                levels=11, num_edges=design.num_edges, seed=0
            ),
            n_ranks,
        ),
        "noisy-skg": lambda: plan_from_model(
            NoisySKGModel(levels=11, num_edges=design.num_edges, seed=0),
            n_ranks,
        ),
    }
    rates = {}
    with tempfile.TemporaryDirectory(prefix="repro-models-") as tmp:
        tmp_path = Path(tmp)
        for name, build in models.items():
            rates[name] = run(build(), tmp_path / name)
        # Same seed, fresh run: the bytes must not move.
        run(models["skg"](), tmp_path / "skg-again")
        if shard_tree(tmp_path / "skg") != shard_tree(tmp_path / "skg-again"):
            print(
                "bench-smoke: two same-seed skg runs disagree — "
                "counter-based determinism is broken",
                file=sys.stderr,
            )
            return 1
        # A different seed must actually change the output.
        reseeded = plan_from_model(
            StochasticKroneckerModel(
                levels=11, num_edges=design.num_edges, seed=1
            ),
            n_ranks,
        )
        run(reseeded, tmp_path / "skg-seed1")
        same = shard_tree(tmp_path / "skg")
        other = shard_tree(tmp_path / "skg-seed1")
        if {k: v for k, v in same.items() if k != "manifest.json"} == {
            k: v for k, v in other.items() if k != "manifest.json"
        }:
            print(
                "bench-smoke: seed 0 and seed 1 skg runs produced the "
                "same shards — the seed is not reaching the generator",
                file=sys.stderr,
            )
            return 1
    current = {
        name: {"edges_per_second": rate} for name, rate in rates.items()
    }
    bench_path = root / "BENCH_models.json"
    trajectory = _load_trajectory(bench_path) + [current]
    document = {
        "schema": 1,
        "command": "bench-smoke model-determinism",
        "design": list(design.star_sizes),
        "n_ranks": n_ranks,
        "trajectory": trajectory,
    }
    if len(trajectory) > 1:
        recorded = trajectory[-2]["skg"]["edges_per_second"]
        print(
            f"bench-smoke: skg at {rates['skg']:,.0f} edges/s "
            f"(recorded {recorded:,.0f})",
            file=sys.stderr,
        )
    if not bench_path.exists():
        bench_path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench-smoke: recorded {bench_path.name}", file=sys.stderr)
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        out = artifact_dir / bench_path.name
        out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"bench-smoke: wrote trajectory to {out}", file=sys.stderr)
    summary = ", ".join(
        f"{name} {rate:,.0f} edges/s" for name, rate in rates.items()
    )
    print(
        f"bench-smoke: OK — same-seed skg runs byte-identical, reseed "
        f"changes bytes; rates: {summary}",
        file=sys.stderr,
    )
    return 0


def smoke_catalog_cache(root: Path, artifact_dir: Path | None) -> int:
    """Guard 8: warm catalog lookups and corrupt-entry recompute."""
    sys.path.insert(0, str(root / "src"))
    from repro.catalog import DesignCatalog, key_digest
    from repro.catalog.record import SOURCE_ANALYTIC
    from repro.models import NoisySKGModel

    # Cheap enough for CI: the cold streamed compute takes ~11-14 ms on
    # a 2-core VM, the warm JSON read ~0.5-1.0 ms.
    model = NoisySKGModel(levels=12, num_edges=8192, seed=1)
    with tempfile.TemporaryDirectory(prefix="repro-catalog-") as tmp:
        catalog = DesignCatalog(Path(tmp))
        digest = key_digest(model)
        entry = catalog.cache.entry_path(digest, SOURCE_ANALYTIC)

        start = time.perf_counter()
        cold_record = catalog.analytic(model)
        cold_s = time.perf_counter() - start
        if not entry.exists():
            print(
                f"bench-smoke: cold analytic lookup wrote no cache entry "
                f"at {entry}",
                file=sys.stderr,
            )
            return 1
        cold_bytes = entry.read_bytes()

        warm_s = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm_record = catalog.analytic(model)
            warm_s = min(warm_s, time.perf_counter() - start)
        if warm_record != cold_record:
            print(
                "bench-smoke: warm catalog lookup returned a different "
                "record than the cold compute",
                file=sys.stderr,
            )
            return 1
        if entry.read_bytes() != cold_bytes:
            print(
                "bench-smoke: warm catalog lookups rewrote the cache "
                "entry — second lookup is not byte-identical",
                file=sys.stderr,
            )
            return 1
        speedup = cold_s / max(warm_s, 1e-9)

        # Flip one byte in the stored entry: the cache must refuse it
        # and the next lookup must recompute, not crash.
        corrupted = bytearray(cold_bytes)
        corrupted[len(corrupted) // 2] ^= 0x01
        entry.write_bytes(bytes(corrupted))
        if catalog.cache.load(digest, SOURCE_ANALYTIC) is not None:
            print(
                "bench-smoke: cache served a corrupted entry instead of "
                "rejecting it",
                file=sys.stderr,
            )
            return 1
        recomputed = catalog.analytic(model)
        if recomputed != cold_record:
            print(
                "bench-smoke: recompute after corruption disagrees with "
                "the original record",
                file=sys.stderr,
            )
            return 1
        if entry.read_bytes() != cold_bytes:
            print(
                "bench-smoke: recompute after corruption did not restore "
                "the original entry bytes",
                file=sys.stderr,
            )
            return 1

    current = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
    }
    bench_path = root / "BENCH_catalog.json"
    trajectory = _load_trajectory(bench_path) + [current]
    document = {
        "schema": 1,
        "command": "bench-smoke catalog-cache",
        "model": "noisy-skg",
        "levels": model.levels,
        "num_edges": model.num_edges,
        "trajectory": trajectory,
    }
    if len(trajectory) > 1:
        recorded = trajectory[-2]["speedup"]
        print(
            f"bench-smoke: catalog warm speedup {speedup:,.0f}x "
            f"(recorded {recorded:,.0f}x)",
            file=sys.stderr,
        )
    if not bench_path.exists():
        bench_path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench-smoke: recorded {bench_path.name}", file=sys.stderr)
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        out = artifact_dir / bench_path.name
        out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"bench-smoke: wrote trajectory to {out}", file=sys.stderr)
    print(
        f"bench-smoke: OK — warm catalog lookup {speedup:,.0f}x faster "
        f"than cold compute (cold {cold_s:.3f}s, warm {warm_s * 1e3:.1f}ms), "
        f"corrupt entry recomputed byte-identically",
        file=sys.stderr,
    )
    return 0


def smoke_serve_latency(root: Path, artifact_dir: Path | None) -> int:
    """Guard 9: warm design queries under concurrency stay flat.

    32 concurrent clients hammer the warm ``GET /v1/design/{digest}``
    path of an in-process :class:`repro.serve.DesignServer`.  Every
    reply must come from the catalog cache (zero engine executions
    during the measured phase), and the p99 latency must hold under the
    recorded floor x10 — the serving layer's latency contract, measured
    the same way ``tools/bench_load.py`` measures it (the guard reuses
    its ``run_load``).
    """
    sys.path.insert(0, str(root / "tools"))
    import bench_load

    clients = 32
    requests_per_client = 8
    result = bench_load.run_load(
        clients=clients, requests_per_client=requests_per_client
    )
    if result["errors"]:
        for line in result["errors"][:10]:
            print(f"bench-smoke: serve ERROR {line}", file=sys.stderr)
        return 1
    expected = clients * requests_per_client
    if result["completed"] != expected:
        print(
            f"bench-smoke: only {result['completed']}/{expected} warm "
            "queries completed",
            file=sys.stderr,
        )
        return 1
    if result["warm_computes"] != 0:
        print(
            f"bench-smoke: {result['warm_computes']} engine computes "
            "during the warm phase — queries were not served from cache",
            file=sys.stderr,
        )
        return 1
    if result["cache_hits"] < expected:
        print(
            f"bench-smoke: only {result['cache_hits']} cache hits for "
            f"{expected} warm queries",
            file=sys.stderr,
        )
        return 1

    bench_path = root / "BENCH_serve.json"
    previous = _load_trajectory(bench_path)
    document = bench_load.record_trajectory(root, result, artifact_dir)
    if previous:
        recorded = previous[-1]["p99_ms"]
        if result["p99_ms"] > recorded * 10.0:
            print(
                f"bench-smoke: warm-query p99 {result['p99_ms']:.2f}ms "
                f"exceeds the recorded floor {recorded:.2f}ms x10",
                file=sys.stderr,
            )
            return 1
        print(
            f"bench-smoke: serve p99 {result['p99_ms']:.2f}ms "
            f"(recorded {recorded:.2f}ms, floor x10)",
            file=sys.stderr,
        )
    print(
        f"bench-smoke: OK — {result['completed']} warm design queries "
        f"from {clients} clients, all cache-served (0 engine computes): "
        f"p50 {result['p50_ms']:.2f}ms, p99 {result['p99_ms']:.2f}ms, "
        f"{result['rps']:,.0f} req/s over {len(document['trajectory'])} "
        "recorded runs",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ENTRIES",
        help="tile budget for the tiled-run guard (default: the smallest "
        "feasible budget for the smoke design)",
    )
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory to write metrics snapshots for CI upload",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-") as out_dir:
        env = dict(os.environ)
        env["REPRO_METRICS_DIR"] = out_dir
        src = str(root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_fig3_scaling.py",
            "-q",
            "-k",
            "metrics_snapshot",
            "-p",
            "no:cacheprovider",
        ]
        print("bench-smoke:", " ".join(cmd), file=sys.stderr)
        code = subprocess.call(cmd, cwd=root, env=env)
        if code != 0:
            print("bench-smoke: benchmark run failed", file=sys.stderr)
            return code
        snapshot_path = Path(out_dir) / "fig3_metrics.json"
        if not snapshot_path.exists():
            print(f"bench-smoke: no metrics snapshot at {snapshot_path}", file=sys.stderr)
            return 1
        with open(snapshot_path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        for key in ("counters", "histograms", "run"):
            if key not in snapshot:
                print(f"bench-smoke: snapshot missing {key!r}", file=sys.stderr)
                return 1
        ranks = snapshot["run"]["execution"]["ranks"]
        print(
            f"bench-smoke: OK — snapshot has {len(ranks)} per-rank reports, "
            f"rate {snapshot['run']['edges_per_second']:.3e} edges/s",
            file=sys.stderr,
        )
        if args.artifact_dir is not None:
            args.artifact_dir.mkdir(parents=True, exist_ok=True)
            (args.artifact_dir / "fig3_metrics.json").write_bytes(
                snapshot_path.read_bytes()
            )
    for guard in (
        lambda: smoke_tiled_budget(root, args.memory_budget, args.artifact_dir),
        lambda: smoke_degree_reader(root),
        lambda: smoke_straggler_queue(root, args.artifact_dir),
        lambda: smoke_model_determinism(root, args.artifact_dir),
        lambda: smoke_catalog_cache(root, args.artifact_dir),
        lambda: smoke_serve_latency(root, args.artifact_dir),
    ):
        code = guard()
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
