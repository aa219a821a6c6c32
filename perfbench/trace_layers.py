"""Traced mode: per-layer metrics from spans around single public calls.

One traced run covers all three workloads, whichever ``--workload`` it
was given, so that every per-layer metric comes out of every traced run.
For each workload it first times a few operations untraced (the same
operations the untraced runs time), then feeds that workload's inputs
through the layers' public functions one call at a time, recording a
span (name, start, end, workload, op id) around each call.  Spans are
kept in memory and written to ``.perfbench_work/trace-<workload>-<seed>.json``
when the run ends.

Per-layer metrics come from the spans and from the program's own
counters.  For each workload the run also reports what share of its
untraced operation time the spans of that operation's layers account
for (``coverage`` in the detail line): a faster layer can save at most
its share.  End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import inputs
import refs
import serve_load
from agent import GenerateProgram, ValidateProgram
from procs import ROOT, cpu_s, pin_to_one_cpu

#: Untraced operations timed per workload before its layers are traced.
UNTRACED_OPS = 2
#: Repetitions of each short call (manifest saves, cache reads, GETs).
REPEATS = 200


class Spans:
    """In-memory span log."""

    def __init__(self) -> None:
        self.spans = []

    @contextmanager
    def span(self, name: str, workload: str, op=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                {"name": name, "start": start, "end": time.perf_counter(),
                 "workload": workload, "op": op}
            )

    def durations(self, name: str):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        return 1000.0 * statistics.median(self.durations(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def _mb(n_bytes: int) -> float:
    return n_bytes / (1024.0 * 1024.0)


def trace_generate(seed: int, work: Path, spans: Spans, tally: refs.Tally) -> dict:
    from repro.engine import (
        DegreeSink,
        RunConfig,
        ShardSink,
        execute,
        iter_task_tiles,
        plan_from_design,
        plan_from_model,
    )
    from repro.runtime.checkpoint import RunManifest, ShardWriter
    from repro.runtime.metrics import MetricsRegistry

    wl = "generate"
    spec = inputs.generate_inputs(seed)
    ref = refs.kron_reference(spec["star_sizes"], spec["self_loop"])
    program = GenerateProgram(seed, work)
    untraced = []
    for i in range(UNTRACED_OPS):
        out = work / f"untraced{i}"
        untraced.append(program.op(out)["op_s"])
        tally.add(refs.check_kron_shards(out / "kron", ref))
        shutil.rmtree(out)

    # The program's own counters, from one more operation.
    out = work / "counted"
    kron_m, skg_m = MetricsRegistry(), MetricsRegistry()
    program.generate_to_disk(program.design, program.ranks, out / "kron",
                             config=program.kron_config, metrics=kron_m)
    program.generate_to_disk(program.design, program.ranks, out / "skg",
                             config=program.skg_config, metrics=skg_m)
    snaps = [m.snapshot() for m in (kron_m, skg_m)]
    peak_tile = max(s["gauges"]["engine.peak_tile_entries"] for s in snaps)
    manifest_writes = sum(s["counters"]["checkpoint.manifest_writes"] for s in snaps)
    kron_manifest = RunManifest.load(out / "kron")
    kron_bytes = sum(r.size_bytes for r in kron_manifest.shards.values())
    tally.add([] if peak_tile <= spec["memory_budget_entries"] else ["tile over budget"])

    budget = spec["memory_budget_entries"]
    kron_plan = plan_from_design(program.design, program.ranks,
                                 memory_budget_entries=budget,
                                 scramble_seed=spec["scramble_seed"])
    skg_plan = plan_from_model(program.skg_config.model, program.ranks,
                               memory_budget_entries=budget,
                               scramble_seed=spec["scramble_seed"])
    kron_plan.c_matrix  # materialize the shared factor outside the spans
    edges = {}
    for label, plan in (("kron", kron_plan), ("skg", skg_plan)):
        count = 0
        for task in plan.tasks:
            with spans.span(f"models.{label}.tiles", wl, task.rank):
                for rows, _cols, _vals in iter_task_tiles(plan, task):
                    count += len(rows)
        edges[label] = count
        tally.add([] if count == ref["num_edges"] else [f"{label} tiles: {count} edges"])

    with spans.span("engine.degree_sink", wl):
        acc = execute(kron_plan, DegreeSink(), config=RunConfig(backend="serial")).sink_result
    dist = acc.distribution().to_dict()
    tally.add([] if dist == ref["degree_hist"] else ["DegreeSink histogram differs"])

    # Encode through the shard consumer, then write, close and commit
    # the same bytes through the checkpoint layer on their own.
    encode_dir, write_dir = work / "encode", work / "write"
    write_dir.mkdir()
    shard_bytes = 0
    for label, plan in (("kron", kron_plan), ("skg", skg_plan)):
        sink = ShardSink(encode_dir / label)
        (encode_dir / label).mkdir(parents=True)
        for task in plan.tasks:
            tiles = list(iter_task_tiles(plan, task))
            consumer = sink.consumer_factory(task)(task.rank)
            with spans.span("sinks.shard_encode", wl, task.rank):
                for tile in tiles:
                    consumer.consume(*tile)
            record = consumer.result()
            data = (encode_dir / label / record.filename).read_bytes()
            pieces = [data[i:i + (1 << 21)] for i in range(0, len(data), 1 << 21)]
            writer = ShardWriter(write_dir / f"{label}.{record.filename}")
            with spans.span("checkpoint.write", wl, task.rank):
                for piece in pieces:
                    writer.write(piece)
            with spans.span("checkpoint.shard_close", wl, task.rank):
                checksum = writer.close()
            shard_bytes += len(data)
            tally.add([] if checksum == record.checksum else ["re-written shard differs"])
    for i in range(int(manifest_writes)):
        with spans.span("checkpoint.manifest_save", wl, i):
            kron_manifest.save(write_dir)
    shutil.rmtree(out)
    shutil.rmtree(encode_dir)
    shutil.rmtree(write_dir)

    total_edges = edges["kron"] + edges["skg"]
    per_op = (spans.total("models.kron.tiles") + spans.total("models.skg.tiles")
              + spans.total("sinks.shard_encode") + spans.total("checkpoint.shard_close")
              + spans.total("checkpoint.manifest_save"))
    metrics = {
        "models.kron.tile_edges_per_s": (edges["kron"] / spans.total("models.kron.tiles"), "edges/s"),
        "models.skg.tile_edges_per_s": (edges["skg"] / spans.total("models.skg.tiles"), "edges/s"),
        "engine.degree_sink_edges_per_s": (edges["kron"] / spans.total("engine.degree_sink"), "edges/s"),
        "engine.peak_tile_entries": (peak_tile, "entries"),
        "sinks.shard_encode_edges_per_s": (total_edges / spans.total("sinks.shard_encode"), "edges/s"),
        "checkpoint.write_mb_per_s": (_mb(shard_bytes) / spans.total("checkpoint.write"), "MB/s"),
        "checkpoint.shard_close_ms": (spans.median_ms("checkpoint.shard_close"), "ms"),
        "checkpoint.manifest_save_ms": (spans.median_ms("checkpoint.manifest_save"), "ms"),
        "checkpoint.manifest_writes": (manifest_writes, "count"),
        "stream.shard_bytes_per_edge": (kron_bytes / ref["num_edges"], "B/edge"),
    }
    return {"metrics": metrics, "untraced_op_s": statistics.median(untraced),
            "spans_per_op_s": per_op}


def trace_validate(seed: int, work: Path, spans: Spans, tally: refs.Tally) -> dict:
    from repro.catalog import CatalogCache, DesignProperties
    from repro.parallel.stream import read_streamed_degree_distribution
    from repro.runtime.checkpoint import RunManifest, file_checksum
    from repro.validate import iter_shard_edges, triangle_stream

    wl = "validate"
    spec = inputs.validate_inputs(seed)
    ref = refs.kron_reference(spec["star_sizes"], spec["self_loop"])
    program = ValidateProgram(seed, work)
    untraced = []
    for _ in range(UNTRACED_OPS):
        reply = program.op(work)
        untraced.append(reply["op_s"])
        tally.add(refs.check_kron_record(reply["record"], ref, participation=True))
    record = DesignProperties.from_doc(reply["record"])

    manifest = RunManifest.load(program.shards)
    files = [program.shards / manifest.shards[r].filename for r in sorted(manifest.shards)]
    n_bytes = 0
    for i, path in enumerate(files):
        with spans.span("checkpoint.verify", wl, i):
            checksum = file_checksum(path)
        n_bytes += path.stat().st_size
        tally.add([] if checksum == manifest.shards[i].checksum else ["checksum differs"])
    with spans.span("stream.reader", wl):
        dist = read_streamed_degree_distribution(files, ref["num_vertices"])
    tally.add([] if dist.to_dict() == ref["degree_hist"] else ["reader histogram differs"])

    budget = spec["triangle_budget_entries"]
    with spans.span("validate.triangle_stream", wl):
        on_disk = triangle_stream(program.shards, memory_budget_entries=budget)
    chunks = list(iter_shard_edges(program.shards))
    with spans.span("validate.triangle_closure", wl):
        in_memory = triangle_stream(chunks, ref["num_vertices"], memory_budget_entries=budget)
    for result in (on_disk, in_memory):
        got = (result.num_triangles, result.vertex_participation, result.edge_participation)
        want = (ref["num_triangles"], ref["vertex_participation"], ref["edge_participation"])
        tally.add([] if got == want else ["triangle participation differs"])

    cache = CatalogCache(work / "store-cache")
    for i in range(REPEATS // 10):
        with spans.span("catalog.cache_store", wl, i):
            cache.store(record)

    stored = ref["num_edges"]
    per_op = (spans.total("checkpoint.verify") + 2 * spans.total("stream.reader")
              + spans.total("validate.triangle_stream")
              + statistics.median(spans.durations("catalog.cache_store")))
    metrics = {
        "checkpoint.verify_mb_per_s": (_mb(n_bytes) / spans.total("checkpoint.verify"), "MB/s"),
        "stream.reader_edges_per_s": (stored / spans.total("stream.reader"), "edges/s"),
        "validate.triangle_edges_per_s": (stored / spans.total("validate.triangle_stream"), "edges/s"),
        "validate.triangle_closure_edges_per_s": (
            stored / spans.total("validate.triangle_closure"), "edges/s"),
        "validate.triangle_passes": (on_disk.stream_passes, "count"),
        "catalog.cache_store_ms": (spans.median_ms("catalog.cache_store"), "ms"),
    }
    return {"metrics": metrics, "untraced_op_s": statistics.median(untraced),
            "spans_per_op_s": per_op}


def trace_serve(seed: int, work: Path, spans: Spans, tally: refs.Tally) -> dict:
    from repro.catalog import CatalogCache
    from repro.engine import iter_task_tiles, plan_from_design
    from repro.design import PowerLawDesign
    from repro.net.codec import FRAME_TILE, encode_frame, encode_tile_payload
    from repro.serve.client import ServeClient
    from repro.serve.stream import assemble_tile_stream

    wl = "serve"
    pin_to_one_cpu()  # as the untraced workload does (see serve_load)
    spec = inputs.serve_inputs(seed)
    ref = serve_load.references(spec)
    warm = serve_load.WarmServer(spec, ref, work / "serve")
    pid = warm.server.proc.pid
    try:
        with ServeClient(warm.url) as client:
            before = client.metrics()
            cpu0 = cpu_s(pid)
            samples, _wall = serve_load.closed_loop(warm, spec["round"], 5.0)
            cpu1 = cpu_s(pid)
            after = client.metrics()
            for _kind, _dt, _nnz, reasons in samples:
                tally.add(reasons)
            untraced = [dt for kind, dt, _, _ in samples if kind == "design"]
            hist0, hist1 = before["histograms"]["serve.request_s"], after["histograms"]["serve.request_s"]
            # The closed loop's requests plus the one metrics GET before it.
            requests = hist1["count"] - hist0["count"]
            request_mean_ms = 1000.0 * (hist1["sum"] - hist0["sum"]) / requests

            for i in range(REPEATS):
                with spans.span("serve.health", wl, i):
                    client.health()
            n_designs = len(warm.digests)
            for i in range(2 * REPEATS):
                index = i % n_designs
                with spans.span("serve.design_get", wl, i):
                    reply = client.get_design(warm.digests[index])
                tally.add(warm.check_design(index, reply))
            for i in range(REPEATS):
                index = i % n_designs
                etag = warm.expected[index][0]
                with spans.span("serve.design_304", wl, i):
                    reply = client.get_design(warm.digests[index], etag=etag)
                tally.add([] if reply.status == 304 else [f"status {reply.status}"])
            for i in range(REPEATS // 4):
                with spans.span("serve.tiles", wl, i):
                    result = warm.fetch_tiles(client)
                tally.add(warm.check_tiles(result))

        # A raw tile body, decoded by the client-side assembler.
        start, stop = inputs.SERVE_TILE_RANGE
        host, port = warm.url.split("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", f"/v1/tiles/{warm.digests[0]}/{inputs.SERVE_TILE_RANK}"
                     f"?start={start}&stop={stop}&ranks={inputs.SERVE_TILE_RANKS}"
                     f"&budget={inputs.SERVE_TILE_BUDGET}")
        body = conn.getresponse().read()
        conn.close()
        for i in range(REPEATS // 4):
            with spans.span("serve.stream_decode", wl, i):
                decoded = assemble_tile_stream(body)
        tally.add(warm.check_tiles(decoded))

        # Frame encoding of one rank's tiles of the served kron design.
        kron = inputs.SERVE_KRON
        plan = plan_from_design(PowerLawDesign(kron["star_sizes"], kron["self_loop"]),
                                inputs.SERVE_TILE_RANKS,
                                memory_budget_entries=inputs.SERVE_TILE_BUDGET)
        tiles = list(iter_task_tiles(plan, plan.tasks[inputs.SERVE_TILE_RANK]))
        frame_bytes = 0
        for rep in range(10):
            with spans.span("net.frame_encode", wl, rep):
                frames = [
                    encode_frame(FRAME_TILE, encode_tile_payload(*t),
                                 rank=inputs.SERVE_TILE_RANK, tile_index=i)
                    for i, t in enumerate(tiles)
                ]
            frame_bytes += sum(len(f) for f in frames)

        # The warm path's catalog work, on the server's own cache entry.
        cache = CatalogCache(work / "serve" / "catalog")
        digest = warm.digests[0]
        for i in range(REPEATS):
            with spans.span("catalog.cache_load", wl, i):
                record = cache.load(digest, "analytic")
        tally.add(serve_load.check_record(record.to_doc(), ref["records"][0]))
        for i in range(REPEATS):
            with spans.span("catalog.record_encode", wl, i):
                encoded = json.dumps(record.to_doc())
        tally.add([] if json.loads(encoded) == record.to_doc() else ["encode round trip"])
    finally:
        warm.server.stop()

    design_get = spans.durations("serve.design_get")
    untraced_p50 = statistics.median(untraced)
    per_op = (statistics.median(spans.durations("catalog.cache_load"))
              + statistics.median(spans.durations("catalog.record_encode"))
              + statistics.median(spans.durations("serve.health")))
    metrics = {
        "catalog.cache_load_ms": (spans.median_ms("catalog.cache_load"), "ms"),
        "catalog.record_encode_ms": (spans.median_ms("catalog.record_encode"), "ms"),
        "serve.health_p50_ms": (spans.median_ms("serve.health"), "ms"),
        "serve.design_get_p50_ms": (1000.0 * statistics.median(design_get), "ms"),
        "serve.design_get_p90_ms": (1000.0 * statistics.quantiles(design_get, n=10)[-1], "ms"),
        "serve.design_304_p50_ms": (spans.median_ms("serve.design_304"), "ms"),
        "serve.tiles_p50_ms": (spans.median_ms("serve.tiles"), "ms"),
        "serve.server_cpu_ms_per_request": (1000.0 * (cpu1 - cpu0) / len(samples), "ms"),
        "serve.server_request_mean_ms": (request_mean_ms, "ms"),
        "serve.stream_decode_mb_per_s": (
            _mb(len(body)) * len(spans.durations("serve.stream_decode"))
            / spans.total("serve.stream_decode"), "MB/s"),
        "net.frame_encode_mb_per_s": (_mb(frame_bytes) / spans.total("net.frame_encode"), "MB/s"),
    }
    return {"metrics": metrics, "untraced_op_s": untraced_p50, "spans_per_op_s": per_op}


SECTIONS = {"generate": trace_generate, "validate": trace_validate, "serve": trace_serve}


def run(workload: str, seed: int, work: Path) -> dict:
    """All three workloads' layers, traced.  The traced work is a fixed
    amount per layer, so the run length does not depend on ``--seconds``."""
    spans = Spans()
    tally = refs.Tally()
    metrics, coverage, untraced_ms = {}, {}, {}
    t0 = time.perf_counter()
    for name, section in SECTIONS.items():
        (work / name).mkdir()
        result = section(seed, work / name, spans, tally)
        metrics.update(result["metrics"])
        untraced_ms[name] = 1000.0 * result["untraced_op_s"]
        coverage[name] = result["spans_per_op_s"] / result["untraced_op_s"]
    trace_path = ROOT / ".perfbench_work" / f"trace-{workload}-{seed}.json"
    spans.write(trace_path)
    return {
        "tally": tally,
        "run_reasons": [],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "mode": "traced",
            "workload": workload,
            "seed": seed,
            "elapsed_s": time.perf_counter() - t0,
            "untraced_op_ms": untraced_ms,
            "coverage": coverage,
            "spans": len(spans.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
        },
    }
