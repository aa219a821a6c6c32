"""The ``serve`` workload: a closed loop against a server process.

The server is ``python -m repro.cli serve --port 0 --cache-dir ...`` in
its own process; readiness is its ``serving on`` line.  Set-up boots
it, registers the designs with ``POST /v1/design`` (the one cold
compute per design) and warms each path once, checking every reply
against the closed forms.  The measured phase is one keep-alive
``ServeClient`` in this process, in a closed loop: it sends its next
request only after the previous reply.  It takes requests from a fixed
sequence drawn from the workload seed, in whole rounds.  The loop runs
in slices, and after each slice a further server is set up and timed,
so that the set-up times (their median is ``setup_s``) spread over the
run.

One client, on one CPU: the server is one asyncio process, so a second
client only queues behind the first, and a shared host steals several
times as much time from two busy CPUs as from one.  So this process pins
itself, and with it the servers it starts, to one CPU
(``procs.pin_to_one_cpu``).

An operation fails on a failed check, an HTTP status other than 200, a
client protocol error, or a reply that a compute served.  The
``serve.design_computes`` counter must not move in the measured phase.
"""

from __future__ import annotations

import shutil
import signal
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np

import inputs
import refs
from procs import ROOT, peak_rss_mb, pin_to_one_cpu, program_env, stop_process


class ServerProcess:
    """``repro-graph serve`` in a child process."""

    def __init__(self, cache_dir: Path, log_path: Path) -> None:
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(cache_dir),
             "--ranks", str(inputs.SERVE_TILE_RANKS),
             "--memory-budget", str(inputs.SERVE_TILE_BUDGET)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=program_env(), cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start (said {line!r}); see {log_path}")
        self.url = line.split()[-1]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        stop_process(self.proc, timeout=10.0)
        self.proc.stdout.close()
        self.log.close()


def references(spec: dict) -> dict:
    """Closed forms per design and the reference tile range."""
    from repro.design import PowerLawDesign
    from repro.engine import iter_task_tiles, plan_from_design

    out = {"records": []}
    for design in spec["designs"]:
        ref = refs.kron_reference(design["star_sizes"], design["self_loop"])
        if design["model"] == "kron":
            out["records"].append(("kron", ref))
        else:
            vertices = 1 << refs.skg_levels(design["star_sizes"])
            out["records"].append(("skg", (ref["num_edges"], vertices)))
    kron = inputs.SERVE_KRON
    plan = plan_from_design(
        PowerLawDesign(kron["star_sizes"], kron["self_loop"]),
        inputs.SERVE_TILE_RANKS,
        memory_budget_entries=inputs.SERVE_TILE_BUDGET,
    )
    start, stop = inputs.SERVE_TILE_RANGE
    tiles = list(islice(iter_task_tiles(plan, plan.tasks[inputs.SERVE_TILE_RANK]), start, stop))
    if len(tiles) != stop - start:
        raise RuntimeError("the tile range is longer than the rank's tiles")
    out["tiles"] = tuple(np.concatenate([t[i] for t in tiles]) for i in range(3))
    return out


def check_record(doc: dict, ref) -> list:
    kind, value = ref
    if kind == "kron":
        return refs.check_kron_record(doc, value, participation=False)
    return refs.check_skg_record(doc, *value)


class WarmServer:
    """A booted, registered and warmed server plus what its replies
    must equal."""

    def __init__(self, spec: dict, ref: dict, work: Path) -> None:
        from repro.serve.client import ServeClient

        self.server = ServerProcess(work / "catalog", work / "server.log")
        self.url = self.server.url
        self.ref = ref
        client = ServeClient(self.url)
        try:
            self.digests = [client.post_design(d)["digest"] for d in spec["designs"]]
            self.expected = []
            for digest, record_ref in zip(self.digests, ref["records"]):
                reply = client.get_design(digest)
                reasons = check_record(reply.record_doc, record_ref)
                if not reply.doc.get("cached"):
                    reasons.append("warm-up reply was not served from the cache")
                if reply.etag != refs.record_etag(reply.record_doc):
                    reasons.append("ETag is not the record checksum")
                if reasons:
                    raise RuntimeError(f"set-up reply for {digest}: {reasons}")
                self.expected.append((reply.etag, reply.doc))
            reasons = self.check_tiles(self.fetch_tiles(client))
            if reasons:
                raise RuntimeError(f"set-up tile reply: {reasons}")
        except BaseException:
            self.server.stop()
            raise
        finally:
            client.close()

    def fetch_tiles(self, client):
        start, stop = inputs.SERVE_TILE_RANGE
        return client.fetch_tiles(
            self.digests[0], inputs.SERVE_TILE_RANK, start=start, stop=stop,
            ranks=inputs.SERVE_TILE_RANKS, budget=inputs.SERVE_TILE_BUDGET,
        )

    def check_tiles(self, result) -> list:
        start, stop = inputs.SERVE_TILE_RANGE
        reasons = []
        if [i for i, _ in result.tiles] != list(range(start, stop)):
            reasons.append(f"tile indices {[i for i, _ in result.tiles]}")
        for name, got, want in zip(("rows", "cols", "vals"),
                                   (result.rows, result.cols, result.vals),
                                   self.ref["tiles"]):
            if got.dtype != want.dtype or not np.array_equal(got, want):
                reasons.append(f"tile {name} differ from iter_task_tiles")
        return reasons

    def check_design(self, index: int, reply) -> list:
        etag, doc = self.expected[index]
        reasons = []
        if reply.status != 200:
            reasons.append(f"status {reply.status}")
        elif not reply.doc.get("cached"):
            reasons.append("reply was computed, not cached")
        elif reply.doc != doc:
            reasons.append("record differs from the verified record")
        if reply.etag != etag:
            reasons.append("ETag changed")
        return reasons


def request(warm: WarmServer, client, kind: str, index: int):
    """One timed request; returns ``(kind, seconds, tile edges, reasons)``."""
    nnz = 0
    t0 = time.perf_counter()
    try:
        if kind == "design":
            reply = client.get_design(warm.digests[index])
            dt = time.perf_counter() - t0
            reasons = warm.check_design(index, reply)
        else:
            result = warm.fetch_tiles(client)
            dt = time.perf_counter() - t0
            nnz = result.nnz
            reasons = warm.check_tiles(result)
    except Exception as exc:  # noqa: BLE001 - counted, and the run goes on
        dt = time.perf_counter() - t0
        reasons = [f"{type(exc).__name__}: {exc}"]
    return kind, dt, nnz, reasons


def closed_loop(warm: WarmServer, round_ops, seconds: float):
    """Whole rounds of ``round_ops`` from one client until ``seconds``
    have passed; returns per-op samples and the wall time."""
    from repro.serve.client import ServeClient

    samples = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    with ServeClient(warm.url) as client:
        while time.perf_counter() < deadline:
            samples += [request(warm, client, kind, index) for kind, index in round_ops]
    return samples, time.perf_counter() - t_start


def computes(url: str) -> float:
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        return client.metrics()["counters"].get("serve.design_computes", 0.0)


def run(seed: int, seconds: float, work: Path, setups: int) -> dict:
    """``setups`` set-ups: one before the measured phase and one after
    each of its ``setups - 1`` slices."""
    cpu = pin_to_one_cpu()
    spec = inputs.serve_inputs(seed)
    ref = references(spec)

    def set_up(i: int):
        t0 = time.perf_counter()
        warm = WarmServer(spec, ref, work / f"setup{i}")
        return warm, time.perf_counter() - t0

    warm, first = set_up(0)
    setup_s = [first]
    samples, wall, run_reasons = [], 0.0, []
    try:
        before = computes(warm.url)
        for i in range(1, setups):
            part, part_wall = closed_loop(warm, spec["round"], seconds / (setups - 1))
            samples += part
            wall += part_wall
            spare, spare_s = set_up(i)
            spare.server.stop()
            shutil.rmtree(work / f"setup{i}")
            setup_s.append(spare_s)
        if computes(warm.url) != before:
            run_reasons.append("serve.design_computes moved in the measured phase")
        rss = peak_rss_mb(warm.server.proc.pid)
    finally:
        warm.server.stop()
    tally = refs.Tally()
    for _kind, _dt, _nnz, reasons in samples:
        tally.add(reasons)
    design_ms = sorted(1000 * dt for kind, dt, _, _ in samples if kind == "design")
    return {
        "tally": tally,
        "op_s": [dt for _, dt, _, _ in samples],
        "edges": sum(nnz for _, _, nnz, _ in samples),
        "wall_s": wall,
        "setups": setup_s,
        "peak_rss_mb": rss,
        "run_reasons": run_reasons,
        "extra": {
            "cpu": cpu,
            "design_gets": len(design_ms),
            "tile_gets": len(samples) - len(design_ms),
            "design_p50_ms": statistics.median(design_ms),
        },
    }
