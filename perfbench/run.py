"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Workloads (see README.md):

* ``generate`` — kron and noisy-SKG shard runs of a 2.17M-edge design;
* ``validate`` — ``verify_shards`` plus a refreshed empirical catalog
  record of the 434k-edge ROADMAP baseline design;
* ``serve`` — a closed loop of warm design GETs and tile-range GETs
  against ``repro-graph serve`` running in its own process.

With ``--trace 0`` the run reports the end-to-end metrics of the named
workload; with ``--trace 1`` it runs the traced mode
(``trace_layers.py``), which covers every workload's layers and reports
the per-layer metrics.  The line before the last describes the run
(set-up times, sample counts, failure reasons); the last line is the
result object.  Every operation's output is checked against references
computed apart from the program (``refs.py``); an operation whose check
fails counts as failed, and the run goes on to its end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import refs
import serve_load
import trace_layers
from procs import HERE, ROOT, SRC, peak_rss_mb, program_env, stop_process

#: Set-ups per run; ``setup_s`` is their median.  Each set-up starts a
#: fresh program process, so each pays the program's imports.  The first
#: gives the measured process; the others are timed between parts of the
#: measured phase, spread evenly over it, so that their median spans the
#: host's slow and fast phases (each lasts seconds), not only the run's
#: first few seconds.
SETUPS = 11

WORKLOADS = ("generate", "validate", "serve")


class Agent:
    """One program process (``agent.py``), started and set up."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed = workload, seed
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "agent.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=program_env(), cwd=ROOT,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not ready:
            stop_process(self.proc)
            raise RuntimeError(f"{workload} program exited during set-up")

    def call(self, cmd: str, directory: Path) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "dir": str(directory)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"program exited during {cmd!r}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        stop_process(self.proc)
        self.proc.stdout.close()


def time_set_up(workload: str, seed: int, work: Path) -> float:
    """One more fresh set-up, timed, then shut down."""
    agent = Agent(workload, seed, work)
    agent.close()
    shutil.rmtree(work)
    return agent.setup_s


def setups_due(done_s: float, seconds: float) -> int:
    """Set-ups that should have been timed once ``done_s`` of the
    measured phase's ``seconds`` are done."""
    return 1 + math.ceil((SETUPS - 1) * min(done_s / seconds, 1.0))


def measure_ops(agent: Agent, seconds: float, work: Path, check) -> dict:
    """Whole operations until their summed time reaches ``seconds``;
    ``check(out_dir, reply)`` returns failure reasons.  The further
    set-ups are timed between operations (see ``SETUPS``)."""
    tally = refs.Tally()
    op_s = []
    setups = [agent.setup_s]
    edges = 0
    while sum(op_s) < seconds:
        out = work / f"op{len(op_s)}"
        reply = agent.call("op", out)
        op_s.append(reply["op_s"])
        edges += reply["edges"]
        tally.add([reply["error"]] if "error" in reply else check(out, reply))
        shutil.rmtree(out, ignore_errors=True)
        while len(setups) < setups_due(sum(op_s), seconds):
            setups.append(time_set_up(agent.workload, agent.seed, work / f"setup{len(setups)}"))
    return {"tally": tally, "op_s": op_s, "edges": edges, "setups": setups}


def run_generate(seed: int, seconds: float, work: Path) -> dict:
    spec = inputs.generate_inputs(seed)
    ref = refs.kron_reference(spec["star_sizes"], spec["self_loop"])
    skg_vertices = 1 << refs.skg_levels(spec["star_sizes"])
    agent = Agent("generate", seed, work / "setup0")
    try:
        reference_dir = work / "skg-one-rank"
        reply = agent.call("skg_reference", reference_dir)
        run_reasons, skg_sha = refs.check_skg_reference(
            reference_dir, ref["num_edges"], skg_vertices
        )
        run_reasons += [reply["error"]] if "error" in reply else []
        shutil.rmtree(reference_dir, ignore_errors=True)

        def check(out: Path, reply: dict):
            return refs.check_kron_shards(out / "kron", ref) + refs.check_skg_shards(
                out / "skg", ref["num_edges"], skg_sha
            )

        measured = measure_ops(agent, seconds, work, check)
        rss = peak_rss_mb(agent.proc.pid)
    finally:
        agent.close()
    return dict(measured, peak_rss_mb=rss, run_reasons=run_reasons)


def run_validate(seed: int, seconds: float, work: Path) -> dict:
    spec = inputs.validate_inputs(seed)
    ref = refs.kron_reference(spec["star_sizes"], spec["self_loop"])
    agent = Agent("validate", seed, work / "setup0")
    try:
        # The input is the program's own output: check it once, too.
        run_reasons = refs.check_kron_shards(work / "setup0" / "input", ref)

        def check(out: Path, reply: dict):
            reasons = refs.check_kron_record(reply["record"], ref, participation=True)
            if not reply["verify_passed"]:
                reasons.append("verify_shards did not pass")
            if reply["verify_total_nnz"] != ref["num_edges"]:
                reasons.append("verify_shards counted the wrong edge total")
            return reasons

        measured = measure_ops(agent, seconds, work, check)
        rss = peak_rss_mb(agent.proc.pid)
    finally:
        agent.close()
    return dict(measured, peak_rss_mb=rss, run_reasons=run_reasons)


def run_serve(seed: int, seconds: float, work: Path) -> dict:
    return serve_load.run(seed, seconds, work, SETUPS)


RUNNERS = {"generate": run_generate, "validate": run_validate, "serve": run_serve}


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def end_to_end(result: dict) -> dict:
    op_s = result["op_s"]
    wall = result.get("wall_s", sum(op_s))
    return {
        "setup_s": {"value": statistics.median(result["setups"]), "unit": "s"},
        "edges_per_s": {"value": result["edges"] / wall, "unit": "edges/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(op_s), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: generate/validate/serve")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = trace_layers.run(args.workload, args.seed, work)
            metrics = result["metrics"]
            detail = result["detail"]
        else:
            result = RUNNERS[args.workload](args.seed, args.seconds, work)
            metrics = end_to_end(result)
            op_s = result["op_s"]
            detail = {
                "workload": args.workload,
                "seed": args.seed,
                "setup_s": result["setups"],
                "op_samples": len(op_s),
                "op_s": op_s if len(op_s) <= 50 else quartiles(op_s),
                **result.get("extra", {}),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = result["tally"]
    detail.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failure_reasons=tally.reasons,
        run_reasons=result["run_reasons"],
        harness_peak_rss_mb=peak_rss_mb(os.getpid()),
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not result["run_reasons"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
