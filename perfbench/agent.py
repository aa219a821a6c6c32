"""The program process of the ``generate`` and ``validate`` workloads.

``run.py`` starts this script once per set-up, so the set-up it times
includes the program's imports and the inputs it writes, and so the
process's memory high-water mark is the program's alone.  After set-up
it prints one JSON line (``{"ready": ...}``) and then answers one JSON
command per line on stdin until ``{"cmd": "quit"}``:

* ``{"cmd": "op", "dir": D}`` — one timed operation, outputs under ``D``;
* ``{"cmd": "skg_reference", "dir": D}`` (``generate``) — the one-rank
  noisy-SKG run the eight-rank shards must equal byte for byte.

Replies are single JSON lines; an operation that raises is answered
with an ``error`` field and the process goes on.  Nothing here checks
outputs: the harness does that between operations, while this process
waits.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import inputs


def _reply(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class GenerateProgram:
    """Kron and noisy-SKG shard runs of the same design, serial, 8 ranks."""

    def __init__(self, seed: int, work: Path) -> None:
        from repro.design import PowerLawDesign
        from repro.engine import RunConfig
        from repro.models import noisy_skg_from_design
        from repro.parallel.stream import generate_to_disk

        self.generate_to_disk = generate_to_disk
        spec = inputs.generate_inputs(seed)
        self.design = PowerLawDesign(spec["star_sizes"], spec["self_loop"])
        model = noisy_skg_from_design(self.design, seed=spec["model_seed"])
        self.kron_config = RunConfig(
            backend="serial",
            memory_budget_entries=spec["memory_budget_entries"],
            scramble_seed=spec["scramble_seed"],
        )
        self.skg_config = self.kron_config.replace(model=model)
        self.ranks = spec["ranks"]
        # Warm-up: the same calls on a toy design, so lazy imports and
        # first-call costs land in set-up, not in the first operation.
        toy = PowerLawDesign([3, 4, 5], spec["self_loop"])
        toy_skg = self.kron_config.replace(model=noisy_skg_from_design(toy, seed=1))
        generate_to_disk(toy, 2, work / "warmup-kron", config=self.kron_config)
        generate_to_disk(toy, 2, work / "warmup-skg", config=toy_skg)
        shutil.rmtree(work / "warmup-kron")
        shutil.rmtree(work / "warmup-skg")

    def op(self, out: Path):
        t0 = time.perf_counter()
        kron = self.generate_to_disk(self.design, self.ranks, out / "kron", config=self.kron_config)
        skg = self.generate_to_disk(self.design, self.ranks, out / "skg", config=self.skg_config)
        elapsed = time.perf_counter() - t0
        return {"op_s": elapsed, "edges": kron.total_edges + skg.total_edges}

    def skg_reference(self, out: Path):
        self.generate_to_disk(self.design, 1, out, config=self.skg_config)
        return {"dir": str(out)}


class ValidateProgram:
    """``verify_shards`` plus a refreshed empirical catalog record."""

    def __init__(self, seed: int, work: Path) -> None:
        from repro.catalog import DesignCatalog
        from repro.design import PowerLawDesign
        from repro.engine import RunConfig
        from repro.parallel.stream import generate_to_disk, verify_shards

        self._verify = verify_shards
        spec = inputs.validate_inputs(seed)
        self.budget = spec["triangle_budget_entries"]
        design = PowerLawDesign(spec["star_sizes"], spec["self_loop"])
        config = RunConfig(backend="serial", scramble_seed=spec["scramble_seed"])
        self.shards = work / "input"
        generate_to_disk(design, spec["ranks"], self.shards, config=config)
        self.catalog = DesignCatalog(work / "catalog")
        # Warm-up on a toy design (see GenerateProgram).
        toy = work / "warmup"
        generate_to_disk(PowerLawDesign([3, 4, 5], "center"), 2, toy, config=config)
        verify_shards(toy)
        self.catalog.empirical(toy, refresh=True, memory_budget_entries=64)
        shutil.rmtree(toy)

    def op(self, out: Path):
        t0 = time.perf_counter()
        verification = self._verify(self.shards)
        record = self.catalog.empirical(
            self.shards, refresh=True, memory_budget_entries=self.budget
        )
        elapsed = time.perf_counter() - t0
        return {
            "op_s": elapsed,
            "edges": record.num_edges,
            "verify_passed": verification.passed,
            "verify_total_nnz": verification.total_nnz,
            "record": record.to_doc(),
        }


PROGRAMS = {"generate": GenerateProgram, "validate": ValidateProgram}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PROGRAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    program = PROGRAMS[args.workload](args.seed, args.work)
    _reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "quit":
            break
        handler = getattr(program, cmd["cmd"])
        t0 = time.perf_counter()
        try:
            reply = handler(Path(cmd["dir"]))
        except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not fatal
            reply = {"op_s": time.perf_counter() - t0, "edges": 0,
                     "error": f"{type(exc).__name__}: {exc}"}
        _reply(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
