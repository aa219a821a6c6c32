"""Re-measure the run-to-run spread behind the benchmark's bounds.

``python3 perfbench/spread.py --workload W --runs K [--first-seed N]``
runs ``run.py`` K times, one after another, with seeds N, N+1, ..., the
run length of ``BENCHMARK.json`` and tracing off, and prints for every
end-to-end metric its median, quartiles, extremes and the quartile
distance as a share of the median (the figure each ``bound`` in
``BENCHMARK.json`` must exceed), plus each run's failed share.  Run it
from the repository root after a machine change, before trusting the
bounds there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from procs import HERE, ROOT
from run import quartiles


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values, failed = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(config["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        q = quartiles(vals)
        print(f"{name:40} {q['median']:12.6g} {q['q1']:12.6g} {q['q3']:12.6g} "
              f"{q['min']:12.6g} {q['max']:12.6g} "
              f"{(q['q3'] - q['q1']) / q['median']:8.4f} {bounds[name]:>6}")
    print(f"failed share per run: {sorted(set(failed))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
