#!/usr/bin/env python3
"""Communication-free parallel generation (paper Section V).

Walks through the full parallel pipeline on a simulated cluster:

1. split the design's factor chain into A = B ⊗ C under a memory budget,
2. slice B's triples evenly over ranks (CSC order, rebased columns),
3. every rank independently forms its block Ap = Bp ⊗ C,
4. audit the invariants behind the paper's linear-scaling claim
   (balance, disjointness, full coverage),
5. write per-rank TSV edge files and reassemble them,
6. sweep rank counts to show the simulated scaling curve.

Run:  python examples/parallel_generation.py
"""

import tempfile
from pathlib import Path

from repro import ParallelKroneckerGenerator, PowerLawDesign, VirtualCluster
from repro.io import read_rank_files, write_rank_files
from repro.parallel.scaling import run_scaling_study
from repro.validate import audit_partition, validate_design


def main() -> None:
    design = PowerLawDesign([3, 4, 5, 9, 16])  # 97,920-edge product
    chain = design.to_chain()
    cluster = VirtualCluster(n_ranks=8, memory_budget_entries=1_000_000)
    print(f"design : {design}")
    print(f"cluster: {cluster}")

    # -- 1-3. Partition and generate.
    gen = ParallelKroneckerGenerator(chain, cluster)
    plan = gen.plan
    print(
        f"split at factor {plan.split_index}: "
        f"nnz(B)={plan.b_chain.nnz:,}, nnz(C)={plan.c_chain.nnz:,}"
    )
    blocks = gen.generate_blocks()
    for block in blocks[:3]:
        print(f"  rank {block.rank}: {block.nnz:,} edges in {block.elapsed_s * 1e3:.2f} ms")
    print(f"  ... ({len(blocks)} ranks total)")

    # -- 4. The invariants that make rate scale linearly with ranks.
    audit = audit_partition(plan, blocks, chain.nnz)
    print(audit.to_text())
    assert audit.complete and audit.balanced

    # -- 5. Per-rank edge files, exactly as a real cluster would write them.
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_rank_files(tmp, blocks)
        print(f"wrote {len(paths)} rank files to {Path(tmp).name}/")
        merged = read_rank_files(tmp, chain.shape)
        assert merged.equal(chain.materialize())
        print("reassembled union matches the direct product: True")

    # The assembled graph also passes full design validation.
    graph = gen.generate_graph(remove_loop_at=design.loop_vertex)
    print(f"validation: {validate_design(design, graph=graph).passed}")

    # -- 6. Simulated scaling sweep (Fig. 3's shape).
    print()
    study = run_scaling_study(chain, [1, 2, 4, 8])
    print(study.to_text())
    print(f"linear within tolerance: {study.is_linear(rel_tol=0.6)}")


if __name__ == "__main__":
    main()
