"""Command-line interface: ``repro-graph <subcommand>``.

Subcommands mirror the paper's workflow:

* ``design``   — print the exact properties of a star-size list,
* ``search``   — find star sizes hitting a target edge count,
* ``generate`` — realize a design on simulated ranks, write TSV files
  (``--stream`` for crash-safe checksummed shards, ``--resume`` to
  finish an interrupted streamed run),
* ``validate`` — realize a design and compare measured vs. predicted,
* ``verify-shards`` — recompute shard checksums against manifest.json,
* ``scale``    — run a Fig.-3-style rank-count sweep,
* ``info``     — report optional-capability availability (backends,
  start methods, transports, generator models) on this machine,
* ``serve``    — run the async graph service (:mod:`repro.serve`):
  design records and streamed tile generation over HTTP,
* ``query``    — client for a running server: POST a design, fetch its
  record, or stream one rank's tiles and summarize them.

``generate --model {kron,skg,noisy-skg}`` switches the generator model:
the exact deterministic Kronecker design (default), plain stochastic
Kronecker matched to the design's scale, or the noisy-initiator variant
(arXiv:1102.5046) that repairs SKG's triangle deficiency.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.design import PowerLawDesign, design_for_scale
from repro.errors import ReproError


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "star_sizes",
        type=int,
        nargs="+",
        metavar="M_HAT",
        help="constituent star sizes, e.g. 3 4 5 9 16 25",
    )
    p.add_argument(
        "--self-loop",
        choices=["none", "center", "leaf"],
        default="none",
        help="self-loop policy (center=Case 1 many triangles, leaf=Case 2)",
    )


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    """Execution/observability flags shared by generate and scale."""
    from repro.parallel.backends import list_backends

    p.add_argument(
        "--backend",
        choices=list_backends(),
        default="serial",
        help="execution backend for rank work",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the chosen backend (threads or processes); "
        "default: the backend's own sizing",
    )
    p.add_argument(
        "--scheduler",
        choices=["static", "queue"],
        default="static",
        help="task dispatch: 'static' submits tasks in rank order; "
        "'queue' submits them longest-first; either way tasks go to "
        "whichever worker frees up and output is byte-identical",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retry budget per rank for transient failures",
    )
    p.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSON metrics snapshot (per-rank durations, retries, rates)",
    )
    p.add_argument(
        "--memory-budget",
        type=int,
        default=50_000_000,
        metavar="ENTRIES",
        help="per-rank memory budget in matrix entries; blocks larger than "
        "this are generated in bounded-memory tiles",
    )


def _resolve_scheduler(args: argparse.Namespace):
    """``--scheduler`` → a scheduler instance, or None for the command's
    default static shape."""
    if getattr(args, "scheduler", "static") == "queue":
        from repro.engine import WorkQueueScheduler

        return WorkQueueScheduler()
    return None


def _resolve_cli_backend(args: argparse.Namespace):
    """``--backend`` (+ optional ``--workers``) → a name or an instance."""
    if getattr(args, "workers", None) is not None:
        from repro.parallel.backends import make_backend

        return make_backend(args.backend, args.workers)
    return args.backend


def _run_config_from_args(args: argparse.Namespace, **overrides):
    """Fold the shared runtime flags into a :class:`repro.RunConfig`."""
    from repro.engine import RunConfig

    fields = dict(
        backend=_resolve_cli_backend(args),
        scheduler=_resolve_scheduler(args),
        memory_budget_entries=args.memory_budget,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-graph",
        description="Exact-design Kronecker power-law graphs (Kepner et al. 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.models import MODEL_CHOICES

    p_design = sub.add_parser(
        "design",
        help="print exact properties of a design, or print/warm its "
        "catalog entry (--json/--cache-dir/--model switch to the "
        "unified repro.catalog record)",
    )
    _add_design_args(p_design)
    p_design.add_argument("--max-rows", type=int, default=12, help="distribution rows to print")
    p_design.add_argument(
        "--catalog",
        action="store_true",
        help="print the unified catalog record (repro.catalog) instead "
        "of the legacy design report",
    )
    p_design.add_argument(
        "--json",
        action="store_true",
        help="emit the catalog record as JSON (implies --catalog)",
    )
    p_design.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="content-addressed catalog cache: read the entry if warm, "
        "compute and persist it otherwise (implies --catalog)",
    )
    p_design.add_argument(
        "--refresh",
        action="store_true",
        help="with --cache-dir: recompute even if a cached entry exists",
    )
    p_design.add_argument(
        "--participation",
        action="store_true",
        help="also stream the triangle participation histograms "
        "(cross-checked against the closed forms; implies --catalog)",
    )
    p_design.add_argument(
        "--model",
        choices=list(MODEL_CHOICES),
        default="kron",
        help="catalog subject: the exact design (default 'kron') or a "
        "stochastic model matched to its scale (implies --catalog)",
    )
    p_design.add_argument(
        "--model-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="stochastic-model seed for --model skg/noisy-skg",
    )
    p_design.add_argument(
        "--noise",
        type=float,
        default=0.1,
        metavar="B",
        help="noisy-skg per-level noise bound",
    )

    p_search = sub.add_parser("search", help="find star sizes for a target edge count")
    p_search.add_argument("target_edges", type=int)
    p_search.add_argument("--self-loop", choices=["none", "center", "leaf"], default="none")
    p_search.add_argument("--rel-tol", type=float, default=0.5)

    p_gen = sub.add_parser("generate", help="realize a design on simulated ranks")
    _add_design_args(p_gen)
    p_gen.add_argument("--ranks", type=int, default=4, help="simulated rank count")
    p_gen.add_argument("--out", type=str, default=None, help="directory for per-rank TSV files")
    p_gen.add_argument(
        "--stream",
        action="store_true",
        help="write shards crash-safely (atomic writes + checksummed "
        "manifest.json) instead of assembling in memory; requires --out",
    )
    p_gen.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted --stream run: verify the manifest "
        "fingerprint and regenerate only missing/corrupt shards",
    )
    p_gen.add_argument(
        "--scramble-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="apply the Graph500-style vertex scramble to written labels "
        "(streamed runs only; recorded in the manifest fingerprint)",
    )
    p_gen.add_argument(
        "--sink",
        choices=["assemble", "shards", "degrees", "net"],
        default="assemble",
        help="where generated edges go: assemble in memory (default), "
        "stream checksummed shards to --out (same as --stream), "
        "accumulate only the degree distribution, or stream every tile "
        "through a repro.net transport to a collector writing the same "
        "shards (byte-identical to --sink shards)",
    )
    p_gen.add_argument(
        "--transport",
        choices=["inproc", "socket"],
        default="inproc",
        help="with --sink net: how tile frames move to the collector "
        "(inproc queues or localhost TCP)",
    )
    from repro.models import MODEL_CHOICES

    p_gen.add_argument(
        "--model",
        choices=list(MODEL_CHOICES),
        default="kron",
        help="generator model: 'kron' realizes the exact design "
        "(default), 'skg' runs plain stochastic Kronecker matched to "
        "the design's scale, 'noisy-skg' adds per-level initiator noise "
        "(arXiv:1102.5046); stochastic models need a streaming sink "
        "(shards, degrees, or net)",
    )
    p_gen.add_argument(
        "--model-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="stochastic-model seed (counter-based: the same seed gives "
        "byte-identical shards on any backend/scheduler/budget)",
    )
    p_gen.add_argument(
        "--noise",
        type=float,
        default=0.1,
        metavar="B",
        help="noisy-skg per-level noise bound (mu_l drawn from [-b, b])",
    )
    _add_runtime_args(p_gen)

    p_val = sub.add_parser("validate", help="realize and check measured == predicted")
    _add_design_args(p_val)

    p_scale = sub.add_parser("scale", help="edge-rate vs rank-count sweep (Fig. 3 style)")
    _add_design_args(p_scale)
    p_scale.add_argument(
        "--ranks",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="rank counts to sweep",
    )
    _add_runtime_args(p_scale)

    p_spec = sub.add_parser(
        "spectrum", help="exact adjacency spectrum of a design's raw product"
    )
    _add_design_args(p_spec)
    p_spec.add_argument("--max-rows", type=int, default=10)

    p_tri = sub.add_parser(
        "triangles", help="realize a design and enumerate its triangles"
    )
    _add_design_args(p_tri)
    p_tri.add_argument("--limit", type=int, default=100, help="max triangles to list")

    p_spy = sub.add_parser("spy", help="terminal spy plot of a realized design")
    _add_design_args(p_spy)
    p_spy.add_argument("--width", type=int, default=48, help="max characters wide")
    p_spy.add_argument(
        "--permute-components",
        action="store_true",
        help="apply the Fig.-1 component-grouping permutation first",
    )

    p_est = sub.add_parser(
        "estimate", help="memory footprint and cluster shape for a design"
    )
    _add_design_args(p_est)
    p_est.add_argument(
        "--rank-memory-gb", type=float, default=4.0, help="per-rank memory budget"
    )

    p_chk = sub.add_parser(
        "check-files",
        help="validate on-disk rank files against a saved design JSON",
    )
    p_chk.add_argument("design_json", type=str, help="design saved by repro.io.save_design")
    p_chk.add_argument("edge_dir", type=str, help="directory of edges.*.tsv rank files")
    p_chk.add_argument("--prefix", type=str, default="edges")

    p_vfy = sub.add_parser(
        "verify-shards",
        help="recompute shard checksums against manifest.json and check "
        "total nnz + degree distribution vs the closed-form prediction",
    )
    p_vfy.add_argument(
        "shard_dir", type=str, help="directory written by a streamed run"
    )
    p_vfy.add_argument(
        "--no-degrees",
        action="store_true",
        help="skip the streamed degree-distribution comparison",
    )

    sub.add_parser(
        "info",
        help="report which optional capabilities (backends, start "
        "methods, transports, generator models) this machine has",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the async design/tile server (repro.serve)",
    )
    p_srv.add_argument(
        "star_sizes",
        type=int,
        nargs="*",
        metavar="M_HAT",
        help="optional design to preload into the registry at boot",
    )
    p_srv.add_argument(
        "--self-loop", choices=["none", "center", "leaf"], default="none"
    )
    p_srv.add_argument(
        "--model", choices=list(MODEL_CHOICES), default="kron",
        help="generator model for the preloaded design",
    )
    p_srv.add_argument("--model-seed", type=int, default=0, metavar="SEED")
    p_srv.add_argument("--noise", type=float, default=0.1, metavar="B")
    p_srv.add_argument("--host", type=str, default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8737,
        help="port to bind (0 = let the OS pick; the chosen port is printed)",
    )
    p_srv.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="catalog cache directory (strongly recommended: warm design "
        "queries become one file read)",
    )
    p_srv.add_argument(
        "--ranks", type=int, default=4,
        help="default rank count for tile plans (per-request ranks= wins)",
    )
    p_srv.add_argument(
        "--memory-budget", type=int, default=None, metavar="ENTRIES",
        help="tiling budget for tile plans (default 16384): the largest "
        "budget= a request may ask for (413 above), and so the longest "
        "tile pull the event loop is held for",
    )
    p_srv.add_argument(
        "--max-concurrency", type=int, default=64,
        help="requests in flight before new ones get 429",
    )
    p_srv.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline",
    )
    p_srv.add_argument(
        "--max-tiles", type=int, default=4096,
        help="largest tile range one request may stream",
    )
    p_srv.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="exit after handling N requests (CI/probe convenience)",
    )

    p_qry = sub.add_parser(
        "query",
        help="query a running design server (POST a spec, fetch a "
        "record, or stream one rank's tiles)",
    )
    p_qry.add_argument(
        "--url", type=str, required=True, help="server base URL"
    )
    p_qry.add_argument(
        "star_sizes",
        type=int,
        nargs="*",
        metavar="M_HAT",
        help="design to POST (omit to address an existing --digest)",
    )
    p_qry.add_argument(
        "--self-loop", choices=["none", "center", "leaf"], default="none"
    )
    p_qry.add_argument(
        "--model", choices=list(MODEL_CHOICES), default="kron"
    )
    p_qry.add_argument("--model-seed", type=int, default=0, metavar="SEED")
    p_qry.add_argument("--noise", type=float, default=0.1, metavar="B")
    p_qry.add_argument(
        "--digest", type=str, default=None,
        help="query this digest instead of POSTing a design",
    )
    p_qry.add_argument(
        "--json", action="store_true",
        help="print the full record document as JSON",
    )
    p_qry.add_argument(
        "--rank", type=int, default=None,
        help="also stream this rank's tiles and summarize them",
    )
    p_qry.add_argument("--start", type=int, default=0)
    p_qry.add_argument("--stop", type=int, default=None)
    p_qry.add_argument("--ranks", type=int, default=None)
    p_qry.add_argument("--memory-budget", type=int, default=None)
    return parser


def cmd_design(args: argparse.Namespace) -> int:
    design = PowerLawDesign(args.star_sizes, args.self_loop)
    catalog_mode = (
        args.catalog
        or args.json
        or args.cache_dir is not None
        or args.refresh
        or args.participation
        or args.model != "kron"
    )
    if not catalog_mode:
        print(design.report().to_text(max_rows=args.max_rows))
        return 0
    from repro.catalog import DesignCatalog

    subject = _resolve_cli_model(args, design) or design
    catalog = DesignCatalog(args.cache_dir)
    record = catalog.analytic(
        subject,
        refresh=args.refresh,
        include_participation=args.participation,
    )
    if args.json:
        print(record.to_json())
    else:
        print(record.to_text(max_rows=args.max_rows))
    if catalog.cache is not None:
        # Stderr so --json stdout stays machine-parseable.
        print(
            "catalog entry: "
            f"{catalog.cache.entry_path(record.key_digest, record.source)}",
            file=sys.stderr,
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    design = design_for_scale(
        args.target_edges, self_loop=args.self_loop, rel_tol=args.rel_tol
    )
    print(f"found design: m̂ = {list(design.star_sizes)}")
    print(design.report().to_text())
    return 0


def _resolve_cli_model(args: argparse.Namespace, design: PowerLawDesign):
    """``--model``/``--model-seed``/``--noise`` → a model instance, or
    ``None`` for the deterministic-Kronecker default."""
    if getattr(args, "model", "kron") == "kron":
        return None
    from repro.models import resolve_model

    return resolve_model(
        args.model, design=design, seed=args.model_seed, noise=args.noise
    )


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.errors import GenerationError
    from repro.parallel import ParallelKroneckerGenerator, VirtualCluster
    from repro.runtime import ConsoleProgress, MetricsRegistry
    from repro.validate import audit_partition

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    model = _resolve_cli_model(args, design)
    if args.sink in ("shards", "net") or args.stream or args.resume:
        return _cmd_generate_stream(args, design, model)
    degrees = args.sink == "degrees"
    unread = [
        flag
        for flag, given in (
            ("--scramble-seed", args.scramble_seed is not None),
            ("--out", degrees and args.out is not None),
            ("--max-retries", degrees and args.max_retries != 0),
            ("--metrics-out", degrees and args.metrics_out is not None),
        )
        if given
    ]
    if unread:
        them = "them" if len(unread) > 1 else "it"
        raise GenerationError(
            f"--sink {args.sink} does not read {', '.join(unread)}; drop "
            f"{them}, or stream with --sink shards or --sink net, which read {them}"
        )
    if degrees:
        return _cmd_generate_degrees(args, design, model)
    if model is not None:
        raise GenerationError(
            f"--model {args.model} needs a streaming sink; rerun with "
            "--sink shards, --sink degrees, or --sink net (the in-memory "
            "assemble path is deterministic-Kronecker only)"
        )
    cluster = VirtualCluster(
        n_ranks=args.ranks, memory_budget_entries=args.memory_budget
    )
    metrics = MetricsRegistry()
    progress = ConsoleProgress(args.ranks)
    gen = ParallelKroneckerGenerator(
        design.to_chain(),
        cluster,
        backend=_resolve_cli_backend(args),
        scheduler=_resolve_scheduler(args),
        max_retries=args.max_retries,
        metrics=metrics,
        events=progress.events(),
    )
    blocks = gen.generate_blocks()
    audit = audit_partition(gen.plan, blocks, design.raw_nnz)
    print(audit.to_text())
    rate = gen.edges_per_second(blocks)
    print(f"simulated aggregate rate: {rate:,.3e} edges/s on {args.ranks} ranks")
    if args.out:
        from repro.io import write_rank_files

        paths = write_rank_files(args.out, blocks)
        print(f"wrote {len(paths)} rank files to {args.out}")
    if args.metrics_out:
        path = _write_metrics_snapshot(
            args.metrics_out,
            metrics,
            command="generate",
            ranks=args.ranks,
            backend=args.backend,
            total_edges=sum(b.nnz for b in blocks),
            edges_per_second=rate,
            execution=gen.last_execution,
        )
        print(f"wrote metrics snapshot to {path}")
    return 0


def _cmd_generate_stream(
    args: argparse.Namespace, design: PowerLawDesign, model=None
) -> int:
    """The crash-safe streamed path of ``generate`` (--stream/--resume)."""
    from repro.errors import GenerationError
    from repro.parallel import generate_to_disk
    from repro.runtime import MetricsRegistry

    if not args.out:
        raise GenerationError("--stream/--resume require --out DIRECTORY")
    transport = args.transport if getattr(args, "sink", None) == "net" else None
    metrics = MetricsRegistry()
    summary = generate_to_disk(
        design,
        args.ranks,
        args.out,
        config=_run_config_from_args(
            args,
            resume=args.resume,
            scramble_seed=args.scramble_seed,
            transport=transport,
            model=model,
        ),
        max_retries=args.max_retries,
        metrics=metrics,
    )
    reused = summary.skipped_ranks
    print(
        f"streamed {summary.total_edges:,} edges across {summary.n_ranks} "
        f"shards to {args.out} "
        f"({reused} reused from checkpoint, {summary.n_ranks - reused} generated)"
    )
    if transport is not None:
        frames = metrics.counter("net.frames_sent").value
        net_bytes = metrics.counter("net.bytes_sent").value
        print(
            f"collected over {transport} transport: "
            f"{int(frames):,} frames, {int(net_bytes):,} bytes"
        )
    print(f"manifest: {summary.manifest_path}")
    if args.metrics_out:
        path = _write_metrics_snapshot(
            args.metrics_out,
            metrics,
            command="generate --stream",
            ranks=args.ranks,
            backend=args.backend,
            total_edges=summary.total_edges,
            skipped_ranks=reused,
            transport=transport,
        )
        print(f"wrote metrics snapshot to {path}")
    return 0


def _cmd_generate_degrees(
    args: argparse.Namespace, design: PowerLawDesign, model=None
) -> int:
    """``generate --sink degrees``: stream tiles straight into a degree
    accumulator (no edges are kept) and check the measured distribution
    against the closed-form prediction.  Stochastic models skip the
    exact check (their distribution is a draw, not a design) and report
    the measured histogram summary instead."""
    from repro.parallel import streamed_degree_distribution
    from repro.validate import check_degree_distribution

    measured = streamed_degree_distribution(
        design, args.ranks, config=_run_config_from_args(args, model=model)
    )
    if model is not None:
        print(
            f"accumulated degrees of {measured.total_nnz():,} stored "
            f"entries ({model.name} model, seed {model.seed}) across "
            f"{args.ranks} ranks (budget {args.memory_budget:,} entries)"
        )
        print(
            f"  distinct degrees: {len(measured):,}, "
            f"max degree: {measured.max_degree():,}"
        )
        return 0
    check = check_degree_distribution(measured, design.degree_distribution)
    print(
        f"accumulated degrees of {design.num_edges:,} predicted edges "
        f"across {args.ranks} ranks (budget {args.memory_budget:,} entries)"
    )
    print(check.to_text())
    return 0 if check.exact_match else 1


def cmd_verify_shards(args: argparse.Namespace) -> int:
    from repro.parallel import verify_shards

    verification = verify_shards(
        args.shard_dir, check_degrees=not args.no_degrees
    )
    print(verification.to_text())
    return 0 if verification.passed else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import validate_design

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    report = validate_design(design)
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.parallel.scaling import run_scaling_study
    from repro.runtime import MetricsRegistry

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    metrics = MetricsRegistry() if args.metrics_out else None
    study = run_scaling_study(
        design.to_chain(),
        args.ranks,
        config=_run_config_from_args(args),
        max_retries=args.max_retries,
        metrics=metrics,
    )
    print(study.to_text())
    if args.metrics_out:
        path = _write_metrics_snapshot(
            args.metrics_out,
            metrics,
            command="scale",
            ranks=args.ranks,
            backend=args.backend,
            sweep=study.rows(),
        )
        print(f"wrote metrics snapshot to {path}")
    return 0


def _write_metrics_snapshot(path, metrics, *, execution=None, **run_info) -> str:
    """Merge the registry snapshot with run-level accounting and write it."""
    from repro.runtime import write_snapshot

    snapshot = metrics.snapshot()
    snapshot["run"] = dict(run_info)
    if execution is not None:
        snapshot["run"]["execution"] = execution.to_dict()
    return write_snapshot(path, snapshot)


def cmd_spectrum(args: argparse.Namespace) -> int:
    from repro.design import design_spectrum

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    spectrum = design_spectrum(design)
    print(
        f"spectrum of the raw product ({design!r}): "
        f"{len(spectrum)} distinct eigenvalues, dimension {spectrum.dimension:,}"
    )
    print(f"  spectral radius: {spectrum.spectral_radius:.6g}")
    print(f"  sum lambda^2 (= raw nnz): {spectrum.moment(2):,.6g}")
    shown = spectrum.pairs[: args.max_rows]
    for value, mult in shown:
        print(f"  {value:>14.6g}  x {mult:,}")
    if len(spectrum.pairs) > args.max_rows:
        print(f"  ... ({len(spectrum.pairs) - args.max_rows} more)")
    return 0


def cmd_triangles(args: argparse.Namespace) -> int:
    from repro.analysis import iter_triangles

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    print(f"predicted triangles: {design.num_triangles:,}")
    graph = design.realize()
    shown = 0
    for triangle in iter_triangles(graph):
        if shown < args.limit:
            print(f"  {triangle}")
        shown += 1
    if shown > args.limit:
        print(f"  ... ({shown - args.limit} more)")
    print(f"enumerated: {shown:,}")
    return 0 if shown == design.num_triangles else 1


def cmd_spy(args: argparse.Namespace) -> int:
    from repro.analysis import spy_with_caption
    from repro.kron import component_permutation

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    graph = design.realize()
    adjacency = graph.adjacency
    caption = repr(design)
    if args.permute_components:
        adjacency = adjacency.permuted(component_permutation(adjacency))
        caption += "  (component-permuted)"
    print(spy_with_caption(adjacency, caption, max_width=args.width))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro.design import estimate_resources, recommend_cluster
    from repro.errors import DesignError

    design = PowerLawDesign(args.star_sizes, args.self_loop)
    estimate = estimate_resources(design)
    print(estimate.to_text())
    budget = int(args.rank_memory_gb * 2**30)
    try:
        rec = recommend_cluster(design, budget)
        print(f"recommended: {rec.to_text()}")
    except DesignError as exc:
        print(f"no feasible cluster at {args.rank_memory_gb} GiB/rank: {exc}")
        return 1
    return 0


def cmd_check_files(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import IOFormatError
    from repro.io import load_design
    from repro.parallel import read_streamed_degree_distribution
    from repro.validate import check_degree_distribution

    design = load_design(args.design_json)
    directory = Path(args.edge_dir)
    files = sorted(
        p for p in directory.iterdir()
        if p.name.startswith(args.prefix + ".") and p.suffix == ".tsv"
    )
    if not files:
        raise IOFormatError(f"no {args.prefix}.*.tsv files in {directory}")
    measured = read_streamed_degree_distribution(files, design.num_vertices)
    check = check_degree_distribution(measured, design.degree_distribution)
    print(f"design: {design!r} ({len(files)} rank files)")
    print(check.to_text())
    return 0 if check.exact_match else 1


def cmd_info(args: argparse.Namespace) -> int:
    """Report which optional capabilities this machine actually has, so
    "works here, fails there" surprises (fork-only platforms) are
    diagnosable in one command."""
    import multiprocessing
    import platform

    import numpy as np

    from repro.models import MODEL_CHOICES
    from repro.net import list_transports
    from repro.parallel.backends import default_start_method, list_backends

    print(f"repro-graph {__version__}")
    print(
        f"python {platform.python_version()} on {platform.system().lower()}"
        f", numpy {np.__version__}"
    )
    print(f"backends: {', '.join(list_backends())}")
    methods = multiprocessing.get_all_start_methods()
    print(
        f"start methods: {', '.join(methods)} "
        f"(default: {default_start_method()})"
    )
    print(f"transports: {', '.join(list_transports())}")
    print(f"generator models: {', '.join(MODEL_CHOICES)}")
    return 0


def _serve_spec(args: argparse.Namespace) -> dict:
    return {
        "star_sizes": list(args.star_sizes),
        "self_loop": args.self_loop,
        "model": args.model,
        "seed": args.model_seed,
        "noise": args.noise,
    }


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DesignServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        ranks=args.ranks,
        memory_budget_entries=(
            args.memory_budget
            if args.memory_budget is not None
            else ServerConfig.memory_budget_entries
        ),
        max_concurrency=args.max_concurrency,
        request_timeout_s=args.request_timeout,
        max_tiles_per_request=args.max_tiles,
        max_requests=args.max_requests,
    )

    async def _run() -> None:
        server = DesignServer(config)
        if args.star_sizes:
            digest = server.register(_serve_spec(args))
            print(f"preloaded {args.model} design {digest}", flush=True)
        await server.start()
        print(f"serving on {server.base_url}", flush=True)
        try:
            await server.serve_until_done()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeClient

    with ServeClient(args.url) as client:
        if args.star_sizes:
            reply = client.post_design(_serve_spec(args))
            digest = reply["digest"]
            record = reply["record"]
            cached = reply["cached"]
        elif args.digest:
            served = client.get_design(args.digest)
            digest = served.doc["digest"]
            record = served.record_doc
            cached = served.doc["cached"]
        else:
            print(
                "error: give star sizes to POST or --digest to look up",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(_json.dumps(record, indent=2, sort_keys=True))
        else:
            print(f"digest        {digest}")
            print(f"served from   {'cache' if cached else 'fresh compute'}")
            print(f"num_vertices  {record['num_vertices']}")
            print(f"num_edges     {record['num_edges']}")
            triangles = record.get("triangles", {})
            print(f"triangles     {triangles.get('num_triangles')}")
        if args.rank is not None:
            tiles = client.fetch_tiles(
                digest,
                args.rank,
                start=args.start,
                stop=args.stop,
                ranks=args.ranks,
                budget=args.memory_budget,
            )
            print(
                f"rank {args.rank}: {len(tiles.tiles)} tiles, "
                f"{tiles.nnz} entries "
                f"(indices {[i for i, _ in tiles.tiles]})"
            )
    return 0


_COMMANDS = {
    "check-files": cmd_check_files,
    "verify-shards": cmd_verify_shards,
    "design": cmd_design,
    "search": cmd_search,
    "generate": cmd_generate,
    "validate": cmd_validate,
    "scale": cmd_scale,
    "spectrum": cmd_spectrum,
    "triangles": cmd_triangles,
    "spy": cmd_spy,
    "estimate": cmd_estimate,
    "info": cmd_info,
    "serve": cmd_serve,
    "query": cmd_query,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
