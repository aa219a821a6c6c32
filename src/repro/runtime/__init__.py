"""Fault-tolerant, observable rank execution (the runtime layer).

The paper's Section-V generator is communication-free, which makes every
rank an independently retryable, measurable unit of work.  This package
is the execution/observability layer the rest of the system plugs into:

* :mod:`repro.runtime.metrics` — in-process counters/gauges/histograms
  with JSON snapshots (zero hard dependencies);
* :mod:`repro.runtime.tracing` — nestable span contexts with a pluggable
  sink (in-memory ring buffer by default);
* :mod:`repro.runtime.executor` — :class:`RankExecutor`: bounded retry
  with exponential backoff + jitter, transient vs fatal failure
  classification, reassignment of a lost worker's task, straggler
  detection, all on the one completion-streaming surface ``run_iter``;
* :mod:`repro.runtime.events` — progress callbacks the CLI consumes for
  live per-rank output;
* :mod:`repro.runtime.checkpoint` — the durability layer: atomic
  fsync+rename shard writes, SHA-256 checksums, the per-run
  ``manifest.json`` (:class:`RunManifest`), shard quarantine, fatal
  storage-error classification, and the :class:`CrashInjector` used to
  prove interrupted-then-resumed runs are byte-identical.
"""

from repro.runtime.checkpoint import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    QUARANTINE_SUFFIX,
    CrashInjector,
    RunManifest,
    ShardRecord,
    ShardWriter,
    SimulatedCrash,
    atomic_write_bytes,
    atomic_write_text,
    design_fingerprint,
    file_checksum,
    is_fatal_storage_error,
    payload_checksum,
    quarantine_shard,
    verify_shard_record,
)
from repro.runtime.events import ConsoleProgress, RankEvents
from repro.runtime.executor import (
    ExecutionResult,
    FailureInjector,
    RankAttempt,
    RankExecutor,
    RankReport,
    TaskCompletion,
)
from repro.runtime.metrics import (
    DEFAULT_BUCKETS,
    MIN_ELAPSED_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    write_snapshot,
)
from repro.runtime.tracing import (
    DEFAULT_TRACER,
    ListSink,
    RingBufferSink,
    Span,
    Tracer,
    span,
)

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "QUARANTINE_SUFFIX",
    "CrashInjector",
    "RunManifest",
    "ShardRecord",
    "ShardWriter",
    "SimulatedCrash",
    "atomic_write_bytes",
    "atomic_write_text",
    "design_fingerprint",
    "file_checksum",
    "is_fatal_storage_error",
    "payload_checksum",
    "quarantine_shard",
    "verify_shard_record",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "MIN_ELAPSED_S",
    "write_snapshot",
    "Span",
    "Tracer",
    "RingBufferSink",
    "ListSink",
    "DEFAULT_TRACER",
    "span",
    "RankExecutor",
    "ExecutionResult",
    "RankReport",
    "RankAttempt",
    "TaskCompletion",
    "FailureInjector",
    "RankEvents",
    "ConsoleProgress",
]
