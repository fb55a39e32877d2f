"""Command-line interface for quick private-histogram releases.

The CLI wraps the two high-level tasks so that a data owner can produce a
differentially private release from a CSV of counts (or from one of the
built-in synthetic datasets) without writing Python::

    # Private degree sequence of the bundled social-network stand-in
    python -m repro.cli unattributed --dataset socialnetwork --epsilon 0.1 --seed 7

    # Universal histogram from a file of per-bucket counts (one number per line)
    python -m repro.cli universal --counts-file counts.txt --epsilon 0.5 --out release.csv

    # Compare the estimators on your data (Figure 5 / Figure 6 style tables)
    python -m repro.cli compare-unattributed --dataset nettrace --trials 10

Beyond one-shot releases, the CLI drives the serving tier
(:mod:`repro.serving`): ``materialize`` pays ε once and persists the
consistent release as a ``.npz`` artifact; ``batch-query`` then answers
arbitrarily many range queries from that artifact — offline, with no
access to the private data and no further privacy cost::

    # Materialize a consistent H_bar release to disk (the only ε charge)
    python -m repro.cli materialize --dataset nettrace --epsilon 0.5 \
        --seed 7 --release nettrace.npz

    # Answer 100k random range queries from the artifact (no ε charge)
    python -m repro.cli batch-query --release nettrace.npz --random 100000

    # Answer ranges from a file ("lo hi" per line) and save a CSV
    python -m repro.cli batch-query --release nettrace.npz \
        --queries-file ranges.txt --out answers.csv

For long-lived serving, ``serve-store`` runs an engine over a durable
release *store* directory: the first run pays ε and persists the
artifact; any later run (including after a restart) warm-starts from disk
with zero recomputation and zero additional ε.  ``fleet`` hosts several
datasets behind one façade with per-dataset budgets and a shared store::

    python -m repro.cli serve-store --store releases/ --dataset nettrace \
        --epsilon 0.5 --seed 7 --random 100000
    python -m repro.cli fleet --store releases/ --datasets nettrace searchlogs \
        --epsilon 0.5 --seed 7 --random 10000

The streaming commands (:mod:`repro.streaming`) run the epoch-based
incremental loop: ``ingest`` appends row arrivals to an owner-side stream
directory, ``advance-epoch`` folds the backlog into the next epoch's
release (charging the next ε on the geometric schedule, persisting the
artifact and lineage into the store), and ``serve-stream`` answers
queries from the latest epoch — warm-starting from the stored lineage
with zero ε after a restart::

    python -m repro.cli ingest --stream-dir stream/ --dataset nettrace --rows 5000
    python -m repro.cli advance-epoch --stream-dir stream/ --store releases/ \
        --stream nettrace-live --epsilon0 0.4 --decay 0.5
    python -m repro.cli serve-stream --store releases/ --stream nettrace-live \
        --dataset nettrace --epsilon0 0.4 --decay 0.5 --random 100000

The stream directory holds *true, un-noised* data (the owner's current
counts and pending arrivals) and must stay in the owner's trust domain;
the store and lineage hold only ε-charged releases and are safe to share.

The observability commands (:mod:`repro.obs`) run an instrumented mixed
workload — a static engine served cold then warm, one sharded build,
and one stream epoch — under a scoped metrics/tracing session:
``stats`` prints the per-tenant rollup, span timings, and ε-ledger;
``export-metrics`` emits the same telemetry as Prometheus text
exposition (default) or JSON, with every ledger total bit-equal to the
privacy accountants' own sums::

    python -m repro.cli stats --store releases/
    python -m repro.cli export-metrics --format json --out metrics.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import obs
from repro.accuracy import AccuracySLO
from repro.analysis.tables import render_table, write_csv
from repro.core.tasks import UnattributedHistogramTask, UniversalHistogramTask
from repro.data.registry import default_registry
from repro.data.synthetic import arrival_stream
from repro.db.histogram import delta_counts
from repro.exceptions import (
    BudgetExhaustedError,
    LineageConflictError,
    ReproError,
    StoreCorruptionError,
)
from repro.obs import EpsilonLedgerExporter
from repro.serving import (
    ESTIMATOR_NAMES,
    BatchQueryPlanner,
    EngineFleet,
    HistogramEngine,
    MaterializedRelease,
    QueryBatch,
    ReleaseStore,
)
from repro.utils.io_atomic import atomic_write_bytes
from repro.sharding import ShardedHistogramEngine
from repro.streaming import GeometricEpsilonSchedule, StreamingHistogramEngine
from repro.utils.random import as_generator

__all__ = ["main", "build_parser"]


def _load_counts(args: argparse.Namespace, task: str) -> np.ndarray:
    """Resolve the input counts from --domain-bits, --counts-file, or --dataset."""
    if getattr(args, "domain_bits", None) is not None:
        if not 1 <= args.domain_bits <= 26:
            raise ReproError(
                f"--domain-bits must be in [1, 26], got {args.domain_bits}"
            )
        rng = as_generator(args.seed)
        return rng.poisson(3.0, size=2**args.domain_bits).astype(np.float64)
    if args.counts_file is not None:
        values = np.loadtxt(args.counts_file, dtype=np.float64, ndmin=1)
        return np.asarray(values, dtype=np.float64)
    registry = default_registry()
    entry = registry.get(args.dataset, scale=args.scale)
    rng = as_generator(args.seed)
    if task == "universal":
        if entry.universal is None:
            raise ReproError(
                f"dataset {args.dataset!r} has no universal-histogram variant"
            )
        return entry.universal(rng)
    return entry.unattributed(rng)


def _write_vector(values: np.ndarray, out: str | None, label: str) -> None:
    rows = [{"bucket": i, label: float(v)} for i, v in enumerate(values)]
    if out:
        path = write_csv(rows, Path(out))
        print(f"wrote {len(rows)} rows to {path}")
    else:
        preview = ", ".join(f"{v:g}" for v in values[:20])
        suffix = ", ..." if values.size > 20 else ""
        print(f"{label} ({values.size} values): {preview}{suffix}")


def _cmd_unattributed(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="unattributed")
    task = UnattributedHistogramTask(counts)
    release = task.release(epsilon=args.epsilon, rng=args.seed)
    _write_vector(release, args.out, "private_sorted_count")
    return 0


def _cmd_universal(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    task = UniversalHistogramTask(counts, branching=args.branching)
    fitted = task.release(epsilon=args.epsilon, rng=args.seed)
    _write_vector(fitted.unit_counts(), args.out, "private_unit_count")
    print(f"private total: {fitted.total():g}")
    return 0


def _cmd_compare_unattributed(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="unattributed")
    task = UnattributedHistogramTask(counts)
    comparison = task.compare(
        epsilons=args.epsilons, trials=args.trials, rng=args.seed, dataset=args.dataset
    )
    print(render_table(comparison.to_rows(), title="Average total squared error"))
    if args.out:
        write_csv(comparison.to_rows(), Path(args.out))
        print(f"wrote results to {args.out}")
    return 0


def _cmd_compare_universal(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    task = UniversalHistogramTask(counts, branching=args.branching)
    comparison = task.compare(
        epsilons=args.epsilons,
        trials=args.trials,
        queries_per_size=args.queries_per_size,
        rng=args.seed,
        dataset=args.dataset,
    )
    print(render_table(comparison.to_rows(), title="Average squared error per range query"))
    if args.out:
        write_csv(comparison.to_rows(), Path(args.out))
        print(f"wrote results to {args.out}")
    return 0


def _cmd_materialize(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    engine = HistogramEngine(
        counts, total_epsilon=args.epsilon, branching=args.branching
    )
    release = engine.materialize(args.estimator, epsilon=args.epsilon, seed=args.seed)
    path = release.save(args.release)
    print(
        f"materialized {release.estimator} release: {release.domain_size} buckets, "
        f"ε={release.epsilon:g}, branching={release.branching}, seed={release.seed}, "
        f"private total≈{release.total():g}"
    )
    print(f"dataset fingerprint {release.dataset_fingerprint}; wrote {path}")
    if args.out:
        _write_vector(release.unit_counts(), args.out, "private_unit_count")
    return 0


def _resolve_batch(args: argparse.Namespace, domain_size: int) -> QueryBatch:
    if args.queries_file:
        try:
            bounds = np.loadtxt(args.queries_file, dtype=np.int64, ndmin=2)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot read ranges from {args.queries_file}: {error}"
            ) from error
        return QueryBatch.from_pairs(bounds, name=Path(args.queries_file).name)
    if args.prefixes:
        return QueryBatch.prefixes(domain_size)
    if args.units:
        return QueryBatch.units(domain_size)
    if args.total:
        return QueryBatch.total(domain_size)
    count = args.random if args.random is not None else 1000
    return QueryBatch.random(domain_size, count, rng=args.query_seed)


def _cmd_batch_query(args: argparse.Namespace) -> int:
    release = MaterializedRelease.load(args.release)
    batch = _resolve_batch(args, release.domain_size)
    planner = BatchQueryPlanner()
    start = perf_counter()
    answers = planner.answer(release, batch)
    elapsed = perf_counter() - start
    print(
        f"release: {release.estimator}, ε={release.epsilon:g}, "
        f"{release.domain_size} buckets, fingerprint {release.dataset_fingerprint}"
    )
    rate = f"{len(batch) / elapsed:,.0f} queries/s" if elapsed > 0 else "instant"
    print(
        f"answered {len(batch)} range queries ({batch.name}) in "
        f"{elapsed * 1e3:.2f} ms ({rate}) — no additional privacy cost"
    )
    _write_answers(batch, answers, args.out)
    return 0


def _write_answers(batch: QueryBatch, answers: np.ndarray, out: str | None) -> None:
    if out:
        rows = [
            {"lo": int(lo), "hi": int(hi), "estimate": float(v)}
            for lo, hi, v in zip(batch.los, batch.his, answers)
        ]
        path = write_csv(rows, Path(out))
        print(f"wrote {len(rows)} rows to {path}")
    else:
        preview = ", ".join(f"{v:g}" for v in answers[:10])
        suffix = ", ..." if answers.size > 10 else ""
        print(f"estimates: {preview}{suffix}")


# -- unified serving stats -----------------------------------------------------


def _registry_serving_stats(kind: str) -> dict:
    """Per-process serving figures for one engine kind, read back from the
    metrics-registry JSON snapshot.

    The ``serve-store`` / ``serve-stream`` / ``serve-sharded`` stats
    block is rendered from the same counters and histograms that
    ``export-metrics`` publishes, so the human-readable output and the
    machine exposition cannot drift apart.
    """
    # Caller-gated: the serve commands call this inside `with
    # obs.session():`, which enables observability for its extent.
    snapshot = obs.registry().snapshot()  # statan: ignore[OBS001]

    def sample(section: str, name: str) -> dict | None:
        family = snapshot.get(section, {}).get(name)
        if family is None:
            return None
        for candidate in family["samples"]:
            if candidate["labels"] == {"engine": kind}:
                return candidate
        return None

    def counter(name: str) -> float:
        found = sample("counters", name)
        return found["value"] if found else 0.0

    def histogram_sum(name: str) -> float:
        found = sample("histograms", name)
        return found["sum"] if found else 0.0

    return {
        "batches": int(counter("repro_serve_batches_total")),
        "queries": int(counter("repro_serve_queries_total")),
        "cold_builds": int(counter("repro_serve_cold_builds_total")),
        "answer_seconds": histogram_sum("repro_serve_answer_seconds"),
        "build_seconds": histogram_sum("repro_serve_build_seconds"),
    }


def _print_serving_stats(
    kind: str,
    batch_name: str,
    *,
    via: str = "",
    build_note: bool = False,
    epsilon_line: str | None = None,
) -> None:
    """The one snapshot renderer behind every ``serve-*`` subcommand."""
    stats = _registry_serving_stats(kind)
    seconds = stats["answer_seconds"]
    rate = (
        f"{stats['queries'] / seconds:,.0f} queries/s" if seconds > 0 else "instant"
    )
    build = (
        f"; release resolution took {stats['build_seconds'] * 1e3:.2f} ms"
        if build_note
        else ""
    )
    print(
        f"answered {stats['queries']} range queries ({batch_name}){via} in "
        f"{seconds * 1e3:.2f} ms ({rate}){build}"
    )
    if epsilon_line is not None:
        print(epsilon_line)


def _cmd_serve_store(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    total = args.total_epsilon if args.total_epsilon is not None else args.epsilon
    engine = HistogramEngine(
        counts,
        total_epsilon=total,
        branching=args.branching,
        store=ReleaseStore(args.store),
        slo=_resolve_slo(args),
    )
    batch = _resolve_batch(args, engine.domain_size)
    with obs.session():
        result = engine.submit(
            batch, args.estimator, epsilon=args.epsilon, seed=args.seed
        )
        if engine.materializations == 0:
            print(
                f"warm start from {args.store}: release loaded from disk — "
                "0 materializations, zero additional privacy cost"
            )
        else:
            print(
                f"cold start: materialized {result.estimator} (ε={result.epsilon:g}) "
                f"and persisted it to {args.store}"
            )
        _print_serving_stats(
            "histogram",
            batch.name,
            build_note=True,
            epsilon_line=(
                f"materializations this process: {engine.materializations}; "
                f"ε spent this process: {engine.spent_epsilon:g}"
            ),
        )
        _print_accuracy_summary(engine)
    _write_answers(batch, result.answers, args.out)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    registry = default_registry()
    fleet = EngineFleet(store=ReleaseStore(args.store) if args.store else None)
    total = args.total_epsilon if args.total_epsilon is not None else args.epsilon
    rows = []
    for name in args.datasets:
        entry = registry.get(name, scale=args.scale)
        if entry.universal is None:
            raise ReproError(
                f"dataset {name!r} has no universal-histogram variant"
            )
        counts = entry.universal(as_generator(args.seed))
        engine = fleet.register(name, counts, total, branching=args.branching)
        batch = QueryBatch.random(engine.domain_size, args.random, rng=args.query_seed)
        result = fleet.submit(
            name, batch, args.estimator, epsilon=args.epsilon, seed=args.seed
        )
        rows.append(
            {
                "dataset": name,
                "domain": engine.domain_size,
                "queries": result.num_queries,
                "warm": result.from_cache,
                "build_ms": round(result.build_seconds * 1e3, 2),
                "answer_ms": round(result.answer_seconds * 1e3, 3),
                "epsilon_spent": engine.spent_epsilon,
            }
        )
    print(render_table(rows, title="Fleet serving summary (per dataset)"))
    stats = fleet.stats()
    print(
        f"fleet: {stats.datasets} datasets, {stats.requests} requests, "
        f"{stats.queries} queries, {stats.materializations} materializations, "
        f"sum of per-dataset ε spent: {stats.spent_epsilon:g}, aggregate "
        f"{stats.queries_per_second:,.0f} queries/s"
    )
    return 0


# -- streaming commands --------------------------------------------------------
#
# The stream directory is owner-side state (true data, never released):
#   <stream-dir>/current_counts.txt   counts already folded into an epoch
#   <stream-dir>/pending.log          arrivals not yet released (one index/line)
#
# `advance-epoch` must commit two files after the epoch durably exists —
# the updated counts and the consumed pending log — which cannot be one
# atomic operation.  The counts file therefore carries a header recording
# the epoch it reflects plus the digest and byte length of the pending
# prefix that epoch consumed; on startup `advance-epoch` uses the lineage
# plus that header to detect and complete an interrupted commit instead
# of double-folding or dropping the backlog (see _recover_stream_state).
# The log is append-only, so "consume" always means dropping a byte
# prefix — rows a concurrent `ingest` appended during a build survive as
# the tail.

_COUNTS_HEADER = re.compile(
    r"#\s*epoch\s+(-?\d+)\s+pending-sha256\s+(\S+)\s+bytes\s+(\d+)"
)


def _stream_counts_path(stream_dir: str) -> Path:
    return Path(stream_dir) / "current_counts.txt"


def _stream_pending_path(stream_dir: str) -> Path:
    return Path(stream_dir) / "pending.log"


def _read_pending_bytes(pending_path: Path) -> bytes:
    return pending_path.read_bytes() if pending_path.exists() else b""


def _parse_pending(raw: bytes, domain_size: int) -> np.ndarray:
    """Row indexes from a pending-log byte snapshot, fully validated."""
    if not raw.strip():
        return np.zeros(0, dtype=np.int64)
    try:
        indexes = np.array([int(line) for line in raw.split()], dtype=np.int64)
    except ValueError as error:
        raise ReproError(f"corrupt pending log: {error}") from error
    delta_counts(indexes, domain_size)  # validates every index eagerly
    return indexes


def _drop_pending_prefix(pending_path: Path, consumed_bytes: int) -> None:
    """Atomically remove the consumed prefix, preserving any appended tail."""
    tail = _read_pending_bytes(pending_path)[consumed_bytes:]
    atomic_write_bytes(pending_path, lambda handle: handle.write(tail))


def _write_stream_counts(
    path: Path, counts: np.ndarray, epoch: int, consumed: bytes
) -> None:
    """Atomically replace the owner's counts file (never leave it torn)."""
    digest = hashlib.sha256(consumed).hexdigest()
    lines = [f"# epoch {epoch} pending-sha256 {digest} bytes {len(consumed)}"]
    lines.extend(f"{value:.1f}" for value in counts)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, lambda handle: handle.write(payload))


def _load_stream_counts(
    args: argparse.Namespace,
) -> tuple[np.ndarray, int, str, int]:
    """The stream's current true counts, initialized from the base dataset.

    Returns ``(counts, epoch, consumed_digest, consumed_bytes)`` where
    ``epoch`` is the epoch the counts reflect (-1 before any release) and
    the digest/length describe the pending-log prefix that epoch's commit
    consumed.
    """
    path = _stream_counts_path(args.stream_dir)
    if path.exists():
        epoch, digest, nbytes = -1, "", 0
        with open(path) as handle:
            match = _COUNTS_HEADER.match(handle.readline())
        if match:
            epoch, digest, nbytes = (
                int(match.group(1)),
                match.group(2),
                int(match.group(3)),
            )
        return np.loadtxt(path, dtype=np.float64, ndmin=1), epoch, digest, nbytes
    counts = _load_counts(args, task="universal")
    _write_stream_counts(path, counts, -1, b"")
    return counts, -1, "", 0


def _load_pending(args: argparse.Namespace, domain_size: int) -> np.ndarray:
    return _parse_pending(
        _read_pending_bytes(_stream_pending_path(args.stream_dir)), domain_size
    )


def _recover_stream_state(
    args: argparse.Namespace,
    counts: np.ndarray,
    counts_epoch: int,
    consumed_digest: str,
    consumed_bytes: int,
    latest_epoch: int,
) -> tuple[np.ndarray, bool]:
    """Complete an `advance-epoch` commit a crash interrupted.

    Returns ``(counts, recovered)``.  Two interruption points are
    distinguishable:

    * counts header behind the lineage (crash before the counts write):
      the pending log was already folded into the released epoch — fold
      the whole log (rows appended after the crash simply reach the next
      release through the counts) and clear it;
    * counts header current but the pending log still starts with the
      byte prefix the commit recorded (crash between the counts write
      and the prefix drop): drop the prefix, keeping any appended tail.
    """
    counts_path = _stream_counts_path(args.stream_dir)
    pending_path = _stream_pending_path(args.stream_dir)
    raw = _read_pending_bytes(pending_path)
    if counts_epoch < latest_epoch:
        pending = _parse_pending(raw, counts.size)
        counts = counts + delta_counts(pending, counts.size)
        _write_stream_counts(counts_path, counts, latest_epoch, raw)
        _drop_pending_prefix(pending_path, len(raw))
        _write_stream_counts(counts_path, counts, latest_epoch, b"")
        print(
            f"recovered interrupted commit: folded {pending.size} released "
            f"rows into the counts for epoch {latest_epoch}"
        )
        return counts, True
    if (
        counts_epoch == latest_epoch
        and consumed_bytes > 0
        and len(raw) >= consumed_bytes
        and hashlib.sha256(raw[:consumed_bytes]).hexdigest() == consumed_digest
    ):
        _drop_pending_prefix(pending_path, consumed_bytes)
        _write_stream_counts(counts_path, counts, latest_epoch, b"")
        print(
            f"recovered interrupted commit: dropped the pending prefix "
            f"already consumed by epoch {latest_epoch}"
        )
        return counts, True
    return counts, False


def _stream_schedule(args: argparse.Namespace) -> GeometricEpsilonSchedule:
    return GeometricEpsilonSchedule(args.epsilon0, decay=args.decay)


def _stream_engine(
    args: argparse.Namespace, counts: np.ndarray, build_first_epoch: bool
) -> StreamingHistogramEngine:
    schedule = _stream_schedule(args)
    total = (
        args.total_epsilon
        if args.total_epsilon is not None
        else schedule.infinite_total
    )
    return StreamingHistogramEngine(
        counts,
        total,
        schedule,
        estimator=args.estimator,
        branching=args.branching,
        seed=args.seed,
        store=ReleaseStore(args.store),
        name=args.stream,
        build_first_epoch=build_first_epoch,
        slo=_resolve_slo(args),
    )


def _print_lineage(engine: StreamingHistogramEngine) -> None:
    rows = [
        {
            "epoch": record.epoch,
            "epsilon": record.epsilon,
            "rows_ingested": record.rows_ingested,
            "total_rows": record.total_rows,
            "seed": record.key.seed,
            "fingerprint": record.key.dataset_fingerprint,
        }
        for record in engine.lineage.records
    ]
    print(render_table(rows, title=f"Epoch lineage for stream {engine.name!r}"))


def _cmd_ingest(args: argparse.Namespace) -> int:
    counts, _, _, _ = _load_stream_counts(args)
    if args.rows_file:
        try:
            indexes = np.loadtxt(args.rows_file, dtype=np.int64, ndmin=1)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot read row indexes from {args.rows_file}: {error}"
            ) from error
    else:
        indexes = next(
            arrival_stream(counts.size, args.rows, batches=1, rng=args.seed)
        )
    delta_counts(indexes, counts.size)  # validates before appending
    pending_path = _stream_pending_path(args.stream_dir)
    # Append-only, O(batch): the backlog is counted when it is folded, not
    # re-read on every ingest.
    with open(pending_path, "a") as handle:
        handle.writelines(f"{index}\n" for index in indexes)
    print(
        f"ingested {indexes.size} rows into {pending_path} "
        f"(run advance-epoch to fold the backlog into the next release)"
    )
    return 0


def _cmd_advance_epoch(args: argparse.Namespace) -> int:
    counts, counts_epoch, consumed_digest, consumed_bytes = _load_stream_counts(args)
    engine = _stream_engine(args, counts, build_first_epoch=False)
    counts, recovered = _recover_stream_state(
        args, counts, counts_epoch, consumed_digest, consumed_bytes,
        len(engine.lineage) - 1,
    )
    pending_path = _stream_pending_path(args.stream_dir)
    raw = _read_pending_bytes(pending_path)
    pending = _parse_pending(raw, counts.size)
    if recovered:
        # Recovery may have folded released rows into the counts; the
        # engine was constructed over the stale vector, so rebuild it
        # over the recovered one (warm resume, zero ε).
        engine = _stream_engine(args, counts, build_first_epoch=False)
    if pending.size:
        engine.ingest(pending)
    record = engine.advance_epoch()
    if record is None:
        # An epoch with nothing to fold builds and charges nothing, so
        # there is no owner-side state to commit either.
        print("no pending rows to fold: no epoch built, no ε charged")
        return 0
    # Commit the owner-side state only after the epoch (and its lineage)
    # durably exists; a crash anywhere in this multi-file commit is
    # detected and completed by _recover_stream_state on the next run.
    # The pending log only ever loses the byte prefix this build
    # consumed, so rows a concurrent `ingest` appended meanwhile survive
    # as the tail.
    counts_path = _stream_counts_path(args.stream_dir)
    new_counts = counts + delta_counts(pending, counts.size)
    _write_stream_counts(counts_path, new_counts, record.epoch, raw)
    _drop_pending_prefix(pending_path, len(raw))
    # Clear the consumed marker so a later run can never mistake freshly
    # ingested (possibly byte-identical) arrivals for this stale prefix.
    _write_stream_counts(counts_path, new_counts, record.epoch, b"")
    print(
        f"epoch {record.epoch}: folded {record.rows_ingested} pending rows, "
        f"charged ε={record.epsilon:g} (schedule "
        f"ε₀={args.epsilon0:g}·{args.decay:g}^i), "
        f"release {record.key.dataset_fingerprint}"
    )
    _print_lineage(engine)
    print(f"stream total ε across epochs: {engine.lineage.spent_epsilon:g}")
    return 0


def _cmd_serve_stream(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    engine = _stream_engine(args, counts, build_first_epoch=True)
    warm_started = engine.epoch >= 0 and engine.spent_epsilon == 0.0
    if args.epochs:
        if warm_started:
            # The simulation folds synthetic arrivals into the *base*
            # dataset counts; running it against a stream that already
            # has released epochs would silently rebase the stream and
            # drop every row the ingest/advance-epoch flow folded in.
            raise ReproError(
                f"--epochs simulates a fresh demo stream, but "
                f"{args.stream!r} already has {engine.epoch + 1} released "
                f"epochs in {args.store}; drop --epochs to serve it, or "
                f"use `ingest` + `advance-epoch` to keep feeding it"
            )
        stream = arrival_stream(
            engine.domain_size, args.rows_per_epoch, args.epochs, rng=args.seed
        )
        for batch_indexes in stream:
            engine.ingest(batch_indexes)
            engine.advance_epoch()
    batch = _resolve_batch(args, engine.domain_size)
    with obs.session():
        result = engine.submit(batch)
        if warm_started:
            print(
                f"warm start from {args.store}: serving epoch {engine.epoch} from "
                "the stored lineage — zero ε spent at startup"
            )
        _print_lineage(engine)
        _print_serving_stats(
            "stream",
            batch.name,
            via=f" from epoch {result.epoch} (ε={result.epsilon:g})",
            epsilon_line=(
                f"ε spent this process: {engine.spent_epsilon:g}; stream total "
                f"across epochs: {engine.lineage.spent_epsilon:g} "
                f"(schedule limit {_stream_schedule(args).infinite_total:g})"
            ),
        )
        _print_accuracy_summary(engine)
    _write_answers(batch, result.answers, args.out)
    return 0


# -- sharded commands ----------------------------------------------------------


def _sharded_engine(args: argparse.Namespace, counts: np.ndarray) -> ShardedHistogramEngine:
    total = args.total_epsilon if args.total_epsilon is not None else args.epsilon
    return ShardedHistogramEngine(
        counts,
        total_epsilon=total,
        branching=args.branching,
        num_shards=args.shards,
        shard_size=args.shard_size,
        workers=args.workers,
        store=ReleaseStore(args.store),
        slo=_resolve_slo(args),
    )


def _print_sharded_build(
    args: argparse.Namespace, engine: ShardedHistogramEngine, build_seconds: float
) -> None:
    if engine.materializations == 0:
        print(
            f"warm start from {args.store}: all {engine.num_shards} shard "
            f"artifacts loaded from disk in {build_seconds * 1e3:.1f} ms — "
            "zero builds, zero additional privacy cost"
        )
    else:
        print(
            f"cold start: built {engine.shard_builds} shard releases "
            f"({engine.num_shards} shards, {engine.workers} workers) in "
            f"{build_seconds:.2f} s and persisted them to {args.store}"
        )
    print(
        f"domain {engine.domain_size} buckets in {engine.num_shards} shards; "
        f"ε spent this process: {engine.spent_epsilon:g} (one charge covers "
        "every shard — parallel composition over the disjoint partition)"
    )


def _cmd_materialize_sharded(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    engine = _sharded_engine(args, counts)
    start = perf_counter()
    release = engine.materialize(args.estimator, epsilon=args.epsilon, seed=args.seed)
    build_seconds = perf_counter() - start
    _print_sharded_build(args, engine, build_seconds)
    print(
        f"sharded {release.estimator} release: ε={release.epsilon:g}, "
        f"branching={release.branching}, private total≈{release.total():g}, "
        f"fingerprint {release.dataset_fingerprint}"
    )
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    counts = _load_counts(args, task="universal")
    engine = _sharded_engine(args, counts)
    batch = _resolve_batch(args, engine.domain_size)
    with obs.session():
        result = engine.submit(
            batch, args.estimator, epsilon=args.epsilon, seed=args.seed
        )
        _print_sharded_build(args, engine, result.build_seconds)
        _print_serving_stats("sharded", batch.name, via=" through the shard router")
        _print_accuracy_summary(engine)
    _write_answers(batch, result.answers, args.out)
    return 0


# -- observability commands ----------------------------------------------------


def _obs_workload(args: argparse.Namespace) -> EngineFleet:
    """The mixed serving workload the observability commands instrument.

    One fleet exercises every tier: a static engine answers the same
    batch cold then warm, a sharded engine performs one materialization
    and routes a batch through the shard router, and a streaming tenant
    ingests arrivals and advances one epoch.  Every ε is a negative
    power of two, so float summation is exact and each ledger total in
    the export is bit-equal to the accountants' own running sums.
    """
    rng = as_generator(args.seed)
    static_counts = rng.poisson(3.0, size=512).astype(np.float64)
    sharded_counts = rng.poisson(3.0, size=512).astype(np.float64)
    stream_counts = rng.poisson(3.0, size=512).astype(np.float64)
    store = ReleaseStore(args.store) if args.store else None
    fleet = EngineFleet(store=store)
    # The static tenant carries an accuracy SLO so the workload also
    # exercises per-answer scoring and the repro_accuracy_* gauges.
    static = fleet.register(
        "static", static_counts, 0.5, slo=AccuracySLO(target_ci_halfwidth=60.0)
    )
    batch = QueryBatch.random(static.domain_size, args.random, rng=args.query_seed)
    fleet.submit("static", batch, "constrained", epsilon=0.25, seed=args.seed)
    fleet.submit("static", batch, "constrained", epsilon=0.25, seed=args.seed)
    fleet.register_sharded("sharded", sharded_counts, 0.5, num_shards=4)
    fleet.submit("sharded", batch, "constrained", epsilon=0.5, seed=args.seed)
    fleet.register_stream(
        "stream",
        stream_counts,
        1.0,
        schedule=GeometricEpsilonSchedule(0.25, decay=0.5),
        seed=args.seed,
    )
    arrivals = next(arrival_stream(static.domain_size, 200, batches=1, rng=args.seed))
    fleet.ingest("stream", arrivals)
    fleet.advance_epoch("stream")
    fleet.submit_stream("stream", batch)
    return fleet


def _checked_ledger(fleet: EngineFleet, stats) -> dict:
    """The fleet's ε-ledger report, cross-checked against ``FleetStats``.

    The exporter already audits each budget against its own history;
    this adds the outer identity — the exported fleet total must be
    bit-equal to the sum the serving rollup reports — so the CLI can
    never publish telemetry that disagrees with the accounting.
    """
    ledger = EpsilonLedgerExporter().fleet_report(fleet)
    if ledger["total_spent_epsilon"] != stats.spent_epsilon:
        raise ReproError(
            f"ε-ledger drift: exporter total {ledger['total_spent_epsilon']!r} "
            f"!= fleet accounting {stats.spent_epsilon!r}"
        )
    return ledger


def _cmd_stats(args: argparse.Namespace) -> int:
    with obs.session() as (registry, tracer):
        fleet = _obs_workload(args)
        stats = fleet.stats()  # publishes the per-tenant gauges
        ledger = _checked_ledger(fleet, stats)
        tenant_rows = [
            {
                "dataset": name,
                "kind": report["kind"],
                "requests": stats.per_dataset[name].requests,
                "queries": stats.per_dataset[name].queries,
                "cold_builds": stats.per_dataset[name].cold_builds,
                "p95_ms": round(
                    stats.per_dataset[name].p95_batch_seconds * 1e3, 3
                ),
                "slo_ok": (
                    f"{stats.accuracy[name].within_slo}"
                    f"/{stats.accuracy[name].answers}"
                    if name in stats.accuracy
                    else "-"
                ),
                "ci_halfwidth": (
                    round(stats.accuracy[name].mean_halfwidth, 2)
                    if name in stats.accuracy
                    else "-"
                ),
                "epsilon_spent": report["spent_epsilon"],
                "epsilon_budget": report["total_epsilon"],
            }
            for name, report in sorted(ledger["datasets"].items())
        ]
        print(render_table(tenant_rows, title="Observed mixed workload (per tenant)"))
        spans: dict[str, dict] = {}
        for event in tracer.events():
            entry = spans.setdefault(
                event.name, {"span": event.name, "count": 0, "total_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += event.duration * 1e3
        span_rows = [
            {**entry, "total_ms": round(entry["total_ms"], 3)}
            for _, entry in sorted(spans.items())
        ]
        print(render_table(span_rows, title="Span timings"))
        counter_rows = [
            {"counter": name, "labels": sample["labels"], "value": sample["value"]}
            for name, family in registry.snapshot()["counters"].items()
            for sample in family["samples"]
        ]
        print(render_table(counter_rows, title="Counters"))
        print(
            f"ε-ledger total: {ledger['total_spent_epsilon']:g} across "
            f"{stats.datasets} tenants ({stats.streams} streams, "
            f"{stats.epochs} epochs) — bit-equal to the fleet accounting"
        )
    return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    with obs.session() as (registry, tracer):
        fleet = _obs_workload(args)
        stats = fleet.stats()  # publishes the per-tenant gauges
        ledger = _checked_ledger(fleet, stats)
        if args.format == "json":
            text = (
                json.dumps(
                    {
                        "epsilon_ledger": ledger,
                        "metrics": registry.snapshot(),
                        "spans": [event.to_json() for event in tracer.events()],
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        else:
            text = registry.render_prometheus()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as error:
            raise ReproError(
                f"cannot write metrics to {args.out}: {error}"
            ) from error
        # the exposition itself is the stdout payload, so chatter goes
        # to stderr where it cannot corrupt a piped scrape
        print(f"wrote {args.format} metrics to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the linter is a dev-facing tool and must not tax
    # the serving commands' startup path.
    from repro.statan.driver import run as statan_run

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.select:
        argv += ["--select", args.select]
    if args.list_passes:
        argv.append("--list-passes")
    return statan_run(argv)


def _cmd_datasets(args: argparse.Namespace) -> int:
    registry = default_registry()
    rows = [
        {
            "name": entry.name,
            "scale": entry.scale,
            "has_universal_variant": entry.universal is not None,
            "description": entry.description,
        }
        for entry in registry.entries()
    ]
    print(render_table(rows, title="Built-in synthetic datasets"))
    return 0


def _add_common_arguments(parser: argparse.ArgumentParser, with_privacy: bool = True):
    """Add the shared source/seed/out options; returns the source group.

    The returned mutually-exclusive group lets command-specific code add
    further input sources (e.g. the sharded commands' ``--domain-bits``)
    that argparse then guards against ``--counts-file``/``--dataset`` —
    a silently ignored explicit input must be a loud usage error.
    """
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--counts-file",
        help="text file with one per-bucket count per line (the L(I) vector)",
    )
    source.add_argument(
        "--dataset",
        default="nettrace",
        choices=sorted(default_registry().names()),
        help="built-in synthetic dataset to use instead of a counts file",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "paper"],
        help="size of the built-in dataset",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", help="write the result as CSV to this path")
    if with_privacy:
        parser.add_argument(
            "--epsilon", type=float, default=0.1, help="privacy parameter ε"
        )
    return source


def _add_estimator_arguments(parser: argparse.ArgumentParser) -> None:
    """The release-strategy options shared by every materializing command."""
    parser.add_argument(
        "--estimator",
        default="constrained",
        choices=sorted(ESTIMATOR_NAMES),
        help="release strategy, alias or paper name (constrained = the paper's H_bar)",
    )
    parser.add_argument(
        "--branching", type=int, default=2, help="tree branching factor k"
    )


def _add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    """Store, stream identity, and ε-schedule options for streaming commands."""
    parser.add_argument(
        "--store", required=True,
        help="release store directory (epoch artifacts + lineage; created if missing)",
    )
    parser.add_argument(
        "--stream", default="stream", help="stream name (lineage file identity)"
    )
    parser.add_argument(
        "--epsilon0", type=float, default=0.4,
        help="ε of epoch 0; epoch i charges ε₀·decay^i",
    )
    parser.add_argument(
        "--decay", type=float, default=0.5,
        help="geometric ε decay per epoch, in (0, 1)",
    )
    parser.add_argument(
        "--total-epsilon", type=float, default=None,
        help="total budget this process may spend (defaults to ε₀/(1-decay), "
        "the schedule's infinite-horizon sum)",
    )
    _add_estimator_arguments(parser)


def _add_sharded_arguments(parser: argparse.ArgumentParser, source_group) -> None:
    """Partition, store, and worker options shared by the sharded commands.

    ``source_group`` is the input-source exclusion group from
    :func:`_add_common_arguments`; ``--domain-bits`` joins it so it can
    never silently override an explicitly passed counts file or dataset.
    """
    parser.add_argument(
        "--store", required=True,
        help="release store directory for per-shard artifacts (created if missing)",
    )
    source_group.add_argument(
        "--domain-bits", type=int, default=None, metavar="B",
        help="serve a synthetic Poisson histogram over 2^B buckets instead of "
        "--dataset/--counts-file (massive-domain demos without a data file)",
    )
    geometry = parser.add_mutually_exclusive_group()
    geometry.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="partition the domain into K near-equal shards",
    )
    geometry.add_argument(
        "--shard-size", type=int, default=None, metavar="W",
        help="partition into shards of width W (default 65536, the "
        "cache-resident sweet spot)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="threads for parallel shard builds (default: one per "
        "available core, affinity/cgroup aware)",
    )
    parser.add_argument(
        "--total-epsilon", type=float, default=None,
        help="engine's total budget (defaults to --epsilon)",
    )
    _add_estimator_arguments(parser)


def _add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """The accuracy-SLO options shared by every serving command."""
    parser.add_argument(
        "--slo-halfwidth", type=float, default=None, metavar="W",
        help="accuracy SLO: target CI halfwidth per answer; enables "
        "per-answer error bars and SLO accounting",
    )
    parser.add_argument(
        "--slo-confidence", type=float, default=0.95, metavar="C",
        help="confidence level of the SLO's intervals (default 0.95)",
    )


def _resolve_slo(args: argparse.Namespace) -> AccuracySLO | None:
    # getattr: shared engine factories also serve commands that do not
    # expose the SLO flags (e.g. advance-epoch, which answers nothing).
    halfwidth = getattr(args, "slo_halfwidth", None)
    if halfwidth is None:
        return None
    return AccuracySLO(
        target_ci_halfwidth=halfwidth,
        confidence=getattr(args, "slo_confidence", 0.95),
    )


def _print_accuracy_summary(engine) -> None:
    """One accuracy line per served batch, for SLO-configured engines."""
    if getattr(engine, "slo", None) is None:
        return
    snapshot = engine.accuracy.snapshot()
    print(
        f"accuracy: {snapshot.within_slo}/{snapshot.answers} answers within "
        f"the ±{engine.slo.target_ci_halfwidth:g} SLO at "
        f"{engine.slo.confidence:.0%} confidence (mean CI halfwidth "
        f"{snapshot.mean_halfwidth:g}, worst {snapshot.max_halfwidth:g})"
    )


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    """The query-selection group shared by every batch-answering command."""
    queries = parser.add_mutually_exclusive_group()
    queries.add_argument(
        "--queries-file", help="text file with one inclusive range 'lo hi' per line"
    )
    queries.add_argument(
        "--random", type=int, metavar="N", help="answer N random ranges (default 1000)"
    )
    queries.add_argument(
        "--prefixes", action="store_true", help="answer every prefix range [0, i]"
    )
    queries.add_argument(
        "--units", action="store_true", help="answer every unit count"
    )
    queries.add_argument(
        "--total", action="store_true", help="answer the whole-domain total"
    )
    parser.add_argument(
        "--query-seed", type=int, default=0, help="seed for --random query generation"
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Workload-shape options shared by the observability commands."""
    parser.add_argument(
        "--store",
        default=None,
        help="optional release store directory shared by the workload "
        "(a second run against it warm-starts every tenant)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--random", type=int, default=1000, metavar="N",
        help="random ranges per submitted batch",
    )
    parser.add_argument(
        "--query-seed", type=int, default=0, help="seed for query generation"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentially private histograms with constrained inference "
        "(Hay et al., PVLDB 2010).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    unattributed = subparsers.add_parser(
        "unattributed", help="release a private unattributed histogram (sorted counts)"
    )
    _add_common_arguments(unattributed)
    unattributed.set_defaults(handler=_cmd_unattributed)

    universal = subparsers.add_parser(
        "universal", help="release a private universal histogram (range queries)"
    )
    _add_common_arguments(universal)
    universal.add_argument("--branching", type=int, default=2, help="tree branching factor k")
    universal.set_defaults(handler=_cmd_universal)

    compare_unattributed = subparsers.add_parser(
        "compare-unattributed", help="compare S~, S~r, S_bar on a dataset (Figure 5 style)"
    )
    _add_common_arguments(compare_unattributed, with_privacy=False)
    compare_unattributed.add_argument(
        "--epsilons", type=float, nargs="+", default=[1.0, 0.1, 0.01]
    )
    compare_unattributed.add_argument("--trials", type=int, default=10)
    compare_unattributed.set_defaults(handler=_cmd_compare_unattributed)

    compare_universal = subparsers.add_parser(
        "compare-universal", help="compare L~, H~, H_bar on a dataset (Figure 6 style)"
    )
    _add_common_arguments(compare_universal, with_privacy=False)
    compare_universal.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.1]
    )
    compare_universal.add_argument("--trials", type=int, default=5)
    compare_universal.add_argument("--queries-per-size", type=int, default=50)
    compare_universal.add_argument("--branching", type=int, default=2)
    compare_universal.set_defaults(handler=_cmd_compare_universal)

    materialize = subparsers.add_parser(
        "materialize",
        help="pay ε once and persist a consistent private release as .npz",
    )
    _add_common_arguments(materialize)
    _add_estimator_arguments(materialize)
    materialize.add_argument(
        "--release", required=True, help="write the release artifact (.npz) to this path"
    )
    materialize.set_defaults(handler=_cmd_materialize)

    batch_query = subparsers.add_parser(
        "batch-query",
        help="answer range queries from a materialized release (no privacy cost)",
    )
    batch_query.add_argument(
        "--release", required=True, help="release artifact written by `materialize`"
    )
    _add_query_arguments(batch_query)
    batch_query.add_argument("--out", help="write lo,hi,estimate rows as CSV to this path")
    batch_query.set_defaults(handler=_cmd_batch_query)

    serve_store = subparsers.add_parser(
        "serve-store",
        help="serve queries over a durable release store (warm-starts after restart)",
    )
    _add_common_arguments(serve_store)
    serve_store.add_argument(
        "--store", required=True, help="release store directory (created if missing)"
    )
    _add_estimator_arguments(serve_store)
    serve_store.add_argument(
        "--total-epsilon",
        type=float,
        default=None,
        help="engine's total budget (defaults to --epsilon)",
    )
    _add_query_arguments(serve_store)
    _add_slo_arguments(serve_store)
    serve_store.set_defaults(handler=_cmd_serve_store)

    fleet = subparsers.add_parser(
        "fleet",
        help="serve several datasets behind one fleet façade with per-dataset budgets",
    )
    fleet.add_argument(
        "--datasets",
        nargs="+",
        required=True,
        choices=sorted(default_registry().names()),
        help="built-in datasets to register (each gets its own ε budget)",
    )
    fleet.add_argument(
        "--scale",
        default="small",
        choices=["small", "paper"],
        help="size of the built-in datasets",
    )
    fleet.add_argument("--seed", type=int, default=0, help="random seed")
    fleet.add_argument(
        "--epsilon", type=float, default=0.1, help="privacy parameter ε per release"
    )
    fleet.add_argument(
        "--total-epsilon",
        type=float,
        default=None,
        help="per-dataset total budget (defaults to --epsilon)",
    )
    _add_estimator_arguments(fleet)
    fleet.add_argument(
        "--store", help="shared release store directory (enables fleet warm starts)"
    )
    fleet.add_argument(
        "--random", type=int, default=1000, metavar="N",
        help="random ranges answered per dataset",
    )
    fleet.add_argument(
        "--query-seed", type=int, default=0, help="seed for query generation"
    )
    fleet.set_defaults(handler=_cmd_fleet)

    materialize_sharded = subparsers.add_parser(
        "materialize-sharded",
        help="build a sharded release over a massive domain (one ε, parallel "
        "per-shard builds, every shard persisted)",
    )
    source = _add_common_arguments(materialize_sharded)
    _add_sharded_arguments(materialize_sharded, source)
    materialize_sharded.set_defaults(handler=_cmd_materialize_sharded)

    serve_sharded = subparsers.add_parser(
        "serve-sharded",
        help="serve range queries over a sharded release through the shard "
        "router (warm-starts every shard from the store)",
    )
    source = _add_common_arguments(serve_sharded)
    _add_sharded_arguments(serve_sharded, source)
    _add_query_arguments(serve_sharded)
    _add_slo_arguments(serve_sharded)
    serve_sharded.set_defaults(handler=_cmd_serve_sharded)

    ingest = subparsers.add_parser(
        "ingest",
        help="append row arrivals to an owner-side stream directory",
    )
    _add_common_arguments(ingest, with_privacy=False)
    ingest.add_argument(
        "--stream-dir", required=True,
        help="owner-side stream state directory (created if missing)",
    )
    ingest_rows = ingest.add_mutually_exclusive_group()
    ingest_rows.add_argument(
        "--rows-file", help="text file with one arriving row's domain index per line"
    )
    ingest_rows.add_argument(
        "--rows", type=int, default=1000, metavar="N",
        help="generate N synthetic arrivals (hot-set traffic; default 1000)",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    advance = subparsers.add_parser(
        "advance-epoch",
        help="fold pending arrivals into the next epoch's private release",
    )
    _add_common_arguments(advance, with_privacy=False)
    advance.add_argument(
        "--stream-dir", required=True,
        help="owner-side stream state directory written by `ingest`",
    )
    _add_stream_arguments(advance)
    advance.set_defaults(handler=_cmd_advance_epoch)

    serve_stream = subparsers.add_parser(
        "serve-stream",
        help="serve queries from a stream's latest epoch (zero-ε warm restart)",
    )
    _add_common_arguments(serve_stream, with_privacy=False)
    _add_stream_arguments(serve_stream)
    serve_stream.add_argument(
        "--epochs", type=int, default=0, metavar="K",
        help="simulate K extra epochs of synthetic arrivals before serving",
    )
    serve_stream.add_argument(
        "--rows-per-epoch", type=int, default=1000, metavar="N",
        help="synthetic arrivals per simulated epoch",
    )
    _add_query_arguments(serve_stream)
    _add_slo_arguments(serve_stream)
    serve_stream.set_defaults(handler=_cmd_serve_stream)

    stats = subparsers.add_parser(
        "stats",
        help="run an instrumented mixed workload and print the per-tenant "
        "rollup, span timings, and ε-ledger",
    )
    _add_obs_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    export_metrics = subparsers.add_parser(
        "export-metrics",
        help="run an instrumented mixed workload and export its metrics and "
        "ε-ledger as Prometheus text or JSON",
    )
    _add_obs_arguments(export_metrics)
    export_metrics.add_argument(
        "--format",
        default="prometheus",
        choices=["prometheus", "json"],
        help="output format: Prometheus text exposition (default) or a JSON "
        "document with metrics, spans, and the full ε-ledger",
    )
    export_metrics.add_argument(
        "--out", help="write the exposition to this path instead of stdout"
    )
    export_metrics.set_defaults(handler=_cmd_export_metrics)

    datasets = subparsers.add_parser("datasets", help="list the built-in synthetic datasets")
    datasets.set_defaults(handler=_cmd_datasets)

    lint = subparsers.add_parser(
        "lint",
        help="run the repro.statan invariant linter over the source tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    lint.add_argument(
        "--baseline", help="baseline file of accepted findings"
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file, report every finding",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings into the baseline file",
    )
    lint.add_argument(
        "--select", help="comma-separated finding codes to run (e.g. EPS001,DET001)"
    )
    lint.add_argument(
        "--list-passes", action="store_true",
        help="list the registered passes and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    return parser


#: Exit codes for the failure classes scripts most often branch on.
#: 2 stays the generic :class:`~repro.exceptions.ReproError` code (and is
#: what argparse itself uses for bad usage); the specific codes let a
#: caller distinguish "budget spent" (back off) from "store damaged"
#: (operator attention) from "lineage conflict" (stale or forked state).
EXIT_BUDGET_EXHAUSTED = 3
EXIT_STORE_CORRUPTION = 4
EXIT_LINEAGE_CONFLICT = 5


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExhaustedError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except StoreCorruptionError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_STORE_CORRUPTION
    except LineageConflictError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_LINEAGE_CONFLICT
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
