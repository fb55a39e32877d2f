"""Every call the benchmark makes into ``repro``, in one place.

The workloads drive the public ``EngineFleet`` API through the thin
functions below and never import ``repro`` themselves, so an API change
edits this file only.  Only the default configuration is used: no
``workers`` and no ``worker_mode`` are passed, so sharded builds run on
whatever pool the program picks by default.

``TRACE_TARGETS`` names the functions the traced run wraps.  They are
found here by name; ``spans.install`` rebinds every module attribute
that holds the same function object, so a function imported by name
into several modules is traced wherever it is called from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.accuracy.models
import repro.accuracy.schedule
import repro.inference.hierarchical
import repro.privacy.laplace
import repro.queries.base
import repro.serving.engine
import repro.serving.fleet
import repro.serving.planner
import repro.serving.release
import repro.serving.store
import repro.sharding.engine
import repro.sharding.lineage
import repro.sharding.pool
import repro.sharding.release
import repro.sharding.router
import repro.sharding.streaming
import repro.streaming.buffer
import repro.streaming.engine
import repro.streaming.lineage
import repro.utils.io_atomic
from repro.accuracy.schedule import AdaptiveEpsilonAllocator
from repro.accuracy.slo import AccuracySLO
from repro.data.synthetic import arrival_stream
from repro.exceptions import ReproError
from repro.obs.ledger import EpsilonLedgerExporter
from repro.serving import EngineFleet, QueryBatch, ReleaseStore
from repro.sharding import shutdown_worker_pools
from repro.streaming.policy import GeometricEpsilonSchedule

#: Every release is the paper's consistent estimator H̄.
ESTIMATOR = "constrained"


def batch(los: np.ndarray, his: np.ndarray) -> QueryBatch:
    """A validated range batch; built with the inputs, outside timing."""
    return QueryBatch(los, his)


def arrivals(domain_size, rows, batches, seed) -> list[np.ndarray]:
    """Hot-set-drift arrival batches (5% hot set, 80% of rows, 1% drift)."""
    return list(
        arrival_stream(
            domain_size, rows, batches,
            hot_fraction=0.05, hot_weight=0.8, drift=0.01, rng=seed,
        )
    )


def new_fleet(store_dir) -> EngineFleet:
    return EngineFleet(store=ReleaseStore(store_dir))


def stop_pools() -> None:
    """Stop and join every worker process the program started."""
    shutdown_worker_pools()


# -- static tenants ------------------------------------------------------------


def register_sharded(fleet, name, counts, total_epsilon, num_shards, slo=None):
    fleet.register_sharded(
        name, counts, total_epsilon, num_shards=num_shards,
        slo=None if slo is None else AccuracySLO(slo),
    )


def register_mono(fleet, name, counts, total_epsilon, slo=None):
    fleet.register(
        name, counts, total_epsilon,
        slo=None if slo is None else AccuracySLO(slo),
    )


@dataclass(frozen=True)
class Answer:
    answers: np.ndarray
    ci_los: np.ndarray | None


def submit(fleet, name, query_batch, epsilon, seed) -> Answer:
    result = fleet.submit(name, query_batch, ESTIMATOR, epsilon=epsilon, seed=seed)
    return Answer(result.answers, result.ci_los)


def submit_unscored(fleet, name, query_batch, epsilon, seed) -> np.ndarray:
    """Answers from a tenant's engine with accuracy scoring switched off."""
    return fleet.engine(name).submit(
        query_batch, ESTIMATOR, epsilon=epsilon, seed=seed, with_accuracy=False
    ).answers


def release_prefix(fleet, name, epsilon, seed) -> np.ndarray:
    """Prefix sums of a tenant's released leaves, for answer checks.

    Computed exactly as a release indexes itself (a leading 0 then the
    cumulative sum), so ``prefix[hi + 1] - prefix[lo]`` is bit-identical
    to a correct answer.
    """
    release = fleet.materialize(name, ESTIMATOR, epsilon=epsilon, seed=seed)
    return np.concatenate(([0.0], np.cumsum(release.unit_counts())))


def sharded_reference(fleet, name, epsilon, seed):
    """``ShardedRelease.range_sums`` of a sharded tenant's release."""
    release = fleet.materialize(name, ESTIMATOR, epsilon=epsilon, seed=seed)
    return release.range_sums


def spent_epsilon(fleet, name) -> float:
    if name in fleet.stream_names():
        return fleet.stream(name).spent_epsilon
    return fleet.engine(name).spent_epsilon


def cache_counts(fleet) -> tuple[int, int]:
    """(hits, lookups) of the fleet's shared release cache."""
    stats = fleet.cache.stats
    return stats.hits, stats.hits + stats.misses


def build_workers(fleet, name) -> int:
    """Pool width the program chose for a sharded tenant's builds."""
    tenant = fleet.stream(name) if name in fleet.stream_names() else fleet.engine(name)
    return tenant.workers


# -- streams -------------------------------------------------------------------


def geometric_schedule(first_epsilon, decay):
    return GeometricEpsilonSchedule(first_epsilon, decay)


def register_sharded_stream(fleet, name, counts, schedule, num_shards, seed):
    fleet.register_sharded_stream(
        name, counts, schedule.infinite_total,
        schedule=AdaptiveEpsilonAllocator(schedule), num_shards=num_shards,
        estimator=ESTIMATOR, seed=seed,
    )


def register_stream(fleet, name, counts, schedule, seed):
    fleet.register_stream(
        name, counts, schedule.infinite_total,
        schedule=schedule, estimator=ESTIMATOR, seed=seed,
    )


def ingest(fleet, name, rows) -> int:
    return fleet.ingest(name, rows)


@dataclass(frozen=True)
class Epoch:
    epoch: int
    epsilon: float
    #: shards folded this epoch; ``None`` for a monolithic stream
    refreshed: tuple[int, ...] | None
    rows_ingested: int
    total_rows: float


def advance_epoch(fleet, name) -> Epoch | None:
    """One epoch; ``None`` when the stream found nothing to refresh."""
    record = fleet.advance_epoch(name)
    if record is None:
        return None
    return Epoch(
        record.epoch, record.epsilon, getattr(record, "refreshed", None),
        record.rows_ingested, record.total_rows,
    )


def submit_stream(fleet, name, query_batch) -> Answer:
    result = fleet.submit_stream(name, query_batch)
    return Answer(result.answers, result.ci_los)


def stream_epsilon_checks(fleet, name, schedule, last_epoch) -> list[str]:
    """Σε checks on one stream; returns the checks that failed.

    Budget Σε equals the schedule's ``total_through(last_epoch)`` and the
    lineage's Σε bit-exactly, and the ε-ledger exporter audits clean.
    """
    stream = fleet.stream(name)
    failures = []
    expected = schedule.total_through(last_epoch)
    if stream.budget.spent_epsilon != expected:
        failures.append(
            f"{name}: budget Σε {stream.budget.spent_epsilon!r} != "
            f"schedule total {expected!r}"
        )
    if stream.lineage.spent_epsilon != stream.budget.spent_epsilon:
        failures.append(
            f"{name}: lineage Σε {stream.lineage.spent_epsilon!r} != "
            f"budget Σε {stream.budget.spent_epsilon!r}"
        )
    try:
        EpsilonLedgerExporter().stream_report(stream)
    except ReproError as error:  # the exporter refuses a drifted ledger
        failures.append(f"{name}: ledger audit failed: {error}")
    return failures


# -- traced functions ----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One traced function: span name, owner, attribute, where it must run.

    ``expected`` names the workloads whose traced run fails when the span
    records no call; ``"pool"`` marks spans that run only when sharded
    builds use more than one worker.
    """

    name: str
    owner: object
    attribute: str
    expected: frozenset[str]


ALL = frozenset({"serve", "refresh", "scored"})
REFRESH = frozenset({"refresh"})
SCORED = frozenset({"scored"})
STATIC = frozenset({"serve", "scored"})

TRACE_TARGETS = (
    Target("serving.fleet.submit", repro.serving.fleet.EngineFleet, "submit", STATIC),
    Target("serving.fleet.submit_stream", repro.serving.fleet.EngineFleet, "submit_stream", REFRESH),
    Target("sharding.router.answer", repro.sharding.router.ShardRouter, "answer", ALL),
    Target("serving.planner.answer", repro.serving.planner.BatchQueryPlanner, "answer", ALL),
    Target("serving.engine.score_batch_accuracy", repro.serving.engine, "score_batch_accuracy", SCORED),
    Target("accuracy.models.ConstrainedTree.range_variances",
           repro.accuracy.models.ConstrainedTreeUncertaintyModel, "range_variances", SCORED),
    Target("accuracy.models.Composite.range_variances",
           repro.accuracy.models.CompositeUncertaintyModel, "range_variances", SCORED),
    Target("serving.engine.compute_release_leaves", repro.serving.engine, "compute_release_leaves", ALL),
    Target("privacy.laplace.randomize", repro.privacy.laplace.LaplaceMechanism, "randomize", ALL),
    Target("queries.base.randomize", repro.queries.base.QuerySequence, "randomize", ALL),
    Target("inference.hierarchical.infer", repro.inference.hierarchical.HierarchicalInference, "infer", ALL),
    Target("inference.hierarchical.zero_nonpositive_subtrees",
           repro.inference.hierarchical.HierarchicalInference, "zero_nonpositive_subtrees", ALL),
    Target("sharding.engine.build_shard_releases", repro.sharding.engine, "build_shard_releases", ALL),
    Target("sharding.pool.run_shard_builds", repro.sharding.pool, "run_shard_builds",
           frozenset({"pool"})),
    Target("serving.release.MaterializedRelease", repro.serving.release.MaterializedRelease, "__init__", ALL),
    Target("sharding.release.ShardedRelease", repro.sharding.release.ShardedRelease, "__init__", ALL),
    Target("serving.release.fingerprint_counts", repro.serving.release, "fingerprint_counts", ALL),
    Target("serving.store.put", repro.serving.store.ReleaseStore, "put", ALL),
    Target("serving.store.get", repro.serving.store.ReleaseStore, "get", ALL),
    Target("utils.io_atomic.atomic_write_bytes", repro.utils.io_atomic, "atomic_write_bytes", ALL),
    Target("sharding.streaming.advance_epoch",
           repro.sharding.streaming.ShardedStreamingEngine, "advance_epoch", REFRESH),
    Target("streaming.engine.advance_epoch",
           repro.streaming.engine.StreamingHistogramEngine, "advance_epoch", REFRESH),
    Target("sharding.lineage.append", repro.sharding.lineage.ShardedLineage, "append", REFRESH),
    Target("streaming.lineage.append", repro.streaming.lineage.EpochLineage, "append", REFRESH),
    Target("streaming.buffer.add", repro.streaming.buffer.IngestBuffer, "add", REFRESH),
    Target("streaming.buffer.drain", repro.streaming.buffer.IngestBuffer, "drain", REFRESH),
    Target("accuracy.schedule.allocate", repro.accuracy.schedule.AdaptiveEpsilonAllocator, "allocate", REFRESH),
)
