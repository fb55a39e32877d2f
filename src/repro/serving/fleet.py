"""A multi-dataset serving fleet behind one façade.

One process rarely serves a single histogram.  :class:`EngineFleet` hosts
many :class:`~repro.serving.engine.HistogramEngine` instances — one per
registered ``(dataset, attribute)`` — and routes requests to them by
dataset name, while keeping the privacy story per-tenant:

* **per-dataset budgets** — every registered dataset gets its own
  :class:`~repro.privacy.budget.PrivacyBudget`; traffic against one
  dataset can never consume another's ε;
* **one shared cache** — all engines resolve releases through a single
  :class:`~repro.serving.cache.ReleaseCache` (optionally backed by a
  durable :class:`~repro.serving.store.ReleaseStore`).  Cache keys embed
  the dataset fingerprint, so sharing is safe: a release is only ever
  served for the exact counts it was computed from, and two names
  registered over identical counts legitimately share artifacts;
* **aggregated telemetry** — :meth:`EngineFleet.stats` folds every
  engine's :class:`~repro.serving.stats.ServingStats` into one
  fleet-level snapshot plus per-dataset detail.

Quickstart::

    fleet = EngineFleet(store=ReleaseStore("/var/lib/repro-releases"))
    fleet.register("nettrace", nettrace_counts, total_epsilon=1.0)
    fleet.register("searchlogs", searchlogs_counts, total_epsilon=0.5)
    result = fleet.submit("nettrace", batch, "constrained", epsilon=0.1, seed=7)
    fleet.stats().queries_per_second
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from repro import obs
from repro.accuracy.slo import (
    AccuracySLO,
    AccuracySnapshot,
    combine_accuracy_snapshots,
)
from repro.exceptions import ReproError
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.engine import HistogramEngine
from repro.serving.planner import BatchResult, QueryBatch
from repro.serving.release import MaterializedRelease
from repro.serving.stats import StatsSnapshot, combine_snapshots
from repro.serving.store import ReleaseStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.faults.degrade import BreakerSnapshot
    from repro.sharding.engine import ShardedHistogramEngine
    from repro.sharding.lineage import ShardEpochRecord
    from repro.sharding.streaming import ShardedStreamingEngine
    from repro.streaming.engine import (
        EpochStreamEngine,
        StreamBatchResult,
        StreamingHistogramEngine,
    )
    from repro.streaming.lineage import EpochRecord

__all__ = ["FleetStats", "EngineFleet"]


@dataclass(frozen=True)
class FleetStats:
    """Aggregated serving telemetry for a whole fleet.

    ``spent_epsilon`` is the sum of per-dataset budgets' spending (static
    engines and streams alike) — pure telemetry; the enforced guarantee
    remains per-dataset, where each engine's budget lives.  Streaming
    tenants additionally surface their epoch lineage: ``epochs`` counts
    epochs built fleet-wide, and ``stream_lineages`` maps each stream to
    its full :class:`~repro.streaming.lineage.EpochRecord` history.

    Health: ``stream_health`` maps each stream to its circuit breaker's
    :class:`~repro.faults.degrade.BreakerSnapshot`, and
    ``degraded_streams`` counts the tenants currently serving stale
    answers (breaker open) — the fleet-level view of graceful
    degradation, with each snapshot's ``last_error`` naming the cause.
    """

    datasets: int
    total: StatsSnapshot
    per_dataset: Mapping[str, StatsSnapshot]
    materializations: int
    spent_epsilon: float
    #: number of streaming tenants registered
    streams: int = 0
    #: epochs built across every stream (lineage lengths, not this-process builds)
    epochs: int = 0
    #: per-stream epoch history, oldest epoch first
    stream_lineages: Mapping[str, tuple["EpochRecord", ...]] = field(
        default_factory=dict
    )
    #: streaming tenants whose circuit breaker is currently open
    degraded_streams: int = 0
    #: per-stream circuit-breaker snapshots (state, trips, last error)
    stream_health: Mapping[str, "BreakerSnapshot"] = field(default_factory=dict)
    #: per-tenant accuracy rollups (answers scored against an SLO or an
    #: explicit ``with_accuracy=True``); empty when nothing was scored
    accuracy: Mapping[str, AccuracySnapshot] = field(default_factory=dict)
    #: fleet-wide fold of every tenant's accuracy snapshot
    accuracy_total: AccuracySnapshot = field(default_factory=AccuracySnapshot)

    @property
    def requests(self) -> int:
        return self.total.requests

    @property
    def queries(self) -> int:
        return self.total.queries

    @property
    def queries_per_second(self) -> float:
        """Fleet-wide steady-state serving throughput."""
        return self.total.queries_per_second


class EngineFleet:
    """Registry and router for many single-dataset serving engines.

    Parameters
    ----------
    cache:
        A pre-built :class:`ReleaseCache` every engine shares; one is
        created otherwise.
    cache_capacity:
        Capacity of the created cache when ``cache`` is not supplied.
    store:
        Optional durable :class:`ReleaseStore` attached to the created
        cache, so the whole fleet warm-starts from persisted artifacts.
        When supplying ``cache``, attach the store there instead.
    """

    def __init__(
        self,
        *,
        cache: ReleaseCache | None = None,
        cache_capacity: int = 128,
        store: ReleaseStore | None = None,
    ) -> None:
        if cache is not None and store is not None:
            raise ReproError(
                "pass either a shared cache or a store, not both; attach the "
                "store to the shared ReleaseCache instead"
            )
        self.cache = cache if cache is not None else ReleaseCache(cache_capacity, store=store)
        self._engines: dict[str, HistogramEngine] = {}
        self._streams: dict[str, "EpochStreamEngine"] = {}
        #: names mid-registration: reserved before the (side-effecting)
        #: engine construction so a duplicate race fails before it can
        #: build anything — for streams that build epoch 0 and write a
        #: lineage file, a lost race would otherwise corrupt shared state.
        self._reserved: set[str] = set()
        self._lock = threading.Lock()

    # -- registry --------------------------------------------------------------

    def register(
        self,
        name: str,
        data,
        total_epsilon: float,
        *,
        attribute: str | None = None,
        delta: float = 0.0,
        branching: int = 2,
        slo: AccuracySLO | None = None,
    ) -> HistogramEngine:
        """Create and host an engine for ``name`` with its own ε budget.

        ``data``/``attribute``/``total_epsilon`` have the
        :class:`HistogramEngine` semantics; ``slo`` opts the tenant into
        per-answer accuracy scoring against its target.  Registering an
        existing name raises — budgets are load-bearing state that must
        not be silently replaced.
        """
        return self._host(
            name,
            self._engines,
            lambda: HistogramEngine(
                data,
                total_epsilon,
                attribute=attribute,
                delta=delta,
                branching=branching,
                cache=self.cache,
                slo=slo,
            ),
        )

    def _host(self, name: str, tenants: dict, build):
        """Register the tenant ``build()`` constructs under ``name``.

        The name is claimed atomically *before* the side-effecting
        construction — checked against live engines, live streams, and
        in-flight registrations — so two racing register calls cannot
        both start building (and, for streams, both charge ε / write the
        lineage).  The tenant is published into ``tenants`` only once
        ``build()`` succeeds.
        """
        if not name:
            raise ReproError("a dataset name is required to register a tenant")
        with self._lock:
            if (
                name in self._engines
                or name in self._streams
                or name in self._reserved
            ):
                raise ReproError(
                    f"dataset {name!r} is already registered; unregister it first"
                )
            self._reserved.add(name)
        try:
            tenant = build()
            with self._lock:
                tenants[name] = tenant
        finally:
            with self._lock:
                self._reserved.discard(name)
        return tenant

    def register_sharded(
        self,
        name: str,
        data,
        total_epsilon: float,
        *,
        attribute: str | None = None,
        delta: float = 0.0,
        branching: int = 2,
        num_shards: int | None = None,
        shard_size: int | None = None,
        workers: int | None = None,
        slo: AccuracySLO | None = None,
    ) -> "ShardedHistogramEngine":
        """Host a sharded massive-domain engine under ``name``.

        The sharded engine duck-types the monolithic one for every fleet
        path — :meth:`submit`, :meth:`materialize`, and :meth:`stats` all
        route to it unchanged — while each of its shards persists through
        the fleet's shared cache/store as a normal versioned artifact.
        It keeps its own ε budget, charged once per sharded release
        (parallel composition across the disjoint shards).
        """
        from repro.sharding.engine import ShardedHistogramEngine

        return self._host(
            name,
            self._engines,
            lambda: ShardedHistogramEngine(
                data,
                total_epsilon,
                attribute=attribute,
                delta=delta,
                branching=branching,
                num_shards=num_shards,
                shard_size=shard_size,
                workers=workers,
                cache=self.cache,
                slo=slo,
            ),
        )

    def register_stream(
        self,
        name: str,
        data,
        total_epsilon: float,
        *,
        schedule,
        policy=None,
        attribute: str | None = None,
        estimator: str = "constrained",
        branching: int = 2,
        seed: int = 0,
        delta: float = 0.0,
        build_first_epoch: bool = True,
        slo: AccuracySLO | None = None,
    ) -> "StreamingHistogramEngine":
        """Host a continuously refreshed streaming tenant under ``name``.

        The stream shares the fleet's cache (and any store attached to it,
        which also makes its epoch lineage durable) while keeping its own
        ε budget and schedule — streaming and static tenants compose in
        one fleet without sharing privacy state.
        """
        from repro.streaming.engine import StreamingHistogramEngine

        return self._host(
            name,
            self._streams,
            lambda: StreamingHistogramEngine(
                data,
                total_epsilon,
                schedule,
                attribute=attribute,
                policy=policy,
                estimator=estimator,
                branching=branching,
                seed=seed,
                delta=delta,
                cache=self.cache,
                name=name,
                build_first_epoch=build_first_epoch,
                slo=slo,
            ),
        )

    def register_sharded_stream(
        self,
        name: str,
        data,
        total_epsilon: float,
        *,
        schedule,
        refresh_rows: int = 1,
        num_shards: int | None = None,
        shard_size: int | None = None,
        attribute: str | None = None,
        estimator: str = "constrained",
        branching: int = 2,
        seed: int = 0,
        delta: float = 0.0,
        workers: int | None = None,
        build_first_epoch: bool = True,
        slo: AccuracySLO | None = None,
    ) -> "ShardedStreamingEngine":
        """Host a partial-refresh sharded streaming tenant under ``name``.

        Epochs re-release only the shards whose ingest deltas meet the
        per-shard ``refresh_rows`` threshold; the stream shares the
        fleet's cache/store (which also makes its sharded lineage
        durable) while keeping its own ε budget and schedule.
        """
        from repro.sharding.streaming import ShardedStreamingEngine

        return self._host(
            name,
            self._streams,
            lambda: ShardedStreamingEngine(
                data,
                total_epsilon,
                schedule,
                attribute=attribute,
                refresh_rows=refresh_rows,
                num_shards=num_shards,
                shard_size=shard_size,
                estimator=estimator,
                branching=branching,
                seed=seed,
                delta=delta,
                workers=workers,
                cache=self.cache,
                name=name,
                build_first_epoch=build_first_epoch,
                slo=slo,
            ),
        )

    def unregister(self, name: str) -> None:
        """Drop the engine or stream for ``name`` (cached artifacts remain)."""
        with self._lock:
            if self._engines.pop(name, None) is not None:
                return
            stream = self._streams.pop(name, None)
        if stream is None:
            raise ReproError(f"unknown dataset {name!r}")
        stream.close()

    def engine(self, name: str) -> HistogramEngine:
        """The engine serving ``name``; raises for unknown datasets."""
        with self._lock:
            engine = self._engines.get(name)
        if engine is None:
            raise ReproError(
                f"unknown dataset {name!r}; registered: {sorted(self.names()) or 'none'}"
            )
        return engine

    def stream(self, name: str) -> "EpochStreamEngine":
        """The streaming tenant named ``name``; raises for unknown streams."""
        with self._lock:
            stream = self._streams.get(name)
        if stream is None:
            raise ReproError(
                f"unknown stream {name!r}; registered streams: "
                f"{sorted(self.stream_names()) or 'none'}"
            )
        return stream

    def names(self) -> list[str]:
        """Registered dataset names (static engines and streams), sorted."""
        with self._lock:
            return sorted([*self._engines, *self._streams])

    def stream_names(self) -> list[str]:
        """Registered streaming-tenant names, sorted."""
        with self._lock:
            return sorted(self._streams)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._engines or name in self._streams

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines) + len(self._streams)

    # -- routing ---------------------------------------------------------------

    def materialize(
        self,
        dataset: str,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> MaterializedRelease:
        """Materialize a release for ``dataset`` (routing by name)."""
        return self.engine(dataset).materialize(
            estimator, epsilon=epsilon, branching=branching, seed=seed
        )

    def submit(
        self,
        dataset: str,
        batch: QueryBatch | RangeWorkload,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> BatchResult:
        """Answer a batch against ``dataset``'s engine (routing by name)."""
        return self.engine(dataset).submit(
            batch, estimator, epsilon=epsilon, branching=branching, seed=seed
        )

    def ingest(self, stream: str, indexes) -> int:
        """Ingest rows into the stream named ``stream`` (routing by name)."""
        return self.stream(stream).ingest(indexes)

    def advance_epoch(
        self, stream: str
    ) -> "EpochRecord | ShardEpochRecord | None":
        """Advance the named stream one epoch; ``None`` if it had nothing to fold."""
        return self.stream(stream).advance_epoch()

    def submit_stream(self, stream: str, batch) -> "StreamBatchResult":
        """Answer a batch from the named stream's latest epoch."""
        return self.stream(stream).submit(batch)

    # -- telemetry -------------------------------------------------------------

    def stats(self) -> FleetStats:
        """Aggregate serving stats across every registered engine and stream.

        The rollup is a pure fold over immutable per-tenant snapshots
        (:func:`~repro.serving.stats.combine_snapshots` — no shared
        accumulator, no extra lock).  When observability is enabled the
        same per-tenant figures are published as gauges on the default
        registry, so the exported metrics and this snapshot can never
        disagree.
        """
        with self._lock:
            engines = dict(self._engines)
            streams = dict(self._streams)
        per_dataset = {name: engine.stats.snapshot() for name, engine in engines.items()}
        per_dataset.update(
            {name: stream.stats.snapshot() for name, stream in streams.items()}
        )
        lineages = {
            name: tuple(stream.lineage.records) for name, stream in streams.items()
        }
        health = {
            name: stream.breaker.snapshot()
            for name, stream in streams.items()
            if getattr(stream, "breaker", None) is not None
        }
        accuracy = {
            name: tenant.accuracy.snapshot()
            for name, tenant in {**engines, **streams}.items()
            if getattr(tenant, "accuracy", None) is not None
        }
        # Only tenants that actually scored answers appear in the rollup.
        accuracy = {
            name: snapshot
            for name, snapshot in accuracy.items()
            if snapshot.answers
        }
        stats = FleetStats(
            datasets=len(engines) + len(streams),
            total=combine_snapshots(per_dataset.values()),
            per_dataset=MappingProxyType(per_dataset),
            materializations=sum(e.materializations for e in engines.values())
            + sum(s.materializations for s in streams.values()),
            spent_epsilon=sum(e.spent_epsilon for e in engines.values())
            + sum(s.spent_epsilon for s in streams.values()),
            streams=len(streams),
            epochs=sum(len(records) for records in lineages.values()),
            stream_lineages=MappingProxyType(lineages),
            degraded_streams=sum(
                1 for snapshot in health.values() if snapshot.degraded
            ),
            stream_health=MappingProxyType(health),
            accuracy=MappingProxyType(accuracy),
            accuracy_total=combine_accuracy_snapshots(accuracy.values()),
        )
        if obs.enabled():
            self._publish_tenant_gauges(engines, streams, per_dataset, stats)
        return stats

    @staticmethod
    def _publish_tenant_gauges(engines, streams, per_dataset, stats) -> None:
        """Mirror the per-tenant rollup onto the default metrics registry.

        Caller-gated: :meth:`stats` checks ``obs.enabled()`` before
        calling in, so the disabled path never reaches the registry.
        """
        registry = obs.registry()  # statan: ignore[OBS001] caller-gated (see stats())
        requests = registry.gauge(
            "repro_tenant_requests", "Batches answered per tenant"
        )
        queries = registry.gauge(
            "repro_tenant_queries", "Queries answered per tenant"
        )
        cold = registry.gauge(
            "repro_tenant_cold_builds", "Cold-built batches per tenant"
        )
        spent = registry.gauge(
            "repro_tenant_spent_epsilon", "ε spent per tenant (this process)"
        )
        accountants = {**engines, **streams}
        for name, snapshot in per_dataset.items():
            requests.set(snapshot.requests, dataset=name)
            queries.set(snapshot.queries, dataset=name)
            cold.set(snapshot.cold_builds, dataset=name)
            spent.set(accountants[name].spent_epsilon, dataset=name)
        registry.gauge(
            "repro_fleet_datasets", "Tenants registered in the fleet"
        ).set(stats.datasets)
        registry.gauge(
            "repro_fleet_streams", "Streaming tenants registered"
        ).set(stats.streams)
        registry.gauge(
            "repro_fleet_epochs", "Epochs recorded across every stream lineage"
        ).set(stats.epochs)
        registry.gauge(
            "repro_fleet_spent_epsilon", "ε spent fleet-wide (this process)"
        ).set(stats.spent_epsilon)
        degraded = registry.gauge(
            "repro_stream_degraded",
            "1 while the stream's circuit breaker is open (stale-serve mode)",
        )
        for name, snapshot in stats.stream_health.items():
            degraded.set(1.0 if snapshot.degraded else 0.0, stream=name)
        satisfaction = registry.gauge(
            "repro_accuracy_slo_satisfaction",
            "Fraction of scored answers meeting the tenant's accuracy SLO",
        )
        halfwidth = registry.gauge(
            "repro_accuracy_mean_ci_halfwidth",
            "Mean CI halfwidth of scored answers per tenant",
        )
        for name, snapshot in stats.accuracy.items():
            satisfaction.set(snapshot.satisfaction, dataset=name)
            halfwidth.set(snapshot.mean_halfwidth, dataset=name)
        registry.gauge(
            "repro_fleet_accuracy_answers",
            "Answers scored against an accuracy model fleet-wide",
        ).set(stats.accuracy_total.answers)
        registry.gauge(
            "repro_fleet_degraded_streams",
            "Streaming tenants currently serving stale answers",
        ).set(stats.degraded_streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineFleet(datasets={self.names()})"
