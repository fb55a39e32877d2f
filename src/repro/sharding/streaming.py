"""Per-shard epoch refresh: only touched shards pay for freshness.

:class:`ShardedStreamingEngine` is the sharded sibling of
:class:`~repro.streaming.engine.StreamingHistogramEngine`.  Live traffic
over a massive domain is rarely uniform — a hot set of buckets churns
while most of the domain sleeps — so re-releasing the *whole* domain
every epoch wastes both wall-clock and accuracy.  The sharded loop
refreshes selectively:

* rows arrive through :meth:`ingest` into one domain-wide
  :class:`~repro.streaming.buffer.IngestBuffer`;
* :meth:`advance_epoch` drains the buffer, splits the delta by shard,
  and re-releases **only the shards whose pending rows meet the
  per-shard refresh threshold**; sub-threshold deltas are restored to
  the buffer and ride into a later epoch, losing nothing;
* the epoch charges the schedule's εᵢ **once** for the whole refresh
  set: refreshed shards hold disjoint data, so the epoch is εᵢ-DP by
  parallel composition, and epochs compose sequentially to Σ εᵢ —
  enforced across restarts by the
  :class:`~repro.sharding.lineage.ShardedLineage` ledger exactly like
  the monolithic stream;
* untouched shards keep serving their existing releases (their data did
  not change), and the epoch publishes by rebuilding one immutable
  :class:`~repro.sharding.release.ShardedRelease` and swapping it in
  atomically — readers never observe a torn epoch;
* every refreshed shard persists as a normal store artifact and the
  lineage records the refresh set plus the complete per-shard key set,
  so a restarted engine re-assembles and serves the latest epoch with
  **zero** additional ε.

Seeds: the shard refreshed in epoch ``i`` at position ``s`` draws with
:func:`~repro.sharding.engine.derive_shard_seed(base_seed, i, s)
<repro.sharding.engine.derive_shard_seed>` — pairwise distinct across
every (epoch, shard) pair and collision-resistant across streams with
different base seeds, which keeps all noise draws independent (the
precondition of both composition arguments).
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro import faults, obs
from repro.accuracy.models import UncertaintyModel, composite_uncertainty_model
from repro.accuracy.slo import AccuracySLO, AccuracyStats
from repro.db.histogram import HistogramBuilder
from repro.db.relation import Relation
from repro.exceptions import (
    BudgetExhaustedError,
    LineageConflictError,
    PrivacyBudgetError,
    ReproError,
)
from repro.faults.degrade import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.engine import (
    canonical_estimator_name,
    record_submit_metrics,
    score_batch_accuracy,
)
from repro.serving.planner import QueryBatch
from repro.serving.release import MaterializedRelease, ReleaseKey, fingerprint_counts
from repro.serving.stats import ServingStats
from repro.serving.store import ReleaseStore, stream_ledger_path
from repro.sharding.engine import (
    build_shard_releases,
    derive_shard_seed,
    resolve_shard_cache,
    resolve_workers,
)
from repro.sharding.lineage import ShardedLineage, ShardEpochRecord
from repro.sharding.plan import ShardPlan, resolve_plan
from repro.sharding.release import ShardedRelease
from repro.sharding.router import ShardRouter
from repro.streaming.buffer import IngestBuffer
from repro.streaming.engine import StreamBatchResult
from repro.streaming.policy import EpsilonSchedule
from repro.utils.arrays import as_float_vector

__all__ = ["ShardedStreamingEngine"]


class ShardedStreamingEngine:
    """Epoch-refreshed sharded private-histogram server over live data.

    Parameters
    ----------
    data:
        The *current* database: a :class:`Relation` (with ``attribute``)
        or a raw unit-count vector over the full domain.
    total_epsilon:
        Lifetime budget every epoch composes against (checked against
        the lineage ledger across restarts, like the monolithic stream).
    schedule:
        Per-epoch ε schedule; epoch ``i`` charges ``schedule.epsilon_for(i)``
        regardless of how many shards it refreshes.
    refresh_rows:
        Per-shard refresh threshold: a shard is re-released in an epoch
        iff at least this many pending rows landed in it (default 1 —
        any touched shard refreshes; untouched shards never rebuild).
    num_shards / shard_size / plan:
        Partition geometry, as for
        :class:`~repro.sharding.engine.ShardedHistogramEngine`.
    estimator / branching / seed / workers / store / cache / name /
    build_first_epoch:
        As for the monolithic streaming engine / sharded serving engine.
        Epoch 0 (when built) refreshes every shard; epoch releases are
        bit-identical at every worker count.
    retry / breaker:
        As for the monolithic streaming engine: the retry policy wraps
        per-shard builds and lineage persists (never an ε charge), and
        the circuit breaker flags batches ``degraded=True`` while epoch
        builds are failing, healing on the first success.
    slo:
        Optional :class:`~repro.accuracy.slo.AccuracySLO`.  When set,
        every answered batch is scored against the current epoch's
        composite uncertainty model (per-answer variance and CI) and
        folded into :attr:`accuracy`.

    Adaptive schedules
    ------------------
    When ``schedule`` exposes ``allocates_per_shard = True`` (an
    :class:`~repro.accuracy.schedule.AdaptiveEpsilonAllocator`), each
    epoch asks the allocator which shards to refresh instead of applying
    the uniform ``refresh_rows`` threshold.  Grants never exceed the
    epoch's scheduled envelope ``εᵢ`` and refreshed shards hold disjoint
    data, so the epoch still charges exactly ``εᵢ`` once (parallel
    composition) — lifetime Σε accounting, lineage records, and the
    ε-ledger audit stay bit-identical to a uniform schedule.
    """

    def __init__(
        self,
        data,
        total_epsilon: float,
        schedule: EpsilonSchedule,
        *,
        attribute: str | None = None,
        refresh_rows: int = 1,
        num_shards: int | None = None,
        shard_size: int | None = None,
        plan: ShardPlan | None = None,
        estimator: str = "constrained",
        branching: int = 2,
        seed: int = 0,
        delta: float = 0.0,
        workers: int | None = None,
        store: ReleaseStore | None = None,
        cache: ReleaseCache | None = None,
        cache_capacity: int | None = None,
        name: str = "sharded-stream",
        build_first_epoch: bool = True,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        slo: AccuracySLO | None = None,
    ) -> None:
        if isinstance(data, Relation):
            if attribute is None:
                raise ReproError(
                    "a range attribute is required when the data is a Relation"
                )
            counts = HistogramBuilder(data, attribute).counts()
        else:
            counts = as_float_vector(data, name="counts").copy()
        if not hasattr(schedule, "epsilon_for"):
            raise ReproError(
                f"schedule must implement epsilon_for(epoch), got {schedule!r}"
            )
        if refresh_rows < 1:
            raise ReproError(
                f"refresh_rows threshold must be >= 1, got {refresh_rows}"
            )
        self._counts = counts  # guarded-by: _advance_lock
        #: immutable after construction; serves lock-free domain_size reads
        self._domain_size = int(counts.size)
        self.schedule = schedule
        self.refresh_rows = int(refresh_rows)
        self.estimator = canonical_estimator_name(estimator)
        self.branching = int(branching)
        self.base_seed = int(seed)
        self.name = str(name)
        if not self.name:
            raise ReproError("a stream name is required")
        self.plan = resolve_plan(
            counts.size, num_shards=num_shards, shard_size=shard_size, plan=plan
        )
        self.workers = resolve_workers(workers, self.plan.num_shards)
        self.cache = resolve_shard_cache(
            cache, store, cache_capacity, self.plan.num_shards
        )
        self._budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        self._buffer = IngestBuffer(counts.size)
        self.router = ShardRouter()
        self.stats = ServingStats()
        self._advance_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        #: epochs built (and charged) by this process.
        self.materializations = 0  # guarded-by: _serve_lock
        self._resume_unvalidated = False  # guarded-by: _advance_lock
        #: (epoch, assembled release, that epoch's scheduled εᵢ)
        self._current: tuple[int, ShardedRelease, float] | None = None  # guarded-by: _serve_lock
        #: per-shard releases currently served, refreshed selectively.
        self.retry = retry
        self.breaker = breaker if breaker is not None else CircuitBreaker(name=self.name)
        self.slo = slo
        self.accuracy = AccuracyStats()
        # Composite uncertainty models per epoch ε-vector; racy rebuilds
        # are benign (same inputs build the same immutable model).
        self._uncertainty_models: dict[tuple, UncertaintyModel] = {}
        #: the schedule doubles as a per-shard allocator when it opts in.
        self._allocator = (
            schedule if getattr(schedule, "allocates_per_shard", False) else None
        )
        self._shard_releases: list[MaterializedRelease] | None = None  # guarded-by: _serve_lock
        self.lineage = self._open_lineage()
        if len(self.lineage):
            with self._advance_lock:
                self._resume_from_lineage_locked()
        elif build_first_epoch:
            self.advance_epoch()

    # -- construction helpers --------------------------------------------------

    def _open_lineage(self) -> ShardedLineage:
        store = self.cache.store
        if store is None:
            return ShardedLineage(retry=self.retry)
        return ShardedLineage(
            stream_ledger_path(store.root, self.name, ".sharded.json"),
            retry=self.retry,
        )

    def _resume_from_lineage_locked(self) -> None:
        """Warm restart: re-assemble the latest epoch, spending zero ε.

        Caller holds ``_advance_lock`` (the ``_locked`` convention); the
        re-assembled release is still published under ``_serve_lock``.
        """
        latest = self.lineage.latest
        store = self.cache.store
        if store is None:
            raise ReproError(
                f"sharded stream {self.name!r} has lineage but no store to "
                f"load its shard artifacts from"
            )
        if latest.num_shards != self.plan.num_shards:
            raise LineageConflictError(
                f"sharded stream {self.name!r} was built with "
                f"{latest.num_shards} shards but the engine was constructed "
                f"with {self.plan.num_shards}; the plan is part of the "
                f"stream's identity"
            )
        # The strategy (estimator, branching), the seed schedule, and the
        # ε schedule are part of the stream's identity exactly like the
        # plan: a resume with different parameters must fail here, before
        # any epoch can charge ε against releases it could never assemble
        # or extend (or extend the lineage with off-schedule charges).
        last_refresh: list[int | None] = [None] * self.plan.num_shards
        for record in self.lineage.records:
            for s in record.refreshed:
                last_refresh[s] = record.epoch
        for s, key in enumerate(latest.shard_keys):
            if key.estimator != self.estimator or key.branching != self.branching:
                raise LineageConflictError(
                    f"sharded stream {self.name!r} was built with "
                    f"({key.estimator}, b={key.branching}) but the engine "
                    f"was constructed with ({self.estimator}, "
                    f"b={self.branching}); the estimator and branching are "
                    f"part of the stream's identity"
                )
            if last_refresh[s] is None:
                raise LineageConflictError(
                    f"sharded stream {self.name!r} has a malformed lineage: "
                    f"shard {s} carries a key but no epoch ever refreshed it"
                )
            expected = derive_shard_seed(self.base_seed, last_refresh[s], s)
            if key.seed != expected:
                raise LineageConflictError(
                    f"sharded stream {self.name!r} was built under a "
                    f"different base seed: shard {s} (last refreshed in "
                    f"epoch {last_refresh[s]}) carries seed {key.seed}, but "
                    f"base seed {self.base_seed} derives {expected}; the "
                    f"seed schedule is part of the stream's identity"
                )
            scheduled = float(self.schedule.epsilon_for(last_refresh[s]))
            if self._allocator is not None:
                # An adaptive allocator grants per-shard ε anywhere in
                # (0, εᵢ]; the epoch's envelope is the identity.
                if not 0.0 < key.epsilon <= scheduled:
                    raise LineageConflictError(
                        f"sharded stream {self.name!r} was built under a "
                        f"different ε schedule: shard {s} (last refreshed "
                        f"in epoch {last_refresh[s]}) carries "
                        f"ε={key.epsilon:g}, outside the envelope "
                        f"ε={scheduled:g} the supplied schedule prescribes "
                        f"for that epoch; the ε schedule is part of the "
                        f"stream's identity"
                    )
            elif key.epsilon != scheduled:
                raise LineageConflictError(
                    f"sharded stream {self.name!r} was built under a "
                    f"different ε schedule: shard {s} (last refreshed in "
                    f"epoch {last_refresh[s]}) was charged ε={key.epsilon:g} "
                    f"but the supplied schedule prescribes ε={scheduled:g} "
                    f"for that epoch; the ε schedule is part of the "
                    f"stream's identity"
                )
        releases = []
        for s, key in enumerate(latest.shard_keys):
            release = self.cache.get(key)
            if release is None:
                release = store.get(key)
                if release is not None:
                    self.cache.put(key, release)
            if release is None:
                raise ReproError(
                    f"sharded stream {self.name!r} has lineage through epoch "
                    f"{latest.epoch} but shard {s}'s artifact is missing "
                    f"from the store"
                )
            releases.append(release)
        assembled = ShardedRelease(
            self.plan,
            releases,
            dataset_fingerprint=fingerprint_counts(self._counts),
        )
        with self._serve_lock:
            self._shard_releases = releases
            self._current = (latest.epoch, assembled, latest.epsilon)
        self._resume_unvalidated = True

    # -- budget ----------------------------------------------------------------

    @property
    def budget(self) -> PrivacyBudget:
        return self._budget

    @property
    def spent_epsilon(self) -> float:
        """ε spent by *this process* (a warm restart starts at zero)."""
        return self._budget.spent_epsilon

    @property
    def remaining_epsilon(self) -> float:
        return self._budget.remaining_epsilon

    # -- ingestion -------------------------------------------------------------

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def pending_rows(self) -> int:
        return self._buffer.pending_rows

    def ingest(self, indexes) -> int:
        """Ingest rows given as domain indexes (buffered until an epoch)."""
        rows = self._buffer.add(indexes)
        self._record_ingest(rows)
        return rows

    def ingest_counts(self, delta) -> int:
        """Ingest a pre-aggregated delta count vector."""
        rows = self._buffer.add_counts(delta)
        self._record_ingest(rows)
        return rows

    def _record_ingest(self, rows: int) -> None:
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_ingest_rows_total", "Rows ingested into streams"
            ).inc(rows, stream=self.name)

    def pending_rows_per_shard(self) -> np.ndarray:
        """Pending backlog split by shard (what the threshold is judged on)."""
        delta = self._buffer.pending_counts()
        return np.add.reduceat(delta, self.plan.starts)

    # -- epoch building --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Index of the epoch currently being served (-1 before epoch 0)."""
        with self._serve_lock:
            return self._current[0] if self._current is not None else -1

    def advance_epoch(self) -> ShardEpochRecord | None:
        """Build and publish the next partial-refresh epoch synchronously.

        Drains the buffer, re-releases every shard whose pending rows
        meet :attr:`refresh_rows` (all shards on epoch 0), restores
        sub-threshold deltas for a later epoch, charges the schedule's
        εᵢ once on success, records the refresh set in the lineage, and
        swaps the assembled release in atomically.  Returns ``None``
        without building (or charging) when no shard meets the
        threshold; on any failure the drained rows are restored and no
        ε is spent.
        """
        with self._advance_lock:
            try:
                record = self._advance_locked()
            except Exception as error:
                self.breaker.record_failure(error)
                raise
        if record is not None:
            # A below-threshold no-op exercised no build path, so it
            # neither heals nor harms the breaker.
            self.breaker.record_success()
        return record

    def _advance_locked(self) -> ShardEpochRecord | None:
        epoch = self.lineage.next_epoch
        epsilon = self.schedule.epsilon_for(epoch)
        if self._resume_unvalidated:
            # Same stale-base refusal as the monolithic stream: building
            # on counts that disagree with the lineage's row ledger would
            # silently drop previously folded rows.
            recorded = self.lineage.latest.total_rows
            current = float(self._counts.sum())
            if abs(current - recorded) > 0.5 + 1e-9 * abs(recorded):
                raise LineageConflictError(
                    f"sharded stream {self.name!r} resumed at epoch "
                    f"{self.lineage.latest.epoch} whose release covered "
                    f"{recorded:g} rows, but the supplied counts hold "
                    f"{current:g}; pass the stream's *current* database to "
                    f"keep building"
                )
            self._resume_unvalidated = False
        delta, rows = self._buffer.drain()
        bootstrap = self._shard_releases is None
        shard_rows = np.add.reduceat(delta, self.plan.starts)
        grants = None
        if self._allocator is not None:
            # The allocator decides the refresh set and per-shard grants;
            # every grant is bounded by this epoch's envelope εᵢ, so the
            # single εᵢ charge below still covers the whole refresh set
            # by parallel composition.
            grants = self._allocator.allocate(
                epoch, shard_rows, bootstrap=bootstrap
            )
            refreshed = [
                s for s in range(self.plan.num_shards) if grants[s] > 0.0
            ]
        elif bootstrap:
            refreshed = list(range(self.plan.num_shards))
        else:
            refreshed = [
                s
                for s in range(self.plan.num_shards)
                if shard_rows[s] >= self.refresh_rows
            ]
        if not refreshed:
            # Nothing crossed the threshold: no build, no charge; the
            # backlog rides into a later epoch untouched.
            self._buffer.restore(delta, rows)
            return None
        # The epoch will actually build and charge: enforce the lifetime
        # budget only now, so an exhausted stream polled with an empty or
        # sub-threshold backlog stays a free no-op (the documented
        # contract) instead of raising on every tick.
        lifetime = max(self.lineage.spent_epsilon, self._budget.spent_epsilon)
        if lifetime + epsilon > self._budget.total.epsilon + 1e-12:
            self._restore_backlog(delta, rows)
            raise BudgetExhaustedError(
                f"epoch {epoch} would charge ε={epsilon:g}, but the stream "
                f"has already spent ε={lifetime:g} of its lifetime "
                f"{self._budget.total.epsilon:g} across its lineage"
            )
        # Split the drained delta: refreshed shards fold now, the rest of
        # the backlog goes straight back to the buffer.
        refresh_mask = np.zeros(self.plan.num_shards, dtype=bool)
        refresh_mask[refreshed] = True
        fold_mask = np.repeat(refresh_mask, self.plan.sizes)
        fold = np.where(fold_mask, delta, 0.0)
        ride_along = np.where(fold_mask, 0.0, delta)
        fold_rows = int(round(float(shard_rows[list(refreshed)].sum())))
        if ride_along.any():
            self._buffer.restore(ride_along, rows - fold_rows)
        counts = self._counts + fold if fold.any() else self._counts
        shard_counts = self.plan.split(counts)
        keys = [
            ReleaseKey(
                dataset_fingerprint=fingerprint_counts(shard_counts[s]),
                estimator=self.estimator,
                epsilon=float(epsilon if grants is None else grants[s]),
                branching=self.branching,
                seed=derive_shard_seed(self.base_seed, epoch, s),
            )
            for s in refreshed
        ]
        try:
            if faults.enabled():
                # Injected before any shard build: a failed epoch charges
                # nothing and the folded rows are restored below.
                faults.check("stream.epoch_build")
            if obs.enabled():
                build_start = perf_counter()
                with obs.tracer().span(
                    "stream.advance_epoch",
                    stream=self.name,
                    epoch=epoch,
                    epsilon=epsilon,
                    refreshed_shards=len(refreshed),
                ):
                    fresh = build_shard_releases(
                        [shard_counts[s] for s in refreshed],
                        keys,
                        delta=self._budget.total.delta,
                        workers=self.workers,
                        retry=self.retry,
                    )
                registry = obs.registry()
                registry.histogram(
                    "repro_stream_epoch_build_seconds",
                    "Epoch build latency (seconds)",
                ).observe(perf_counter() - build_start, stream=self.name)
                registry.histogram(
                    "repro_stream_refresh_shards",
                    "Shards re-released per epoch (refresh-set size)",
                    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
                ).observe(len(refreshed), stream=self.name)
            else:
                fresh = build_shard_releases(
                    [shard_counts[s] for s in refreshed],
                    keys,
                    delta=self._budget.total.delta,
                    workers=self.workers,
                    retry=self.retry,
                )
        except BaseException:
            # Nothing was charged or cached; the folded rows rejoin the
            # backlog for the next attempt.
            self._restore_backlog(fold, fold_rows)
            raise
        # One εᵢ for the whole refresh set (parallel composition over the
        # disjoint refreshed shards), only now that every build succeeded.
        self._budget.spend(
            epsilon,
            label=(
                f"epoch {epoch} sharded ({self.estimator}, "
                f"{len(refreshed)}/{self.plan.num_shards} shards)"
            ),
        )
        try:
            # Everything between the charge and publication — cache
            # fills, assembly (which re-validates shard agreement), the
            # store writes, and the lineage append — restores on failure:
            # ε is charged (the releases exist in memory) but the epoch
            # is not published, so the next successful epoch re-releases
            # the rows rather than losing them — the same documented
            # residual as the monolithic stream.
            for key, release in zip(keys, fresh):
                self.cache.put(key, release)
            shard_releases = (
                list(fresh)
                if bootstrap
                else list(self._shard_releases)
            )
            if not bootstrap:
                for s, release in zip(refreshed, fresh):
                    shard_releases[s] = release
            assembled = ShardedRelease(
                self.plan,
                shard_releases,
                dataset_fingerprint=fingerprint_counts(counts),
            )
            record = ShardEpochRecord(
                epoch=epoch,
                epsilon=float(epsilon),
                refreshed=tuple(refreshed),
                shard_keys=assembled.shard_keys,
                rows_ingested=fold_rows,
                total_rows=float(counts.sum()),
            )
            if self.cache.store is not None:
                for release in fresh:
                    self.cache.store.put(release)
            self.lineage.append(record)
        except BaseException:
            self._restore_backlog(fold, fold_rows)
            raise
        self._counts = counts
        with self._serve_lock:
            self._shard_releases = shard_releases
            self._current = (epoch, assembled, float(epsilon))
            self.materializations += 1
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_epochs_total", "Epochs built and published"
            ).inc(stream=self.name)
        return record

    def _restore_backlog(self, delta, rows: int) -> None:
        """Return a drained delta to the buffer, counting the restore."""
        self._buffer.restore(delta, rows)
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_buffer_restores_total",
                "Drained deltas restored after a failed epoch",
            ).inc(stream=self.name)

    # -- serving ---------------------------------------------------------------

    def submit(self, batch: QueryBatch | RangeWorkload) -> StreamBatchResult:
        """Answer a batch from the latest published epoch (no torn reads)."""
        if isinstance(batch, RangeWorkload):
            batch = QueryBatch.from_workload(batch)
        with self._serve_lock:
            current = self._current
        if current is None:
            raise ReproError(
                f"sharded stream {self.name!r} has no epoch yet; ingest data "
                f"and advance an epoch first"
            )
        epoch, release, epoch_epsilon = current
        start = perf_counter()
        answers = self.router.answer(release, batch)
        answer_seconds = perf_counter() - start
        self.stats.record_batch(len(batch), answer_seconds)
        if obs.enabled():
            record_submit_metrics("sharded-stream", len(batch), answer_seconds)
        variances = ci_los = ci_his = confidence = None
        if self.slo is not None:
            epsilons = tuple(float(e) for e in release.shard_epsilons)
            model_key = (release.estimator, epsilons, release.branching)
            model = self._uncertainty_models.get(model_key)
            if model is None:
                model = composite_uncertainty_model(
                    self.plan.starts,
                    self._domain_size,
                    release.estimator,
                    epsilons,
                    branching=release.branching,
                )
                self._uncertainty_models[model_key] = model
            variances, ci_los, ci_his, confidence = score_batch_accuracy(
                model, batch, answers, self.slo, self.accuracy, "sharded-stream"
            )
        return StreamBatchResult(
            answers=answers,
            epoch=epoch,
            estimator=release.estimator,
            epsilon=epoch_epsilon,
            dataset_fingerprint=release.dataset_fingerprint,
            answer_seconds=answer_seconds,
            degraded=self.breaker.degraded,
            variances=variances,
            ci_los=ci_los,
            ci_his=ci_his,
            confidence=confidence,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """No background resources to release; present for fleet symmetry."""

    def __enter__(self) -> "ShardedStreamingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedStreamingEngine(name={self.name!r}, epoch={self.epoch}, "
            f"num_shards={self.num_shards}, pending_rows={self.pending_rows}, "
            f"spent_epsilon={self.spent_epsilon:g})"
        )
