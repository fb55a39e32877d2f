"""Continuously refreshed private serving: the streaming façade.

:class:`StreamingHistogramEngine` turns the one-shot release flow into an
epoch-based loop over live data:

* rows arrive through :meth:`~EpochStreamEngine.ingest` and are
  aggregated in an :class:`~repro.streaming.buffer.IngestBuffer` (true
  data, owner's trust domain);
* a :class:`~repro.streaming.policy.RefreshPolicy` decides when the
  backlog justifies a new epoch, and an
  :class:`~repro.streaming.policy.EpsilonSchedule` decides the ε that
  epoch may spend — sequential composition across epochs is enforced by
  one shared :class:`~repro.privacy.budget.PrivacyBudget`, charged **only
  when an epoch build succeeds** (a failing mechanism, inference run, or
  exhausted budget leaks nothing and loses no ingested rows);
* each epoch folds the drained delta into the current counts and
  materializes a fresh consistent release through the serving tier's
  cache/store machinery, so every epoch is persisted as its own versioned
  artifact (cache keys embed the epoch's fingerprint, ε, and seed) and a
  replayed or restarted stream re-loads epochs for **zero** additional ε;
* queries keep flowing the whole time: :meth:`~EpochStreamEngine.submit`
  answers every batch from one immutable release snapshot, so readers
  never observe a torn epoch — a background build publishes the next
  epoch with a single atomic swap;
* the :class:`~repro.streaming.lineage.EpochLineage` records every
  epoch's identity and ε durably next to the store, which is how a
  restarted engine resumes the schedule (and keeps serving) with zero ε
  spent in the new process.

The epoch loop itself — budget, ingest buffer, circuit breaker, the
lifetime-Σε and stale-base checks, backlog restore, warm restart and the
one-snapshot ``submit`` — is :class:`EpochStreamEngine`, shared with
:class:`~repro.sharding.streaming.ShardedStreamingEngine`.  A subclass
supplies what an epoch folds, how it builds, how it answers, and its
uncertainty model.  Both engines follow one rule for empty epochs: an
epoch with nothing to fold builds nothing, charges nothing and returns
``None`` (epoch 0 always builds).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import faults, obs
from repro.accuracy.models import UncertaintyModel, uncertainty_model_for
from repro.accuracy.slo import AccuracySLO, AccuracyStats
from repro.db.histogram import HistogramBuilder
from repro.db.relation import Relation
from repro.exceptions import (
    BudgetExhaustedError,
    LineageConflictError,
    ReproError,
)
from repro.faults.degrade import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.engine import (
    HistogramEngine,
    canonical_estimator_name,
    record_submit_metrics,
    score_batch_accuracy,
)
from repro.serving.planner import BatchQueryPlanner, QueryBatch
from repro.serving.release import MaterializedRelease
from repro.serving.stats import ServingStats
from repro.serving.store import ReleaseStore, stream_ledger_path
from repro.streaming.buffer import IngestBuffer
from repro.streaming.lineage import EpochLineage, EpochRecord, LineageLedger
from repro.streaming.policy import (
    EpsilonSchedule,
    ManualRefreshPolicy,
    RefreshPolicy,
)
from repro.utils.arrays import as_float_vector

__all__ = ["EpochStreamEngine", "StreamBatchResult", "StreamingHistogramEngine"]

@dataclass(frozen=True)
class StreamBatchResult:
    """Answers for one batch, pinned to the epoch that produced them.

    ``epoch`` identifies the single consistent release every answer in the
    batch came from — the streaming tier's no-torn-reads contract.
    """

    answers: np.ndarray
    epoch: int
    estimator: str
    epsilon: float
    dataset_fingerprint: str
    answer_seconds: float
    #: the stream's circuit breaker was open when this batch was
    #: answered: the answers are valid but come from the last epoch
    #: published before refreshes started failing (stale-serve mode).
    degraded: bool = False
    #: per-answer accuracy columns, populated when the stream has an
    #: :class:`~repro.accuracy.slo.AccuracySLO` (None otherwise — the
    #: hot path pays nothing).
    variances: np.ndarray | None = None
    ci_los: np.ndarray | None = None
    ci_his: np.ndarray | None = None
    confidence: float | None = None

    @property
    def num_queries(self) -> int:
        return int(self.answers.size)

    @property
    def ci_halfwidths(self) -> np.ndarray | None:
        """Per-answer CI halfwidths (None when accuracy was not scored)."""
        if self.ci_his is None:
            return None
        return self.ci_his - self.answers

    @property
    def queries_per_second(self) -> float:
        """Serving throughput for this batch (0 below clock resolution)."""
        if self.answer_seconds <= 0:
            return 0.0
        return self.num_queries / self.answer_seconds


class EpochStreamEngine:
    """The epoch loop shared by the monolithic and sharded stream engines.

    Owns the budget and lifetime Σε check, the ingest buffer and refresh
    policy, the circuit breaker, the stale-base and resume-identity
    checks, the backlog restore after a failed build, the one-snapshot
    :meth:`submit` with SLO scoring, and the lifecycle methods.  A
    subclass supplies the rest:

    * ``_select_fold_locked(epoch, delta, rows)`` — ``(fold, fold_rows,
      refresh)`` for the epoch, with any unfolded rest already back in
      the buffer, or ``None`` when there is nothing to fold;
    * ``_build_epoch_locked(epoch, epsilon, counts, rows, refresh)`` —
      build, charge and persist the epoch; returns ``(record, release,
      builds paid for)``;
    * ``_epoch_published_locked(refresh)`` — commit what only a
      published epoch may change (a no-op by default);
    * ``_served_keys_locked(record)`` — ``(where, epoch, seed, key)`` for
      each release a lineage record serves, and ``_assemble(releases,
      counts)`` — the one release they form;
    * ``_answer(release, batch)``, ``_uncertainty_key(release)`` and
      ``_new_uncertainty_model(release)`` for serving.

    **Empty epochs.**  An epoch with nothing to fold builds nothing,
    charges nothing and returns ``None``; epoch 0 always builds.  The
    lifetime-Σε and stale-base checks run only for an epoch that will
    build, so polling an exhausted stream with an empty backlog is a free
    no-op.

    **Resume identity.**  On a warm restart the estimator, branching,
    seed schedule and ε schedule are checked against every release key
    the lineage serves before anything can be charged.
    """

    #: how error messages name this kind of stream
    kind = "stream"
    #: the ``path`` label of this stream's serving telemetry
    path_label = "stream"
    #: the lineage class this stream's epochs are recorded in
    lineage_type: type[LineageLedger] = EpochLineage
    #: a schedule that grants per-shard ε within each epoch's envelope
    _allocator = None

    def __init__(
        self,
        data,
        total_epsilon: float,
        schedule: EpsilonSchedule,
        *,
        attribute: str | None,
        policy: RefreshPolicy | None,
        estimator: str,
        branching: int,
        seed: int,
        delta: float,
        name: str,
        retry: RetryPolicy | None,
        breaker: CircuitBreaker | None,
        slo: AccuracySLO | None,
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
        self._counts = counts  # guarded-by: _advance_lock
        #: immutable after construction; lets lock-free monitoring paths
        #: read the domain size without touching the guarded counts
        self._domain_size = int(counts.size)
        self.estimator = canonical_estimator_name(estimator)
        self.branching = int(branching)
        self.base_seed = int(seed)
        self.schedule = schedule
        self.policy: RefreshPolicy = policy if policy is not None else ManualRefreshPolicy()
        self.name = str(name)
        if not self.name:
            raise ReproError("a stream name is required")
        self._budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        self._buffer = IngestBuffer(counts.size)
        self.stats = ServingStats()
        #: the exception the most recent policy-triggered auto-refresh
        #: failed with, or ``None``; explicit advance_epoch() calls raise
        #: instead of recording here.
        self.last_refresh_error: BaseException | None = None
        self._advance_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        #: release builds this process paid for
        self.materializations = 0  # guarded-by: _serve_lock
        #: set on warm restart; the first epoch build validates the base
        #: counts against the lineage ledger before proceeding
        self._resume_unvalidated = False  # guarded-by: _advance_lock
        #: (epoch, the release it serves, that epoch's scheduled εᵢ)
        self._current: tuple[int, object, float] | None = None  # guarded-by: _serve_lock
        self._executor: ThreadPoolExecutor | None = None  # guarded-by: _executor_lock
        self._executor_lock = threading.Lock()
        self.retry = retry
        self.breaker = breaker if breaker is not None else CircuitBreaker(name=self.name)
        self.slo = slo
        self.accuracy = AccuracyStats()
        # Uncertainty models per epoch ε; racy rebuilds are benign (the
        # same inputs build the same immutable model).
        self._uncertainty_models: dict[tuple, UncertaintyModel] = {}

    def _start(self, cache: ReleaseCache, build_first_epoch: bool) -> None:
        """Attach the cache, open the lineage, and resume or build epoch 0."""
        self.cache = cache
        store, suffix = cache.store, self.lineage_type.file_suffix
        path = None if store is None else stream_ledger_path(store.root, self.name, suffix)
        self.lineage = self.lineage_type(path, retry=self.retry)
        if len(self.lineage):
            with self._advance_lock:
                self._resume_from_lineage_locked()
        elif build_first_epoch:
            self.advance_epoch()

    def _resume_from_lineage_locked(self) -> None:
        """Warm restart: serve the latest recorded epoch, spending zero ε.

        The strategy (estimator, branching), the seed schedule, and the ε
        schedule are part of the stream's identity: a resume with
        different parameters fails here, before any epoch can charge ε
        against releases it could never extend (or extend the lineage
        with off-schedule charges).  Caller holds ``_advance_lock`` (the
        ``_locked`` convention); the release is published under
        ``_serve_lock``.
        """
        latest = self.lineage.latest
        served = self._served_keys_locked(latest)
        for where, epoch, seed, key in served:
            if key.estimator != self.estimator or key.branching != self.branching:
                raise LineageConflictError(
                    f"{self.kind} {self.name!r} was built with "
                    f"({key.estimator}, b={key.branching}) but the engine "
                    f"was constructed with ({self.estimator}, "
                    f"b={self.branching}); the estimator and branching are "
                    f"part of the stream's identity"
                )
            if key.seed != seed:
                raise LineageConflictError(
                    f"{self.kind} {self.name!r} was built under a different "
                    f"base seed: {where} carries seed {key.seed}, but base "
                    f"seed {self.base_seed} derives {seed}; the seed "
                    f"schedule is part of the stream's identity"
                )
            scheduled = float(self.schedule.epsilon_for(epoch))
            if self._allocator is not None:
                # An adaptive allocator grants per-shard ε anywhere in
                # (0, εᵢ]; the epoch's envelope is the identity.
                matches = 0.0 < key.epsilon <= scheduled
            else:
                matches = key.epsilon == scheduled
            if not matches:
                raise LineageConflictError(
                    f"{self.kind} {self.name!r} was built under a different "
                    f"ε schedule: {where} was charged ε={key.epsilon:g} but "
                    f"the supplied schedule prescribes ε={scheduled:g} for "
                    f"that epoch; the ε schedule is part of the stream's "
                    f"identity"
                )
        releases = []
        for where, _, _, key in served:
            release = self._cached_or_stored(key)
            if release is None:
                raise ReproError(
                    f"{self.kind} {self.name!r} has lineage through epoch "
                    f"{latest.epoch} but the artifact of {where} is missing "
                    f"from the store"
                )
            releases.append(release)
        release = self._assemble(releases, self._counts)
        with self._serve_lock:
            self._current = (latest.epoch, release, float(latest.epsilon))
        # Serving resumed releases needs no counts at all, but *building*
        # on stale base counts would silently rebase the stream and drop
        # every previously folded row — so the first build after a resume
        # cross-checks the counts against the lineage's true-count ledger.
        self._resume_unvalidated = True

    def _cached_or_stored(self, key):
        """``key``'s release from the cache, else the store (then cached)."""
        release = self.cache.get(key)
        if release is None and self.cache.store is not None:
            release = self.cache.store.get(key)
            if release is not None:
                self.cache.put(key, release)
        return release

    # -- budget ----------------------------------------------------------------

    @property
    def budget(self) -> PrivacyBudget:
        """The shared (thread-safe) budget every epoch composes against."""
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
    def pending_rows(self) -> int:
        """Rows ingested but not yet folded into any epoch."""
        return self._buffer.pending_rows

    def ingest(self, indexes) -> int:
        """Ingest rows given as domain indexes; may trigger a refresh.

        Returns the number of rows ingested.  When the refresh policy
        fires and no build is already in flight, the epoch advances
        synchronously (for latency-sensitive ingest paths, keep the
        default :class:`~repro.streaming.policy.ManualRefreshPolicy` and
        drive :meth:`advance_epoch_background` yourself).  A *failed*
        auto-refresh never raises out of ingest — the rows are already
        safely buffered, and re-ingesting them would double-count; the
        failure is recorded in :attr:`last_refresh_error` for monitoring
        (a persistent cause, such as an exhausted budget, will surface
        again on the next explicit :meth:`advance_epoch`).
        """
        rows = self._buffer.add(indexes)
        self._record_ingest(rows)
        self._maybe_refresh()
        return rows

    def ingest_counts(self, delta) -> int:
        """Ingest a pre-aggregated delta count vector; may trigger a refresh."""
        rows = self._buffer.add_counts(delta)
        self._record_ingest(rows)
        self._maybe_refresh()
        return rows

    def _record_ingest(self, rows: int) -> None:
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_ingest_rows_total", "Rows ingested into streams"
            ).inc(rows, stream=self.name)

    def _maybe_refresh(self) -> None:
        if not self.policy.should_refresh(self._buffer.pending_rows):
            return
        # Never stack policy-triggered builds: the non-blocking acquire
        # makes the in-flight check atomic, and the policy is re-checked
        # under the lock — a concurrent ingest that lost the race finds
        # its rows already drained and must not charge a near-empty
        # epoch for them.  Pending rows simply ride into the next epoch.
        if not self.breaker.allow_probe():
            # Open breaker: keep serving the last published epoch (stale
            # but valid) instead of hammering a failing build path on
            # every ingest.  Every probe_interval-th opportunity is let
            # through as the healing probe, and an explicit
            # advance_epoch() always bypasses this gate.
            if obs.enabled():
                obs.registry().counter(
                    "repro_stream_refreshes_suppressed_total",
                    "Auto-refreshes suppressed by an open circuit breaker",
                ).inc(stream=self.name)
            return
        if not self._advance_lock.acquire(blocking=False):
            return
        try:
            if self.policy.should_refresh(self._buffer.pending_rows):
                if self._advance_locked() is not None:
                    self.breaker.record_success()
                self.last_refresh_error = None
        except Exception as error:
            self.breaker.record_failure(error)
            # The ingest itself succeeded — the rows are in the buffer and
            # a failed build restored its drained share — so raising here
            # would invite the caller to re-ingest the same batch and
            # double-count it.  Auto-refresh degrades to buffer-only
            # ingestion; the error surfaces on the next explicit
            # advance_epoch() and through last_refresh_error.
            self.last_refresh_error = error
        finally:
            self._advance_lock.release()

    # -- epoch building --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Index of the epoch currently being served (-1 before epoch 0)."""
        with self._serve_lock:
            return self._current[0] if self._current is not None else -1

    def advance_epoch(self):
        """Build and publish the next epoch synchronously.

        Drains the ingest buffer, folds what the engine selects into the
        current counts, builds the epoch's release at the scheduled ε,
        records the epoch in the lineage, and atomically swaps it in for
        serving.  Returns ``None`` without building or charging when
        there is nothing to fold.  On *any* failure the drained rows are
        restored to the buffer, the epoch counter does not advance, and —
        because the charge happens only after the release is computed —
        no ε is spent.
        """
        with self._advance_lock:
            try:
                record = self._advance_locked()
            except Exception as error:
                self.breaker.record_failure(error)
                raise
        if record is not None:
            # A no-op epoch exercised no build path, so it neither heals
            # nor harms the breaker.
            self.breaker.record_success()
        return record

    def advance_epoch_background(self) -> Future:
        """Schedule :meth:`advance_epoch` on the build thread.

        Queries keep being answered from the current epoch while the build
        runs; the returned future resolves to the new epoch's record (or
        ``None``, or carries the build's exception).  Builds are
        serialized on a single worker so concurrent triggers can never
        race the schedule.
        """
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"epoch-build-{self.name}"
                )
            return self._executor.submit(self.advance_epoch)

    def _advance_locked(self):
        epoch = self.lineage.next_epoch
        epsilon = self.schedule.epsilon_for(epoch)
        delta, rows = self._buffer.drain()
        selected = self._select_fold_locked(epoch, delta, rows)
        if selected is None:
            # Nothing to fold: no build, no charge; the backlog rides
            # into a later epoch untouched.
            self._buffer.restore(delta, rows)
            return None
        fold, fold_rows, refresh = selected
        try:
            self._check_can_build_locked(epoch, epsilon)
            # Gate the fold on the delta itself, not the row count:
            # fractional pre-aggregated deltas can sum below one whole
            # row yet still carry data that must reach the epoch.
            counts = self._counts + fold if fold.any() else self._counts
            if faults.enabled():
                # Injected before any mechanism work: a failed epoch
                # charges nothing and the drained rows are restored.
                faults.check("stream.epoch_build")
            if obs.enabled():
                build_start = perf_counter()
                with obs.tracer().span(
                    "stream.advance_epoch",
                    stream=self.name,
                    epoch=epoch,
                    epsilon=epsilon,
                    rows=fold_rows,
                ):
                    record, release, built = self._build_epoch_locked(
                        epoch, epsilon, counts, fold_rows, refresh
                    )
                obs.registry().histogram(
                    "repro_stream_epoch_build_seconds",
                    "Epoch build latency (seconds)",
                ).observe(perf_counter() - build_start, stream=self.name)
            else:
                record, release, built = self._build_epoch_locked(
                    epoch, epsilon, counts, fold_rows, refresh
                )
            self.lineage.append(record)
        except BaseException:
            # A failed check or build charged nothing.  A failure after
            # the charge (store write, lineage append) leaves the epoch's
            # ε spent but the epoch unpublished — the documented residual
            # of a non-transactional store and lineage.  Either way the
            # folded rows rejoin the backlog so the next successful epoch
            # releases them rather than losing them.
            self._restore_backlog(fold, fold_rows)
            raise
        self._counts = counts
        with self._serve_lock:
            self._current = (epoch, release, float(epsilon))
            self.materializations += built
        self._epoch_published_locked(refresh)
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_epochs_total", "Epochs built and published"
            ).inc(stream=self.name)
        return record

    def _epoch_published_locked(self, refresh) -> None:
        """Hook: the epoch ``refresh`` selected is built and published."""

    def _check_can_build_locked(self, epoch: int, epsilon: float) -> None:
        """Refuse an epoch that would overspend the lifetime or a stale base."""
        # The process budget starts at zero after a warm restart, so it
        # alone cannot enforce total_epsilon over the stream's *lifetime*;
        # the lineage carries the cross-restart ledger.  The process
        # budget is the floor for charges the lineage missed (a lineage
        # persist failure after a successful build).
        lifetime = max(self.lineage.spent_epsilon, self._budget.spent_epsilon)
        if lifetime + epsilon > self._budget.total.epsilon + 1e-12:
            raise BudgetExhaustedError(
                f"epoch {epoch} would charge ε={epsilon:g}, but the stream "
                f"has already spent ε={lifetime:g} of its lifetime "
                f"{self._budget.total.epsilon:g} across its lineage"
            )
        if self._resume_unvalidated:
            # Building on stale base counts after a resume would publish a
            # release that regresses by every previously folded row; the
            # lineage records each epoch's true total exactly so the
            # mismatch is detectable before any work (0.5 of absolute
            # slack tolerates text-serialized counts, never a whole row).
            recorded = self.lineage.latest.total_rows
            current = float(self._counts.sum())
            if abs(current - recorded) > 0.5 + 1e-9 * abs(recorded):
                raise LineageConflictError(
                    f"{self.kind} {self.name!r} resumed at epoch "
                    f"{self.lineage.latest.epoch} whose release covered "
                    f"{recorded:g} rows, but the supplied counts hold "
                    f"{current:g}; pass the stream's *current* database "
                    f"(base plus previously released rows) to keep building"
                )
            self._resume_unvalidated = False

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
        """Answer a batch from the latest published epoch.

        The epoch snapshot is taken once, before answering, and the whole
        batch is answered from that single immutable release — a
        concurrent epoch swap affects only batches submitted after it.
        """
        if isinstance(batch, RangeWorkload):
            batch = QueryBatch.from_workload(batch)
        with self._serve_lock:
            current = self._current
        if current is None:
            raise ReproError(
                f"{self.kind} {self.name!r} has no epoch yet; ingest data and "
                f"advance an epoch first"
            )
        epoch, release, epoch_epsilon = current
        start = perf_counter()
        answers = self._answer(release, batch)
        answer_seconds = perf_counter() - start
        self.stats.record_batch(len(batch), answer_seconds)
        if obs.enabled():
            record_submit_metrics(self.path_label, len(batch), answer_seconds)
        variances = ci_los = ci_his = confidence = None
        if self.slo is not None:
            model_key = self._uncertainty_key(release)
            model = self._uncertainty_models.get(model_key)
            if model is None:
                model = self._new_uncertainty_model(release)
                self._uncertainty_models[model_key] = model
            variances, ci_los, ci_his, confidence = score_batch_accuracy(
                model, batch, answers, self.slo, self.accuracy, self.path_label
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
        """Wait for any in-flight background build and release its thread."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, epoch={self.epoch}, "
            f"pending_rows={self.pending_rows}, "
            f"spent_epsilon={self.spent_epsilon:g})"
        )


class StreamingHistogramEngine(EpochStreamEngine):
    """Epoch-refreshed private-histogram server over one live dataset.

    Parameters
    ----------
    data:
        The *current* database: a :class:`Relation` (with ``attribute``)
        or a raw unit-count vector.  On a warm restart this is the base
        the next epoch's delta folds into.
    total_epsilon:
        The overall budget every epoch's charge composes against — over
        the stream's whole *lifetime*: after a warm restart the process
        budget restarts at zero, but new epochs are checked against the
        lineage's cross-restart Σεᵢ ledger before building.
    schedule:
        The per-epoch ε schedule (e.g.
        :class:`~repro.streaming.policy.GeometricEpsilonSchedule`).
    policy:
        When to auto-refresh on ingest; defaults to manual-only.
    estimator / branching / seed:
        Release strategy; epoch ``i`` is built with seed ``seed + i`` so
        every epoch is a distinct, deterministic release identity.
    store:
        Optional durable :class:`ReleaseStore`.  Epoch artifacts persist
        into it and the epoch lineage lives beside it
        (``<root>/streams/<name>-<hash>.json``), enabling zero-ε warm
        restarts.
    cache:
        A pre-built shared :class:`ReleaseCache` (attach any store to it);
        mutually exclusive with ``store``.
    name:
        Stream name used for the lineage file and telemetry.
    build_first_epoch:
        Build epoch 0 from the base data at construction (default).  Has
        no effect on a warm restart, which resumes from the lineage.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` applied to the
        lineage's per-append persist (the store takes its own policy at
        construction).  Retries only re-run persistence — never the
        ε-charged build.
    breaker:
        The stream's :class:`~repro.faults.degrade.CircuitBreaker`; a
        default one (trip on first failure, probe every 4th suppressed
        auto-refresh) is created when omitted.  While open, the engine
        keeps answering from the last published epoch with
        ``degraded=True`` on every batch, and one successful build heals
        it.

    An epoch after epoch 0 whose drained delta is all zero is empty: it
    builds nothing, charges nothing and returns ``None``.
    """

    def __init__(
        self,
        data,
        total_epsilon: float,
        schedule: EpsilonSchedule,
        *,
        attribute: str | None = None,
        policy: RefreshPolicy | None = None,
        estimator: str = "constrained",
        branching: int = 2,
        seed: int = 0,
        delta: float = 0.0,
        store: ReleaseStore | None = None,
        cache: ReleaseCache | None = None,
        cache_capacity: int = 32,
        name: str = "stream",
        build_first_epoch: bool = True,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        slo: AccuracySLO | None = None,
    ) -> None:
        super().__init__(
            data,
            total_epsilon,
            schedule,
            attribute=attribute,
            policy=policy,
            estimator=estimator,
            branching=branching,
            seed=seed,
            delta=delta,
            name=name,
            retry=retry,
            breaker=breaker,
            slo=slo,
        )
        if cache is not None and store is not None:
            raise ReproError(
                "pass either a shared cache or a store, not both; attach the "
                "store to the shared ReleaseCache instead"
            )
        self.planner = BatchQueryPlanner()
        self._start(
            cache if cache is not None else ReleaseCache(cache_capacity, store=store),
            build_first_epoch,
        )

    def advance_epoch(self) -> EpochRecord | None:
        """Build and publish the next epoch; ``None`` when nothing is pending."""
        return super().advance_epoch()

    def _select_fold_locked(self, epoch, delta, rows):
        if epoch > 0 and not delta.any():
            return None
        return delta, rows, None

    def _build_epoch_locked(self, epoch, epsilon, counts, rows, refresh):
        builder = HistogramEngine(
            counts,
            branching=self.branching,
            cache=self.cache,
            budget=self._budget,
            spend_label=f"epoch {epoch} ({self.estimator})",
        )
        release = builder.materialize(
            self.estimator,
            epsilon=epsilon,
            branching=self.branching,
            seed=self.base_seed + epoch,
        )
        record = EpochRecord(
            epoch=epoch,
            key=release.key,
            epsilon=epsilon,
            rows_ingested=rows,
            total_rows=float(counts.sum()),
        )
        return record, release, builder.materializations

    def _served_keys_locked(self, record):
        epoch = record.epoch
        return [(f"epoch {epoch}", epoch, self.base_seed + epoch, record.key)]

    def _assemble(self, releases, counts):
        return releases[0]

    def _answer(self, release, batch):
        return self.planner.answer(release, batch)

    def _uncertainty_key(self, release):
        return (release.estimator, float(release.epsilon), release.branching)

    def _new_uncertainty_model(self, release):
        return uncertainty_model_for(
            release.estimator,
            domain_size=self._domain_size,
            epsilon=release.epsilon,
            branching=release.branching,
        )

    def release_for_epoch(self, epoch: int) -> MaterializedRelease:
        """The immutable release a past epoch published (no ε, ever).

        Resolved from the in-memory cache, falling back to the durable
        store; raises when the epoch was never built or its artifact is
        gone from both.
        """
        records = self.lineage.records
        if not 0 <= epoch < len(records):
            raise ReproError(
                f"stream {self.name!r} has no epoch {epoch} "
                f"(built through {len(records) - 1})"
            )
        release = self._cached_or_stored(records[epoch].key)
        if release is None:
            raise ReproError(
                f"epoch {epoch} of stream {self.name!r} was evicted and no "
                f"store holds its artifact"
            )
        return release
