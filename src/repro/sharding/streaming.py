"""Per-shard epoch refresh: only touched shards pay for freshness.

:class:`ShardedStreamingEngine` is the sharded sibling of
:class:`~repro.streaming.engine.StreamingHistogramEngine`: both run the
epoch loop of :class:`~repro.streaming.engine.EpochStreamEngine`, and
this one supplies the per-shard refresh set as its build step.  Live traffic
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

import numpy as np

from repro import obs
from repro.accuracy.models import composite_uncertainty_model
from repro.accuracy.slo import AccuracySLO
from repro.exceptions import LineageConflictError, ReproError
from repro.faults.degrade import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.serving.cache import ReleaseCache
from repro.serving.release import ReleaseKey, fingerprint_counts
from repro.serving.store import ReleaseStore
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
from repro.streaming.engine import EpochStreamEngine
from repro.streaming.policy import EpsilonSchedule

__all__ = ["ShardedStreamingEngine"]


class ShardedStreamingEngine(EpochStreamEngine):
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
        An epoch in which no shard meets it is empty: it builds nothing,
        charges nothing and returns ``None``.
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
    ε-ledger audit stay bit-identical to a uniform schedule.  The
    allocator's steering state is committed once the epoch is published.
    """

    kind = "sharded stream"
    path_label = "sharded-stream"
    lineage_type = ShardedLineage

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
        if refresh_rows < 1:
            raise ReproError(
                f"refresh_rows threshold must be >= 1, got {refresh_rows}"
            )
        super().__init__(
            data,
            total_epsilon,
            schedule,
            attribute=attribute,
            policy=None,
            estimator=estimator,
            branching=branching,
            seed=seed,
            delta=delta,
            name=name,
            retry=retry,
            breaker=breaker,
            slo=slo,
        )
        self.refresh_rows = int(refresh_rows)
        self.plan = resolve_plan(
            self._domain_size, num_shards=num_shards, shard_size=shard_size, plan=plan
        )
        self.workers = resolve_workers(workers, self.plan.num_shards)
        self.router = ShardRouter()
        #: the schedule doubles as a per-shard allocator when it opts in.
        self._allocator = (
            schedule if getattr(schedule, "allocates_per_shard", False) else None
        )
        self._start(
            resolve_shard_cache(cache, store, cache_capacity, self.plan.num_shards),
            build_first_epoch,
        )

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def pending_rows_per_shard(self) -> np.ndarray:
        """Pending backlog split by shard (what the threshold is judged on)."""
        delta = self._buffer.pending_counts()
        return np.add.reduceat(delta, self.plan.starts)

    def advance_epoch(self) -> ShardEpochRecord | None:
        """Build and publish the next partial-refresh epoch synchronously.

        Re-releases every shard whose pending rows meet
        :attr:`refresh_rows` (all shards on epoch 0), restores
        sub-threshold deltas for a later epoch, and charges the
        schedule's εᵢ once for the whole refresh set.  Returns ``None``
        without building (or charging) when no shard meets the threshold.
        """
        return super().advance_epoch()

    def _select_fold_locked(self, epoch, delta, rows):
        bootstrap = epoch == 0
        shard_rows = np.add.reduceat(delta, self.plan.starts)
        allocation = None
        if self._allocator is not None:
            # The allocator decides the refresh set and per-shard grants;
            # every grant is bounded by this epoch's envelope εᵢ, so the
            # single εᵢ charge still covers the whole refresh set by
            # parallel composition.
            allocation = self._allocator.allocate(
                epoch, shard_rows, bootstrap=bootstrap
            )
            refreshed = np.flatnonzero(allocation.grants).tolist()
        elif bootstrap:
            refreshed = list(range(self.plan.num_shards))
        else:
            refreshed = [
                s
                for s in range(self.plan.num_shards)
                if shard_rows[s] >= self.refresh_rows
            ]
        if not refreshed:
            return None
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
        return fold, fold_rows, (refreshed, allocation)

    def _build_epoch_locked(self, epoch, epsilon, counts, rows, refresh):
        refreshed, allocation = refresh
        shard_counts = self.plan.split(counts)
        keys = [
            ReleaseKey(
                dataset_fingerprint=fingerprint_counts(shard_counts[s]),
                estimator=self.estimator,
                epsilon=float(epsilon if allocation is None else allocation.grants[s]),
                branching=self.branching,
                seed=derive_shard_seed(self.base_seed, epoch, s),
            )
            for s in refreshed
        ]
        fresh = build_shard_releases(
            [shard_counts[s] for s in refreshed],
            keys,
            delta=self._budget.total.delta,
            workers=self.workers,
            retry=self.retry,
        )
        if obs.enabled():
            obs.registry().histogram(
                "repro_stream_refresh_shards",
                "Shards re-released per epoch (refresh-set size)",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            ).observe(len(refreshed), stream=self.name)
        # One εᵢ for the whole refresh set (parallel composition over the
        # disjoint refreshed shards), only now that every build succeeded.
        self._budget.spend(
            epsilon,
            label=(
                f"epoch {epoch} sharded ({self.estimator}, "
                f"{len(refreshed)}/{self.plan.num_shards} shards)"
            ),
        )
        for key, release in zip(keys, fresh):
            self.cache.put(key, release)
        # _current changes only under the advance lock this build holds.
        if self._current is None:
            shard_releases = list(fresh)
        else:
            shard_releases = list(self._current[1].shard_releases)
            for s, release in zip(refreshed, fresh):
                shard_releases[s] = release
        assembled = self._assemble(shard_releases, counts)
        record = ShardEpochRecord(
            epoch=epoch,
            epsilon=float(epsilon),
            refreshed=tuple(refreshed),
            shard_keys=assembled.shard_keys,
            rows_ingested=rows,
            total_rows=float(counts.sum()),
        )
        if self.cache.store is not None:
            for release in fresh:
                self.cache.store.put(release)
        return record, assembled, 1

    def _epoch_published_locked(self, refresh):
        allocation = refresh[1]
        if allocation is not None:
            self._allocator.commit(allocation)

    def _served_keys_locked(self, record):
        if record.num_shards != self.plan.num_shards:
            raise LineageConflictError(
                f"sharded stream {self.name!r} was built with "
                f"{record.num_shards} shards but the engine was constructed "
                f"with {self.plan.num_shards}; the plan is part of the "
                f"stream's identity"
            )
        last_refresh: list[int | None] = [None] * self.plan.num_shards
        for earlier in self.lineage.records:
            for s in earlier.refreshed:
                last_refresh[s] = earlier.epoch
        served = []
        for s, (epoch, key) in enumerate(zip(last_refresh, record.shard_keys)):
            if epoch is None:
                raise LineageConflictError(
                    f"sharded stream {self.name!r} has a malformed lineage: "
                    f"shard {s} carries a key but no epoch ever refreshed it"
                )
            seed = derive_shard_seed(self.base_seed, epoch, s)
            served.append(
                (f"shard {s} (last refreshed in epoch {epoch})", epoch, seed, key)
            )
        return served

    def _assemble(self, releases, counts):
        return ShardedRelease(
            self.plan, releases, dataset_fingerprint=fingerprint_counts(counts)
        )

    def _answer(self, release, batch):
        return self.router.answer(release, batch)

    def _uncertainty_key(self, release):
        epsilons = tuple(float(e) for e in release.shard_epsilons)
        return (release.estimator, epsilons, release.branching)

    def _new_uncertainty_model(self, release):
        return composite_uncertainty_model(
            self.plan.starts,
            self._domain_size,
            release.estimator,
            tuple(float(e) for e in release.shard_epsilons),
            branching=release.branching,
        )
