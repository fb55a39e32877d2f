"""Chaos harness: seeded fault schedules against the real engines.

Every scenario arms a deterministic schedule (so a failing seed replays
exactly), drives a full workload, and asserts the robustness invariants
the fault layer exists to protect:

* **Σε is bit-exact** — injected failures never leak or double-charge
  budget: a failed build charges nothing, a retried persist re-runs only
  I/O, and the lineage ledger equals the schedule sum exactly;
* **one immutable release per answer** — every batch is pinned to a
  single published epoch, degraded or not;
* **crash recovery** — after a simulated process death at any injected
  point, a fresh engine resumes from the durable lineage and store with
  zero additional ε and zero lost rows (re-delivered rows fold into the
  next epoch);
* **zero overhead when disabled** — a counting injector installed while
  injection is off observes zero fault-layer calls, and the answers are
  bit-identical to an uninstrumented run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.accuracy.schedule import AdaptiveEpsilonAllocator
from repro.db.histogram import delta_counts
from repro.exceptions import ReleaseStoreError
from repro.faults import (
    CrashFault,
    FailFirst,
    FailNth,
    FailWithProbability,
    FaultError,
    FaultInjector,
    RetryPolicy,
)
from repro.serving.planner import QueryBatch
from repro.serving.store import ReleaseStore
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming import (
    GeometricEpsilonSchedule,
    StreamingHistogramEngine,
)

CHAOS_SEEDS = [0, 1, 2]

#: retries with no real sleeping: chaos runs stay fast and deterministic
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)

DOMAIN = 64
EPOCHS = 4


def stream_deltas(seed: int, batches: int = EPOCHS, rows: int = 50):
    rng = np.random.default_rng(20100901 + seed)
    return [rng.integers(0, DOMAIN, size=rows) for _ in range(batches)]


def base_counts():
    return np.zeros(DOMAIN)


def make_stream(tmp_path, *, retry=None, subdir="store", **kwargs):
    defaults = dict(name="chaos", seed=5)
    defaults.update(kwargs)
    return StreamingHistogramEngine(
        base_counts(),
        total_epsilon=2.0,
        schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
        store=ReleaseStore(tmp_path / subdir, retry=retry),
        retry=retry,
        **defaults,
    )


def run_stream_epochs(engine, deltas, *, tolerate=()):
    """Ingest and advance once per delta, retrying epochs that an armed
    schedule kills (their rows are restored, so a retry re-covers them)."""
    for delta in deltas:
        engine.ingest(delta)
        for _ in range(32):
            try:
                engine.advance_epoch()
                break
            except tolerate:
                continue
        else:  # pragma: no cover - would mean an impossible schedule
            pytest.fail("epoch never built within 32 attempts")


def baseline_stream_run(tmp_path, seed: int):
    """The no-fault reference: final answers, Σε, and row ledger."""
    engine = make_stream(tmp_path, subdir=f"baseline-{seed}")
    run_stream_epochs(engine, stream_deltas(seed))
    batch = QueryBatch.random(DOMAIN, 64, rng=9)
    result = engine.submit(batch)
    return {
        "answers": result.answers,
        "epoch": result.epoch,
        "spent": engine.spent_epsilon,
        "lineage_spent": engine.lineage.spent_epsilon,
        "total_rows": engine.lineage.latest.total_rows,
    }


class TestStreamingChaos:
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_build_faults_leave_epsilon_and_answers_bit_exact(
        self, tmp_path, chaos_seed
    ):
        """Probabilistic epoch-build failures: every killed build charges
        nothing and loses no rows, so once all epochs land the stream is
        indistinguishable — bit for bit — from the no-fault run."""
        baseline = baseline_stream_run(tmp_path, chaos_seed)

        engine = make_stream(tmp_path, subdir="chaos", build_first_epoch=False)
        with faults.session(
            {"stream.epoch_build": FailWithProbability(0.4, seed=chaos_seed)}
        ) as injector:
            # epoch 0 first (the constructor built it in the baseline)
            run_stream_epochs(engine, [np.array([])], tolerate=(FaultError,))
            run_stream_epochs(
                engine, stream_deltas(chaos_seed), tolerate=(FaultError,)
            )
            snapshot = injector.snapshot()

        result = engine.submit(QueryBatch.random(DOMAIN, 64, rng=9))
        # Σε: bit-exact equality with the clean run, both ledgers agree
        assert engine.spent_epsilon == baseline["spent"]
        assert engine.lineage.spent_epsilon == baseline["lineage_spent"]
        # no rows lost: the true-count ledger matches exactly
        assert engine.lineage.latest.total_rows == baseline["total_rows"]
        # identical release identity and answers, from one pinned epoch
        assert result.epoch == baseline["epoch"]
        assert np.array_equal(result.answers, baseline["answers"])
        # the schedule really did interfere (otherwise this test is vacuous)
        if snapshot.get("stream.epoch_build", {}).get("injected", 0) == 0:
            pytest.skip(f"seed {chaos_seed} injected nothing at p=0.4")

    @pytest.mark.parametrize("point", ["lineage.append", "store.write", "io.flush"])
    def test_retry_heals_transient_durable_faults_without_recharge(
        self, tmp_path, point
    ):
        """Fail-once-then-heal at each durable-tier point: the configured
        retry policy absorbs the fault invisibly — same ε, same answers."""
        baseline = baseline_stream_run(tmp_path, 0)

        engine = make_stream(
            tmp_path, retry=FAST_RETRY, subdir="chaos", build_first_epoch=False
        )
        with faults.session({point: FailFirst(1)}) as injector:
            engine.advance_epoch()  # epoch 0
            run_stream_epochs(engine, stream_deltas(0))
            assert injector.injected(point) == 1  # the fault really fired

        result = engine.submit(QueryBatch.random(DOMAIN, 64, rng=9))
        assert engine.spent_epsilon == baseline["spent"]
        assert engine.lineage.spent_epsilon == baseline["lineage_spent"]
        assert np.array_equal(result.answers, baseline["answers"])

    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_crash_at_lineage_append_resumes_with_no_row_loss(
        self, tmp_path, chaos_seed
    ):
        """Simulated process death while persisting the epoch ledger: a
        fresh engine resumes from the durable state, re-ingests the
        re-delivered rows, and ends with a contiguous lineage."""
        deltas = stream_deltas(chaos_seed)
        engine = make_stream(tmp_path)
        run_stream_epochs(engine, deltas[:2])
        surviving_spent = engine.lineage.spent_epsilon

        engine.ingest(deltas[2])
        with faults.session({"lineage.append": FailNth(1, crash=True)}):
            with pytest.raises(CrashFault):
                engine.advance_epoch()
        del engine  # the process is dead; nothing in memory survives

        # restart: same store, base counts = everything the surviving
        # ledger covers (epochs 0..2 of row history)
        covered = base_counts()
        for delta in deltas[:2]:
            covered = covered + delta_counts(delta, DOMAIN)
        resumed = StreamingHistogramEngine(
            covered,
            total_epsilon=2.0,
            schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
            store=ReleaseStore(tmp_path / "store"),
            name="chaos",
            seed=5,
        )
        # the resume itself spends nothing and serves the pre-crash epoch
        assert resumed.spent_epsilon == 0.0
        assert resumed.lineage.spent_epsilon == surviving_spent
        assert resumed.submit(QueryBatch.random(DOMAIN, 8, rng=1)).epoch == 2

        # the upstream re-delivers the rows the crash took down with it
        resumed.ingest(deltas[2])
        record = resumed.advance_epoch()
        assert record.epoch == 3
        expected_total = covered.sum() + delta_counts(deltas[2], DOMAIN).sum()
        assert record.total_rows == expected_total  # no rows lost
        assert [r.epoch for r in resumed.lineage.records] == [0, 1, 2, 3]

    def test_degraded_stale_serve_then_heal(self, tmp_path):
        """A tripped breaker keeps the stream answering from the last
        published epoch, flagged degraded, until one success heals it."""
        engine = make_stream(tmp_path)
        run_stream_epochs(engine, stream_deltas(0, batches=1))
        healthy = engine.submit(QueryBatch.random(DOMAIN, 32, rng=4))
        assert not healthy.degraded

        engine.ingest(stream_deltas(0)[1])
        with faults.session({"stream.epoch_build": FailFirst(2)}):
            with pytest.raises(FaultError):
                engine.advance_epoch()
            assert engine.breaker.degraded
            assert "injected fault" in engine.breaker.last_error

            stale = engine.submit(QueryBatch.random(DOMAIN, 32, rng=4))
            assert stale.degraded
            # stale-serve: same pinned epoch, bit-identical answers
            assert stale.epoch == healthy.epoch
            assert np.array_equal(stale.answers, healthy.answers)

            with pytest.raises(FaultError):
                engine.advance_epoch()  # still failing
            engine.advance_epoch()  # schedule healed: epoch lands

        assert not engine.breaker.degraded
        healed = engine.submit(QueryBatch.random(DOMAIN, 32, rng=4))
        assert not healed.degraded
        assert healed.epoch == healthy.epoch + 1
        assert engine.breaker.trips == 1


def sharded_schedule(adaptive: bool):
    """The chaos runs' ε envelope, optionally steered per shard."""
    envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
    if adaptive:
        return AdaptiveEpsilonAllocator(envelope, hot_fraction=0.25)
    return envelope


class TestShardedChaos:
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_shard_build_faults_retry_to_bit_exact_answers(
        self, tmp_path, chaos_seed
    ):
        """Per-shard build failures under retry: the epoch still lands,
        charging its scheduled ε exactly once (parallel composition),
        with answers bit-identical to the clean run — under a uniform and
        an adaptive schedule."""
        rng = np.random.default_rng(7)
        counts = rng.poisson(5.0, size=200).astype(float)
        batch = QueryBatch.random(200, 64, rng=9)

        def build(subdir, retry, adaptive):
            return ShardedStreamingEngine(
                counts,
                1.0,
                sharded_schedule(adaptive),
                num_shards=4,
                name="clicks",
                seed=3,
                workers=1,
                store=ReleaseStore(tmp_path / f"{subdir}-{adaptive}"),
                retry=retry,
            )

        injected = 0
        for adaptive in (False, True):
            baseline = build(f"clean-{chaos_seed}", None, adaptive)
            expected = baseline.submit(batch)

            retry = RetryPolicy(max_attempts=8, base_delay=0.0, jitter=0.0)
            with faults.session(
                {"shard.build": FailWithProbability(0.3, seed=chaos_seed)}
            ) as injector:
                chaotic = build(f"chaos-{chaos_seed}", retry, adaptive)
                injected += injector.injected("shard.build")

            assert chaotic.spent_epsilon == baseline.spent_epsilon == 0.4
            assert chaotic.lineage.latest.refreshed == (0, 1, 2, 3)
            result = chaotic.submit(batch)
            assert result.epoch == expected.epoch
            assert np.array_equal(result.answers, expected.answers)
        if injected == 0:
            pytest.skip(f"seed {chaos_seed} injected nothing at p=0.3")

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_epoch_build_faults_leave_refresh_sets_and_answers_bit_exact(
        self, tmp_path, chaos_seed, adaptive
    ):
        """Probabilistic epoch-build failures on a sharded stream: a killed
        epoch charges nothing, restores its rows and — under an adaptive
        schedule — leaves the allocator's steering state alone, so every
        epoch refreshes the same shards as the clean run and the final
        answers are bit-identical."""
        size = 256
        deltas = [
            np.random.default_rng(20100903 + chaos_seed + i).integers(
                0, 96 + 32 * i, size=80
            )
            for i in range(EPOCHS)
        ]
        batch = QueryBatch.random(size, 64, rng=9)

        def run(subdir, injected):
            engine = ShardedStreamingEngine(
                np.zeros(size),
                1.0,
                sharded_schedule(adaptive),
                num_shards=8,
                name="clicks",
                seed=3,
                workers=1,
                store=ReleaseStore(tmp_path / subdir),
                build_first_epoch=False,
            )
            with faults.session(injected) as injector:
                run_stream_epochs(engine, [np.array([])], tolerate=(FaultError,))
                run_stream_epochs(engine, deltas, tolerate=(FaultError,))
                fired = injector.injected("stream.epoch_build")
            return engine, fired

        clean, _ = run(f"clean-{chaos_seed}", {})
        chaotic, injected = run(
            f"chaos-{chaos_seed}",
            {"stream.epoch_build": FailWithProbability(0.4, seed=chaos_seed)},
        )
        assert [r.refreshed for r in chaotic.lineage.records] == [
            r.refreshed for r in clean.lineage.records
        ]
        assert chaotic.spent_epsilon == clean.spent_epsilon
        assert chaotic.lineage.spent_epsilon == clean.lineage.spent_epsilon
        result = chaotic.submit(batch)
        assert result.epoch == clean.epoch == EPOCHS
        assert np.array_equal(result.answers, clean.submit(batch).answers)
        if injected == 0:
            pytest.skip(f"seed {chaos_seed} injected nothing at p=0.4")


class TestStoreChaos:
    def test_transient_load_faults_heal_without_quarantine(self, tmp_path):
        """An injected load fault is weather, not damage: the retry heals
        it, nothing is quarantined, and the artifact survives."""
        store = ReleaseStore(tmp_path / "store", retry=FAST_RETRY)
        engine = make_stream(tmp_path)  # populates its own store
        key = engine.lineage.latest.key
        release = engine.cache.get(key)
        store.put(release)

        with faults.session({"store.load": FailFirst(1)}) as injector:
            loaded = store.get(key)
            assert injector.injected("store.load") == 1
        assert loaded is not None
        assert np.array_equal(loaded.unit_counts(), release.unit_counts())
        assert list((tmp_path / "store").rglob("*.corrupt")) == []

    def test_exhausted_load_retries_stay_loud_and_destroy_nothing(self, tmp_path):
        store = ReleaseStore(tmp_path / "s", retry=FAST_RETRY)
        engine = make_stream(tmp_path)
        key = engine.lineage.latest.key
        store.put(engine.cache.get(key))

        attempts = FAST_RETRY.max_attempts
        with faults.session({"store.load": FailFirst(attempts)}):
            with pytest.raises(ReleaseStoreError):
                store.get(key)
        # transient trouble must never quarantine: the artifact is intact
        assert key in store
        assert store.get(key) is not None


class TestDisabledInjectionIsFree:
    def test_zero_fault_layer_calls_and_bit_identical_answers(self, tmp_path):
        """The acceptance proof: with injection disabled, a full workload
        performs zero fault-layer calls and answers bit-identically."""
        reference = baseline_stream_run(tmp_path, 0)

        counting = FaultInjector()
        previous = faults.set_injector(counting)
        try:
            assert not faults.enabled()
            engine = make_stream(tmp_path, subdir="counted")
            run_stream_epochs(engine, stream_deltas(0))
            result = engine.submit(QueryBatch.random(DOMAIN, 64, rng=9))
        finally:
            faults.set_injector(previous)

        assert counting.invocations() == 0  # not one call into the layer
        assert engine.spent_epsilon == reference["spent"]
        assert np.array_equal(result.answers, reference["answers"])
