"""Adaptive ε allocation: unit behaviour and the engine-level ε invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.accuracy.schedule import AdaptiveEpsilonAllocator
from repro.accuracy.slo import AccuracySLO, required_epsilon
from repro.exceptions import ReproError
from repro.faults import FailNth, FaultError
from repro.obs.ledger import EpsilonLedgerExporter
from repro.serving.planner import QueryBatch
from repro.serving.store import ReleaseStore
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming.policy import FixedEpsilonSchedule, GeometricEpsilonSchedule


def allocator(**kwargs):
    schedule = kwargs.pop("schedule", FixedEpsilonSchedule(0.5))
    return AdaptiveEpsilonAllocator(schedule, **kwargs)


def step(alloc, epoch, shard_rows, **kwargs):
    """Allocate one epoch and commit it, as a published epoch does."""
    allocation = alloc.allocate(epoch, shard_rows, **kwargs)
    alloc.commit(allocation)
    return allocation.grants


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot_fraction": 0.0},
            {"hot_fraction": 1.5},
            {"smoothing": 0.0},
            {"smoothing": 1.0001},
            {"min_refresh_rows": 0},
            {"slo": AccuracySLO(5.0)},  # missing slo_domain_size
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ReproError):
            allocator(**kwargs)

    def test_rejects_bad_shard_rows(self):
        alloc = allocator()
        with pytest.raises(ReproError):
            alloc.allocate(0, np.empty(0))
        with pytest.raises(ReproError):
            alloc.allocate(0, np.ones((2, 2)))


class TestScheduleSurface:
    def test_delegates_to_the_wrapped_envelope(self):
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        alloc = allocator(schedule=schedule)
        for epoch in range(4):
            assert alloc.epsilon_for(epoch) == schedule.epsilon_for(epoch)
            assert alloc.total_through(epoch) == schedule.total_through(epoch)

    def test_capability_marker(self):
        assert allocator().allocates_per_shard is True
        assert not getattr(
            FixedEpsilonSchedule(0.5), "allocates_per_shard", False
        )


class TestAllocation:
    def test_bootstrap_grants_the_envelope_everywhere(self):
        alloc = allocator()
        grants = step(alloc, 0, [0, 0, 0, 0], bootstrap=True)
        assert np.array_equal(grants, np.full(4, 0.5))

    def test_grants_are_zero_or_the_envelope(self):
        alloc = allocator(
            schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
            hot_fraction=0.5,
        )
        step(alloc, 0, [1, 1, 1, 1], bootstrap=True)
        grants = step(alloc, 1, [9, 2, 0, 7])
        envelope = alloc.epsilon_for(1)
        assert set(np.unique(grants)) <= {0.0, envelope}
        assert np.max(grants) == envelope  # someone always gets the full ε

    def test_hottest_shards_win_and_ties_break_by_index(self):
        alloc = allocator(hot_fraction=0.5, smoothing=1.0)
        step(alloc, 0, [0, 0, 0, 0], bootstrap=True)
        grants = step(alloc, 1, [3, 9, 3, 9])
        assert grants.tolist() == [0.0, 0.5, 0.0, 0.5]
        # Budget of one with a 2-way tie at EMA 3: lowest index wins.
        tied = allocator(hot_fraction=0.25, smoothing=1.0)
        step(tied, 0, [0, 0, 0, 0], bootstrap=True)
        grants = step(tied, 1, [3, 1, 3, 0])
        assert grants.tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_ema_tracks_the_declared_smoothing(self):
        alloc = allocator(smoothing=0.25)
        step(alloc, 0, [8.0, 0.0], bootstrap=True)  # EMA init = rows
        step(alloc, 1, [0.0, 4.0])
        assert alloc.arrival_ema == pytest.approx([6.0, 1.0])

    def test_sub_threshold_shards_are_never_granted(self):
        alloc = allocator(min_refresh_rows=10, hot_fraction=1.0)
        step(alloc, 0, [0, 0, 0], bootstrap=True)
        grants = step(alloc, 1, [9, 12, 3])
        assert grants.tolist() == [0.0, 0.5, 0.0]

    def test_no_eligible_shard_means_no_grants(self):
        alloc = allocator(min_refresh_rows=5)
        step(alloc, 0, [0, 0], bootstrap=True)
        assert not np.any(step(alloc, 1, [4, 4]))

    def test_slo_starved_shards_jump_the_ranking(self):
        slo = AccuracySLO(target_ci_halfwidth=20.0)
        need = required_epsilon(slo, estimator="L~", domain_size=16)
        assert need <= 0.5  # the envelope can satisfy the SLO
        alloc = allocator(
            hot_fraction=0.25,
            smoothing=1.0,
            slo=slo,
            slo_domain_size=16,
        )
        # Every shard starts starved (never granted): EMA decides, the
        # hottest shard 0 wins and is no longer starved afterwards.
        assert step(alloc, 0, [10, 1, 1, 1]).tolist() == [0.5, 0, 0, 0]
        # Shard 0 is still hottest, but the still-starved shard 1 now
        # outranks it; without the SLO the hot shard would repeat.
        assert step(alloc, 1, [10, 1, 1, 1]).tolist() == [0, 0.5, 0, 0]
        plain = allocator(hot_fraction=0.25, smoothing=1.0)
        step(plain, 0, [10, 1, 1, 1])
        assert step(plain, 1, [10, 1, 1, 1]).tolist() == [0.5, 0, 0, 0]

    def test_resize_reinitializes_the_steering_state(self):
        alloc = allocator()
        step(alloc, 0, [1, 2], bootstrap=True)
        grants = step(alloc, 1, [1, 2, 3])
        assert grants.size == 3
        assert alloc.arrival_ema == pytest.approx([1.0, 2.0, 3.0])


@pytest.fixture
def counts(rng) -> np.ndarray:
    return rng.poisson(5.0, size=200).astype(float)


def sharded_engine(counts, schedule, tmp_path=None, **kwargs):
    store = ReleaseStore(tmp_path / "store") if tmp_path is not None else None
    defaults = dict(num_shards=4, name="clicks", seed=3)
    defaults.update(kwargs)
    return ShardedStreamingEngine(counts, 1.0, schedule, store=store, **defaults)


class TestEngineIntegration:
    def test_adaptive_refreshes_only_the_hot_set(self, counts):
        alloc = allocator(
            schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
            hot_fraction=0.25,
        )
        engine = sharded_engine(counts, alloc)
        assert engine.lineage.latest.refreshed == (0, 1, 2, 3)  # bootstrap
        engine.ingest(np.concatenate([np.full(30, 10), np.full(5, 199)]))
        record = engine.advance_epoch()
        assert record.refreshed == (0,)  # budget of 1, shard 0 is hottest
        assert record.epsilon == 0.2  # the envelope, not a partial grant
        assert engine.pending_rows == 5  # shard 3's backlog rides along

    def test_sigma_epsilon_is_bit_identical_to_uniform(self, counts):
        envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
        adaptive = sharded_engine(
            counts.copy(), allocator(schedule=envelope, hot_fraction=0.25)
        )
        uniform = sharded_engine(counts.copy(), envelope)
        for _ in range(3):
            arrivals = np.concatenate([np.full(30, 10), np.full(20, 150)])
            adaptive.ingest(arrivals)
            uniform.ingest(arrivals)
            adaptive.advance_epoch()
            uniform.advance_epoch()
        # Same epochs charged, same envelopes: lifetime Σε is bit-exact
        # equal even though the refresh sets differ every epoch.
        assert adaptive.spent_epsilon == uniform.spent_epsilon
        assert adaptive.lineage.spent_epsilon == uniform.lineage.spent_epsilon
        assert [s.epsilon for s in adaptive.budget.history] == [
            s.epsilon for s in uniform.budget.history
        ]

    def test_ledger_audit_passes_under_adaptive_schedules(self, counts):
        alloc = allocator(schedule=GeometricEpsilonSchedule(0.4, decay=0.5))
        engine = sharded_engine(counts, alloc)
        engine.ingest(np.full(30, 10))
        engine.advance_epoch()
        report = EpsilonLedgerExporter().stream_report(engine)
        assert "lineage-tail" in report["checks"]
        assert report["lifetime_spent_epsilon"] == engine.spent_epsilon
        assert [entry["epsilon"] for entry in report["epochs"]] == [0.4, 0.2]

    def test_nothing_eligible_is_a_free_no_op(self, counts):
        alloc = allocator(
            schedule=FixedEpsilonSchedule(0.1), min_refresh_rows=50
        )
        engine = sharded_engine(counts, alloc)
        engine.ingest(np.full(10, 0))
        assert engine.advance_epoch() is None
        assert engine.spent_epsilon == 0.1  # bootstrap only
        assert engine.pending_rows == 10

    def test_warm_restart_resumes_an_adaptive_lineage(self, counts, tmp_path):
        envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = sharded_engine(
            counts, allocator(schedule=envelope, hot_fraction=0.25), tmp_path
        )
        engine.ingest(np.full(30, 10))
        engine.advance_epoch()
        batch = QueryBatch.random(counts.size, 500, rng=1)
        before = engine.submit(batch)

        current = counts.copy()
        current[10] += 30
        resumed = sharded_engine(
            current,
            allocator(schedule=envelope, hot_fraction=0.25),
            tmp_path,
        )
        assert resumed.epoch == 1
        assert resumed.spent_epsilon == 0.0  # nothing re-charged
        after = resumed.submit(batch)
        assert np.array_equal(after.answers, before.answers)

    def test_resume_still_rejects_a_mismatched_envelope(self, counts, tmp_path):
        envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
        sharded_engine(counts, allocator(schedule=envelope), tmp_path)
        with pytest.raises(ReproError, match="schedule"):
            sharded_engine(
                counts,
                allocator(schedule=FixedEpsilonSchedule(0.3)),
                tmp_path,
            )

    def test_plain_resume_accepts_an_adaptive_lineage(self, counts, tmp_path):
        # Grants are always the full envelope, so a non-adaptive resume
        # against an adaptively written lineage sees exactly the ε its
        # own schedule predicts.
        envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = sharded_engine(
            counts, allocator(schedule=envelope, hot_fraction=0.25), tmp_path
        )
        engine.ingest(np.full(30, 10))
        engine.advance_epoch()
        current = counts.copy()
        current[10] += 30
        resumed = sharded_engine(current, envelope, tmp_path)
        assert resumed.epoch == 1


class TestRetriedEpochs:
    """Steering state moves only when an epoch is published."""

    DOMAIN = 1 << 12
    SHARDS = 16
    EPOCHS = 8

    def arrivals(self):
        rng = np.random.default_rng(20100919)
        width = self.DOMAIN // self.SHARDS
        for epoch in range(1, self.EPOCHS):
            # A hot region that drifts right, over a uniform trickle.
            hot = rng.integers(0, 6 * width, size=400) + epoch * width
            trickle = rng.integers(0, self.DOMAIN, size=200)
            yield np.concatenate([hot % self.DOMAIN, trickle])

    def run(self, injected):
        engine = ShardedStreamingEngine(
            np.zeros(self.DOMAIN),
            1.0,
            allocator(
                schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
                hot_fraction=0.25,
            ),
            num_shards=self.SHARDS,
            name="retried",
            seed=3,
        )
        with faults.session(injected):
            for rows in self.arrivals():
                engine.ingest(rows)
                try:
                    engine.advance_epoch()
                except FaultError:
                    engine.advance_epoch()  # the retry re-covers the rows
        return engine

    def test_allocate_proposes_without_moving_state(self):
        alloc = allocator(smoothing=0.5)
        step(alloc, 0, [4.0, 0.0], bootstrap=True)
        first = alloc.allocate(1, [0.0, 8.0])
        again = alloc.allocate(1, [0.0, 8.0])
        assert alloc.arrival_ema == pytest.approx([4.0, 0.0])
        assert np.array_equal(first.grants, again.grants)
        assert np.array_equal(first.arrival_ema, again.arrival_ema)
        alloc.commit(first)
        assert alloc.arrival_ema == pytest.approx([2.0, 4.0])

    def test_a_retried_epoch_refreshes_like_a_fault_free_run(self):
        clean = self.run({})
        # Epoch 0 is the first build, so the 4th build attempt is epoch 3.
        retried = self.run({"stream.epoch_build": FailNth(4)})
        refreshed = [record.refreshed for record in clean.lineage.records]
        assert len(refreshed) == self.EPOCHS
        assert [r.refreshed for r in retried.lineage.records] == refreshed
        assert np.array_equal(
            retried.schedule.arrival_ema, clean.schedule.arrival_ema
        )
        assert retried.lineage.spent_epsilon == clean.lineage.spent_epsilon

    def test_an_empty_epoch_leaves_the_steering_state(self, counts):
        alloc = allocator(
            schedule=FixedEpsilonSchedule(0.1), min_refresh_rows=50
        )
        engine = sharded_engine(counts, alloc)
        before = alloc.arrival_ema
        engine.ingest(np.full(10, 0))
        assert engine.advance_epoch() is None
        assert np.array_equal(alloc.arrival_ema, before)
