"""End-to-end tests for the epoch-based streaming engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.histogram import delta_counts
from repro.exceptions import PrivacyBudgetError, ReproError
from repro.privacy.audit import audit_spend_trail
from repro.serving import EngineFleet, HistogramEngine, QueryBatch, ReleaseStore
from repro.streaming import (
    FixedEpsilonSchedule,
    GeometricEpsilonSchedule,
    ManualRefreshPolicy,
    RowCountPolicy,
    StreamingHistogramEngine,
)


@pytest.fixture
def base_counts(rng) -> np.ndarray:
    counts = np.zeros(64)
    occupied = rng.choice(64, size=12, replace=False)
    counts[occupied] = rng.integers(1, 40, size=12)
    return counts


def _delta_batches(rng, batches: int, rows: int = 80) -> list[np.ndarray]:
    return [rng.integers(0, 64, size=rows) for _ in range(batches)]


class TestStreamingEndToEnd:
    def test_three_epochs_consistent_and_exactly_accounted(
        self, base_counts, rng, tmp_path
    ):
        """The acceptance flow: ingest across >= 3 epochs; every epoch's
        release is consistent with a deterministic rebuild over the same
        counts; total spent ε equals the schedule sum *exactly*."""
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = StreamingHistogramEngine(
            base_counts,
            total_epsilon=1.0,
            schedule=schedule,
            store=ReleaseStore(tmp_path / "store"),
            name="e2e",
            seed=11,
        )
        deltas = _delta_batches(rng, 3)
        counts = base_counts.copy()
        for delta in deltas:
            engine.ingest(delta)
            engine.advance_epoch()
            counts = counts + delta_counts(delta, 64)
        assert engine.epoch == 3
        assert len(engine.lineage) == 4  # epoch 0 plus three refreshes

        # exact ε accounting: budget == lineage == schedule, bit for bit
        assert engine.spent_epsilon == schedule.total_through(3)
        assert engine.lineage.spent_epsilon == schedule.total_through(3)
        audit_spend_trail(
            engine.budget,
            [schedule.epsilon_for(i) for i in range(4)],
            label_prefix="epoch",
        )

        # every epoch's release is consistent: nonnegative unit counts that
        # exactly reproduce a deterministic one-shot build over the same
        # counts, ε, and seed
        replay = base_counts.copy()
        for epoch, delta in enumerate([None, *deltas]):
            if delta is not None:
                replay = replay + delta_counts(delta, 64)
            release = engine.release_for_epoch(epoch)
            assert release.unit_counts().min() >= 0.0
            record = engine.lineage.records[epoch]
            assert record.total_rows == replay.sum()
            oneshot = HistogramEngine(replay, total_epsilon=10.0).materialize(
                "constrained", epsilon=record.epsilon, seed=11 + epoch
            )
            assert np.array_equal(release.unit_counts(), oneshot.unit_counts())

    def test_restart_warm_starts_with_zero_epsilon(self, base_counts, rng, tmp_path):
        store_dir = tmp_path / "store"
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="warm",
            seed=3,
        )
        for delta in _delta_batches(rng, 3):
            engine.ingest(delta)
            engine.advance_epoch()
        batch = QueryBatch.random(64, 500, rng=1)
        before = engine.submit(batch)

        restarted = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="warm",
            seed=3,
        )
        assert restarted.spent_epsilon == 0.0
        assert restarted.materializations == 0
        assert restarted.epoch == engine.epoch
        assert [r.key for r in restarted.lineage.records] == [
            r.key for r in engine.lineage.records
        ]
        after = restarted.submit(batch)
        assert np.array_equal(after.answers, before.answers)
        assert after.epoch == before.epoch

    def test_restart_resumes_the_schedule_where_it_left_off(
        self, base_counts, rng, tmp_path
    ):
        store_dir = tmp_path / "store"
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="resume",
        )
        delta = _delta_batches(rng, 1)[0]
        engine.ingest(delta)
        engine.advance_epoch()

        # the owner restarts with the *current* database: base plus the
        # rows the previous process released
        current = base_counts + delta_counts(delta, 64)
        restarted = StreamingHistogramEngine(
            current, 1.0, schedule, store=ReleaseStore(store_dir), name="resume",
        )
        restarted.ingest(_delta_batches(rng, 1)[0])
        record = restarted.advance_epoch()
        assert record.epoch == 2
        assert record.epsilon == schedule.epsilon_for(2)
        # only the new epoch charged this process's budget
        assert restarted.spent_epsilon == schedule.epsilon_for(2)

    def test_restart_with_stale_base_counts_refuses_to_build(
        self, base_counts, rng, tmp_path
    ):
        """Serving resumed epochs needs no counts, but *building* on the
        original base counts would silently drop every released row —
        the first post-resume build must reject the mismatch."""
        store_dir = tmp_path / "store"
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        engine = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="stale",
        )
        engine.ingest(_delta_batches(rng, 1)[0])
        engine.advance_epoch()

        restarted = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="stale",
        )
        # serving the resumed epoch is fine without counts...
        assert restarted.submit(QueryBatch.random(64, 10, rng=0)).epoch == 1
        # ...but building from the stale base is a silent data regression
        restarted.ingest(np.arange(10) % 64)
        with pytest.raises(ReproError, match="current"):
            restarted.advance_epoch()
        assert restarted.spent_epsilon == 0.0

    def test_lifetime_budget_enforced_across_restarts(self, base_counts, tmp_path):
        """A warm restart resets the *process* budget to zero but must not
        grant a fresh total: the lineage ledger enforces total_epsilon
        over the stream's whole lifetime."""
        store_dir = tmp_path / "store"
        schedule = FixedEpsilonSchedule(0.5)
        engine = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="cap",
        )
        engine.ingest(np.arange(20) % 64)
        engine.advance_epoch()  # epochs 0+1 exhaust the lifetime budget
        assert engine.spent_epsilon == 1.0

        restarted = StreamingHistogramEngine(
            base_counts, 1.0, schedule, store=ReleaseStore(store_dir), name="cap",
        )
        assert restarted.spent_epsilon == 0.0  # process budget is fresh...
        restarted.ingest(np.arange(50) % 64)
        with pytest.raises(PrivacyBudgetError):
            restarted.advance_epoch()  # ...but the lineage ledger is not
        assert restarted.spent_epsilon == 0.0
        assert restarted.pending_rows == 50  # nothing lost
        assert len(restarted.lineage) == 2

    def test_lineage_persist_failure_restores_rows(
        self, base_counts, monkeypatch
    ):
        from repro.exceptions import ReleaseStoreError

        engine = StreamingHistogramEngine(
            base_counts, 2.0, FixedEpsilonSchedule(0.1), name="lineage-fail",
        )
        engine.ingest(np.arange(70) % 64)

        def broken_append(record):
            raise ReleaseStoreError("disk full")

        monkeypatch.setattr(engine.lineage, "append", broken_append)
        with pytest.raises(ReleaseStoreError):
            engine.advance_epoch()
        # the epoch is unpublished and the rows rejoin the backlog for the
        # next successful epoch (the build's ε is charged — the artifact
        # exists — which is the documented orphan for this failure)
        assert engine.epoch == 0
        assert engine.pending_rows == 70
        assert len(engine.lineage) == 1

    def test_missing_artifact_on_restart_fails_loudly(
        self, base_counts, tmp_path
    ):
        store_dir = tmp_path / "store"
        engine = StreamingHistogramEngine(
            base_counts, 1.0, FixedEpsilonSchedule(0.1),
            store=ReleaseStore(store_dir), name="broken",
        )
        assert engine.epoch == 0
        # delete every artifact behind the manifest's back
        for artifact in (store_dir / "artifacts").glob("*.npz"):
            artifact.unlink()
        with pytest.raises(ReproError):
            StreamingHistogramEngine(
                base_counts, 1.0, FixedEpsilonSchedule(0.1),
                store=ReleaseStore(store_dir), name="broken",
            )


class TestRefreshBehaviour:
    def test_row_count_policy_auto_advances(self, base_counts):
        engine = StreamingHistogramEngine(
            base_counts, 2.0, FixedEpsilonSchedule(0.1),
            policy=RowCountPolicy(100), name="auto",
        )
        assert engine.epoch == 0
        engine.ingest(np.arange(64) % 64)  # 64 rows: below threshold
        assert engine.epoch == 0
        assert engine.pending_rows == 64
        engine.ingest(np.arange(40) % 64)  # crosses 100
        assert engine.epoch == 1
        assert engine.pending_rows == 0
        assert engine.lineage.records[1].rows_ingested == 104

    def test_manual_policy_requires_explicit_advance(self, base_counts):
        engine = StreamingHistogramEngine(
            base_counts, 2.0, FixedEpsilonSchedule(0.1),
            policy=ManualRefreshPolicy(), name="manual",
        )
        engine.ingest(np.arange(500) % 64)
        assert engine.epoch == 0
        engine.advance_epoch()
        assert engine.epoch == 1

    def test_background_advance_keeps_serving_and_publishes(self, base_counts):
        engine = StreamingHistogramEngine(
            base_counts, 2.0, FixedEpsilonSchedule(0.1), name="bg",
        )
        batch = QueryBatch.random(64, 100, rng=0)
        engine.ingest(np.arange(200) % 64)
        future = engine.advance_epoch_background()
        # serving keeps working regardless of where the build is
        assert engine.submit(batch).num_queries == 100
        record = future.result(timeout=30)
        assert record.epoch == 1
        assert engine.epoch == 1
        engine.close()

    def test_failed_build_restores_rows_and_charges_nothing(self, base_counts):
        schedule = FixedEpsilonSchedule(0.3)
        engine = StreamingHistogramEngine(
            base_counts, 0.5, schedule, name="fail",
        )
        assert engine.spent_epsilon == 0.3
        engine.ingest(np.arange(150) % 64)
        # epoch 1 would need another 0.3 but only 0.2 remains
        with pytest.raises(PrivacyBudgetError):
            engine.advance_epoch()
        assert engine.spent_epsilon == 0.3  # nothing leaked
        assert engine.epoch == 0
        assert engine.pending_rows == 150  # nothing lost
        assert len(engine.lineage) == 1

    def test_fractional_delta_below_one_row_still_reaches_the_epoch(
        self, base_counts
    ):
        """A pre-aggregated delta summing below one whole row truncates to
        rows == 0 but must still fold into the next epoch's counts."""
        engine = StreamingHistogramEngine(
            base_counts, 2.0, FixedEpsilonSchedule(0.1), name="fractional",
        )
        engine.ingest_counts(np.full(64, 0.01))  # 0.64 of a row in total
        assert engine.pending_rows == 0
        record = engine.advance_epoch()
        assert record.total_rows == pytest.approx(base_counts.sum() + 0.64)
        # the epoch saw different counts, so it is a distinct release
        assert record.key.dataset_fingerprint != (
            engine.lineage.records[0].key.dataset_fingerprint
        )

    def test_failed_auto_refresh_does_not_raise_out_of_ingest(self, base_counts):
        """The rows are already buffered when a policy-triggered build
        fails; raising would invite a double-ingest retry.  The error is
        recorded and re-raised by the next explicit advance."""
        engine = StreamingHistogramEngine(
            base_counts, 0.3, FixedEpsilonSchedule(0.3),
            policy=RowCountPolicy(10), name="poisoned",
        )
        assert engine.spent_epsilon == 0.3  # epoch 0 exhausted the budget
        rows = engine.ingest(np.arange(10) % 64)  # crosses the threshold
        assert rows == 10
        assert engine.pending_rows == 10  # buffered, not lost
        assert isinstance(engine.last_refresh_error, PrivacyBudgetError)
        with pytest.raises(PrivacyBudgetError):
            engine.advance_epoch()
        # further ingest keeps degrading gracefully to buffer-only
        engine.ingest(np.arange(10) % 64)
        assert engine.pending_rows == 20

    def test_no_epoch_yet_raises_on_submit(self, base_counts):
        engine = StreamingHistogramEngine(
            base_counts, 1.0, FixedEpsilonSchedule(0.1),
            name="cold", build_first_epoch=False,
        )
        with pytest.raises(ReproError):
            engine.submit(QueryBatch.random(64, 10, rng=0))

    def test_release_for_epoch_rejects_unknown_epochs(self, base_counts):
        engine = StreamingHistogramEngine(
            base_counts, 1.0, FixedEpsilonSchedule(0.1), name="bounds",
        )
        with pytest.raises(ReproError):
            engine.release_for_epoch(1)
        with pytest.raises(ReproError):
            engine.release_for_epoch(-1)


class TestFleetIntegration:
    def test_fleet_hosts_streams_alongside_engines(self, base_counts, tmp_path):
        fleet = EngineFleet(store=ReleaseStore(tmp_path / "store"))
        fleet.register("static", base_counts, total_epsilon=1.0)
        stream = fleet.register_stream(
            "live", base_counts, 1.0,
            schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
        )
        assert sorted(fleet.names()) == ["live", "static"]
        assert fleet.stream_names() == ["live"]
        assert "live" in fleet and len(fleet) == 2

        fleet.ingest("live", np.arange(100) % 64)
        record = fleet.advance_epoch("live")
        assert record.epoch == 1
        result = fleet.submit_stream("live", QueryBatch.random(64, 50, rng=0))
        assert result.epoch == 1

        stats = fleet.stats()
        assert stats.streams == 1
        assert stats.datasets == 2
        assert stats.epochs == 2
        assert [r.epoch for r in stats.stream_lineages["live"]] == [0, 1]
        assert stats.spent_epsilon == pytest.approx(stream.spent_epsilon)
        assert stats.queries == 50

    def test_duplicate_names_rejected_across_kinds(self, base_counts):
        fleet = EngineFleet()
        fleet.register_stream(
            "name", base_counts, 1.0, schedule=FixedEpsilonSchedule(0.1)
        )
        with pytest.raises(ReproError):
            fleet.register("name", base_counts, total_epsilon=1.0)
        with pytest.raises(ReproError):
            fleet.register_stream(
                "name", base_counts, 1.0, schedule=FixedEpsilonSchedule(0.1)
            )
        fleet.unregister("name")
        assert "name" not in fleet

    def test_unknown_stream_raises(self):
        fleet = EngineFleet()
        with pytest.raises(ReproError):
            fleet.stream("ghost")
        with pytest.raises(ReproError):
            fleet.ingest("ghost", [0])


class TestConstructionValidation:
    def test_requires_a_schedule_like_object(self, base_counts):
        with pytest.raises(ReproError):
            StreamingHistogramEngine(base_counts, 1.0, 0.5)

    def test_requires_a_name(self, base_counts):
        with pytest.raises(ReproError):
            StreamingHistogramEngine(
                base_counts, 1.0, FixedEpsilonSchedule(0.1), name=""
            )

    def test_cache_and_store_mutually_exclusive(self, base_counts, tmp_path):
        from repro.serving import ReleaseCache

        with pytest.raises(ReproError):
            StreamingHistogramEngine(
                base_counts, 1.0, FixedEpsilonSchedule(0.1),
                cache=ReleaseCache(4), store=ReleaseStore(tmp_path / "s"),
            )

    def test_relation_input_requires_attribute(self, paper_relation):
        with pytest.raises(ReproError):
            StreamingHistogramEngine(
                paper_relation, 1.0, FixedEpsilonSchedule(0.1)
            )
        engine = StreamingHistogramEngine(
            paper_relation, 1.0, FixedEpsilonSchedule(0.1), attribute="src",
            name="rel",
        )
        assert engine.domain_size == 8  # IPPrefixDomain(bits=3)
