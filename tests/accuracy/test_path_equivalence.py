"""Accuracy-path equivalence suite.

The reported uncertainty is a function of the release identity
(estimator, ε, domain), never of the serving path that computed it:

* identity variances are *bit-identical* between the monolithic engine
  and the sharded engine at every shard count (the homogeneous additive
  composite collapses to the monolithic model — same ints summed, same
  single float multiply);
* for every estimator, the scored variances/CI bounds are invariant to
  the worker pool shape and to a warm restart from the release store.

Run standalone with ``pytest -m equivalence``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.slo import AccuracySLO
from repro.serving.engine import HistogramEngine
from repro.serving.planner import QueryBatch
from repro.serving.store import ReleaseStore
from repro.sharding.engine import ShardedHistogramEngine
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming.engine import StreamingHistogramEngine
from repro.streaming.policy import GeometricEpsilonSchedule

pytestmark = pytest.mark.equivalence

SHARD_COUNTS = [1, 2, 4, 7]
EPSILON = 0.5


@pytest.fixture(scope="module")
def counts() -> np.ndarray:
    return np.random.default_rng(20100910).poisson(4.0, size=512).astype(float)


@pytest.fixture(scope="module")
def batch(counts) -> QueryBatch:
    return QueryBatch.random(counts.size, 400, rng=29)


class TestShardCountInvariance:
    def test_identity_variances_bit_identical_across_shard_counts(
        self, counts, batch
    ):
        mono = HistogramEngine(counts, 1.0)
        ref = mono.submit(
            batch, "identity", epsilon=EPSILON, seed=7, with_accuracy=True
        )
        for num_shards in SHARD_COUNTS:
            sharded = ShardedHistogramEngine(counts, 1.0, num_shards=num_shards)
            got = sharded.submit(
                batch, "identity", epsilon=EPSILON, seed=7, with_accuracy=True
            )
            # Bit-identical, not approximately equal: the composite
            # collapses to the very same additive model.  The CI *bounds*
            # are centered on each path's own noisy answers, so only the
            # widths are comparable (up to centering round-off).
            assert np.array_equal(got.variances, ref.variances)
            assert got.ci_halfwidths == pytest.approx(
                ref.ci_halfwidths, rel=1e-9
            )
            assert got.confidence == ref.confidence

    def test_monolithic_equals_single_shard_for_every_estimator(
        self, counts, batch
    ):
        for estimator in ("identity", "hierarchical", "constrained", "wavelet"):
            mono = HistogramEngine(counts, 1.0)
            ref = mono.submit(
                batch, estimator, epsilon=EPSILON, seed=7, with_accuracy=True
            )
            sharded = ShardedHistogramEngine(counts, 1.0, num_shards=1)
            got = sharded.submit(
                batch, estimator, epsilon=EPSILON, seed=7, with_accuracy=True
            )
            assert np.array_equal(got.variances, ref.variances), estimator
            assert got.ci_halfwidths == pytest.approx(
                ref.ci_halfwidths, rel=1e-9
            ), estimator


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("estimator", ["identity", "constrained"])
    def test_variances_do_not_depend_on_the_pool(self, counts, batch, estimator):
        reference = None
        for workers in (1, 2, 4, 7):
            engine = ShardedHistogramEngine(
                counts, 1.0, num_shards=4, workers=workers
            )
            got = engine.submit(
                batch, estimator, epsilon=EPSILON, seed=7, with_accuracy=True
            )
            if reference is None:
                reference = got
                continue
            assert np.array_equal(got.variances, reference.variances)
            assert np.array_equal(got.ci_los, reference.ci_los)
            assert np.array_equal(got.ci_his, reference.ci_his)


class TestWarmRestartInvariance:
    def test_stream_scores_identically_after_restart(self, counts, tmp_path):
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        slo = AccuracySLO(target_ci_halfwidth=25.0, confidence=0.9)
        batch = QueryBatch.random(counts.size, 300, rng=5)

        def build():
            return StreamingHistogramEngine(
                counts,
                1.0,
                schedule,
                store=ReleaseStore(tmp_path / "store"),
                name="warm",
                seed=3,
                slo=slo,
            )

        engine = build()
        before = engine.submit(batch)
        restarted = build()
        after = restarted.submit(batch)
        assert np.array_equal(after.answers, before.answers)
        assert np.array_equal(after.variances, before.variances)
        assert np.array_equal(after.ci_los, before.ci_los)
        assert np.array_equal(after.ci_his, before.ci_his)
        assert after.confidence == before.confidence == 0.9

    def test_sharded_stream_scores_identically_after_restart(
        self, counts, tmp_path
    ):
        schedule = GeometricEpsilonSchedule(0.4, decay=0.5)
        slo = AccuracySLO(target_ci_halfwidth=25.0)
        batch = QueryBatch.random(counts.size, 300, rng=5)

        def build(data):
            return ShardedStreamingEngine(
                data,
                1.0,
                schedule,
                store=ReleaseStore(tmp_path / "store"),
                num_shards=4,
                name="warm",
                seed=3,
                slo=slo,
            )

        engine = build(counts)
        engine.ingest(np.full(30, 10))
        engine.advance_epoch()
        before = engine.submit(batch)

        current = counts.copy()
        current[10] += 30
        restarted = build(current)
        after = restarted.submit(batch)
        assert np.array_equal(after.answers, before.answers)
        assert np.array_equal(after.variances, before.variances)
        assert np.array_equal(after.ci_los, before.ci_los)
        assert np.array_equal(after.ci_his, before.ci_his)
