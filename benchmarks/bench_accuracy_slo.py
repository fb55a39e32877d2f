"""Adaptive vs uniform ε on a hot-set-drift stream, at equal total budget.

The experiment the accuracy control plane exists for: a sharded stream
under a *decaying* ε schedule faces drifting heavy-tailed arrivals.  The
uniform policy rebuilds every shard the trickle touches, so cold shards'
accurate early-ε releases keep getting replaced by noisy late-ε ones.
The :class:`~repro.accuracy.schedule.AdaptiveEpsilonAllocator` spends
the *same* per-epoch envelope on the hot set only — cold shards keep
serving their accurate history — so at a bit-identical lifetime Σε the
served answers track the true counts better.

Reports mean absolute error against the true (noiseless) database, the
reported CI halfwidths, and the per-tenant SLO satisfaction for both
policies, and asserts the adaptive policy wins at equal charged budget.

Two more cases ride along:

* ``scoring_cost`` — what per-answer H̄ error bars cost at realistic
  widths (2¹⁶ and 2²⁰ leaves): a 2,000-range batch answered unscored and
  scored, as medians over alternating repeats, plus the model call
  alone; the 2¹⁶ variances are checked against the dense-adjoint oracle.
  No timing is gated.  A 2¹⁷-range batch at 2¹⁶ leaves records the
  model's time and traced peak memory, which stay flat in the batch
  size because the model scores ranges in fixed slices.
* ``sparse_coverage`` — the empirical 95% CI coverage of H̄ *as served*
  (Section 4.2 non-negativity and integer rounding on) on a sparse
  Poisson(0.5) histogram at ε ∈ {0.1, 1}, through the batched ``trials``
  axis, beside the unrounded release the variance model describes.

Emits ``results/BENCH_accuracy_slo.json`` via the shared ``report_json``
envelope; every case rewrites the file with all the sections recorded
so far, so a full run of this module leaves them all.  Smoke-scale
overrides for the policy run: ``REPRO_ACCURACY_BENCH_EPOCHS``,
``REPRO_ACCURACY_BENCH_ROWS``, ``REPRO_ACCURACY_BENCH_QUERIES``.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import pytest

from repro.accuracy import (
    AccuracySLO,
    AdaptiveEpsilonAllocator,
    uncertainty_model_for,
)
from repro.data.synthetic import arrival_stream
from repro.db.histogram import delta_counts
from repro.estimators.hierarchical import ConstrainedHierarchicalEstimator
from repro.obs.ledger import EpsilonLedgerExporter
from repro.serving import HistogramEngine, QueryBatch
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming import GeometricEpsilonSchedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "accuracy"))
from dense_adjoint_oracle import dense_adjoint_variances  # noqa: E402

EPOCHS = int(os.environ.get("REPRO_ACCURACY_BENCH_EPOCHS", "6"))
ROWS_PER_EPOCH = int(os.environ.get("REPRO_ACCURACY_BENCH_ROWS", "20000"))
NUM_QUERIES = int(os.environ.get("REPRO_ACCURACY_BENCH_QUERIES", "2000"))
REPEATS = 7
TRIALS = 1000
DOMAIN = 1024
NUM_SHARDS = 16
SEED = 7
TARGET_HALFWIDTH = 120.0
SCORING_WIDTHS = (1 << 16, 1 << 20)
SCORING_RANGES = 2000
SCORING_EPSILON = 0.5
#: ranges of the 2¹⁶ batch checked against the O(n)-per-range oracle
ORACLE_RANGES = 200
LARGE_BATCH_WIDTH = 1 << 16
LARGE_BATCH_RANGES = 1 << 17
SPARSE_DOMAIN = 1024
SPARSE_MEAN = 0.5
SPARSE_EPSILONS = (0.1, 1.0)
SPARSE_RANGES = 400

#: every section recorded so far; each case rewrites the whole report
REPORT: dict = {"benchmark": "accuracy_slo"}


@pytest.fixture(scope="module")
def base_counts():
    rng = np.random.default_rng(0)
    return rng.poisson(20.0, size=DOMAIN).astype(np.float64)


def build_engine(base_counts, schedule, name):
    return ShardedStreamingEngine(
        base_counts.copy(),
        GeometricEpsilonSchedule(0.4, decay=0.5).infinite_total,
        schedule,
        num_shards=NUM_SHARDS,
        name=name,
        seed=SEED,
        estimator="identity",
        slo=AccuracySLO(target_ci_halfwidth=TARGET_HALFWIDTH),
    )


def scorecard(engine, batch, truth_answers):
    result = engine.submit(batch)
    errors = np.abs(result.answers - truth_answers)
    snapshot = engine.accuracy.snapshot()
    return {
        "mae": round(float(errors.mean()), 3),
        "p95_abs_error": round(float(np.quantile(errors, 0.95)), 3),
        "mean_ci_halfwidth": round(float(result.ci_halfwidths.mean()), 3),
        "slo_satisfaction": round(snapshot.satisfaction, 4),
    }


def test_adaptive_beats_uniform_at_equal_total_epsilon(
    base_counts, report, report_json
):
    envelope = GeometricEpsilonSchedule(0.4, decay=0.5)
    uniform = build_engine(base_counts, envelope, "uniform")
    adaptive = build_engine(
        base_counts,
        AdaptiveEpsilonAllocator(
            GeometricEpsilonSchedule(0.4, decay=0.5), hot_fraction=0.25
        ),
        "adaptive",
    )

    truth = base_counts.copy()
    arrivals = arrival_stream(
        DOMAIN,
        ROWS_PER_EPOCH,
        batches=EPOCHS,
        hot_fraction=0.05,
        hot_weight=0.8,
        drift=0.15,
        rng=SEED,
    )
    for indexes in arrivals:
        truth += delta_counts(indexes, DOMAIN)
        for engine in (uniform, adaptive):
            engine.ingest(indexes)
            engine.advance_epoch()

    # The non-negotiable invariant: the adaptive policy charged exactly
    # the same lifetime ε, bit for bit, and both ledgers audit clean.
    assert adaptive.spent_epsilon == uniform.spent_epsilon
    assert adaptive.lineage.spent_epsilon == uniform.lineage.spent_epsilon
    ledger = EpsilonLedgerExporter()
    for engine in (uniform, adaptive):
        assert "lineage-tail" in ledger.stream_report(engine)["checks"]

    batch = QueryBatch.random(DOMAIN, NUM_QUERIES, rng=3)
    prefix = np.concatenate([[0.0], np.cumsum(truth)])
    truth_answers = prefix[batch.his + 1] - prefix[batch.los]
    cards = {
        "uniform": scorecard(uniform, batch, truth_answers),
        "adaptive": scorecard(adaptive, batch, truth_answers),
    }

    rows = [{"policy": name, **card} for name, card in cards.items()]
    report(
        "accuracy_slo",
        rows,
        title=(
            f"Adaptive vs uniform ε: {NUM_SHARDS} shards, {EPOCHS} epochs of "
            f"hot-set drift at equal Σε={uniform.spent_epsilon:g}"
        ),
    )
    REPORT.update(
        {
            "epochs": EPOCHS,
            "rows_per_epoch": ROWS_PER_EPOCH,
            "num_queries": NUM_QUERIES,
            "num_shards": NUM_SHARDS,
            "domain_size": DOMAIN,
            "target_ci_halfwidth": TARGET_HALFWIDTH,
            "spent_epsilon": uniform.spent_epsilon,
            "spent_epsilon_bit_equal": adaptive.spent_epsilon
            == uniform.spent_epsilon,
            "policies": cards,
            "mae_improvement": round(
                cards["uniform"]["mae"] / cards["adaptive"]["mae"], 3
            )
            if cards["adaptive"]["mae"]
            else None,
        }
    )
    report_json("accuracy_slo", REPORT)

    # The headline claim.  Tiny smoke runs (<3 epochs) barely decay the
    # schedule, so the policies converge there; the win is asserted at
    # experiment scale.
    if EPOCHS >= 3:
        assert cards["adaptive"]["mae"] <= cards["uniform"]["mae"], (
            f"adaptive ε lost to uniform at equal budget: {cards}"
        )


def median_ms(timings) -> float:
    return round(1e3 * median(timings), 4)


def test_scoring_cost_at_realistic_widths(report, report_json):
    """Scored vs unscored answers for one 2,000-range batch per width."""
    rows = []
    for width in SCORING_WIDTHS:
        counts = np.random.default_rng(width).poisson(20.0, size=width)
        engine = HistogramEngine(counts.astype(np.float64), 1.0)
        batch = QueryBatch.random(width, SCORING_RANGES, rng=11)

        def submit(scored):
            return engine.submit(
                batch, epsilon=SCORING_EPSILON, seed=SEED, with_accuracy=scored
            )

        submit(True)  # builds the release and the model outside the clock
        model = engine.uncertainty_model("H_bar", SCORING_EPSILON, 2)
        timings = {"unscored": [], "scored": [], "model": []}
        for repeat in range(REPEATS):
            # Alternate the order so drift in host speed hits both sides.
            for scored in (False, True) if repeat % 2 else (True, False):
                start = perf_counter()
                submit(scored)
                timings["scored" if scored else "unscored"].append(
                    perf_counter() - start
                )
            start = perf_counter()
            model.range_variances(batch.los, batch.his)
            timings["model"].append(perf_counter() - start)
        row = {
            "width": width,
            "ranges": SCORING_RANGES,
            "repeats": REPEATS,
            "unscored_ms": median_ms(timings["unscored"]),
            "scored_ms": median_ms(timings["scored"]),
            "model_ms": median_ms(timings["model"]),
            "oracle_max_rel_error": None,
        }
        row["scored_over_unscored"] = round(
            row["scored_ms"] / row["unscored_ms"], 2
        )
        if width == 1 << 16:
            los = batch.los[:ORACLE_RANGES]
            his = batch.his[:ORACLE_RANGES]
            want = dense_adjoint_variances(model, los, his)
            got = model.range_variances(los, his)
            row["oracle_max_rel_error"] = float(np.max(np.abs(got - want) / want))
            assert row["oracle_max_rel_error"] <= 1e-11, row
        rows.append(row)
    report(
        "accuracy_slo_scoring_cost",
        rows,
        title=f"H̄ scoring cost, {SCORING_RANGES}-range batch (medians, ms)",
    )
    REPORT["scoring_cost"] = rows
    report_json("accuracy_slo", REPORT)


def test_scoring_memory_on_a_large_batch(report, report_json):
    """Model time and traced peak memory for one 2¹⁷-range batch."""
    model = uncertainty_model_for(
        "H_bar", domain_size=LARGE_BATCH_WIDTH, epsilon=SCORING_EPSILON
    )
    batch = QueryBatch.random(LARGE_BATCH_WIDTH, LARGE_BATCH_RANGES, rng=13)
    timings = []
    for _ in range(REPEATS):
        start = perf_counter()
        model.range_variances(batch.los, batch.his)
        timings.append(perf_counter() - start)
    peaks = {}
    for name, count in (("small", SCORING_RANGES), ("large", LARGE_BATCH_RANGES)):
        tracemalloc.start()
        model.range_variances(batch.los[:count], batch.his[:count])
        peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
    row = {
        "width": LARGE_BATCH_WIDTH,
        "ranges": LARGE_BATCH_RANGES,
        "repeats": REPEATS,
        "model_ms": median_ms(timings),
        "model_us_per_range": round(1e6 * median(timings) / LARGE_BATCH_RANGES, 3),
        "peak_mb": peaks["large"],
        f"peak_mb_at_{SCORING_RANGES}_ranges": peaks["small"],
    }
    report(
        "accuracy_slo_scoring_memory",
        [row],
        title=f"H̄ model on {LARGE_BATCH_RANGES} ranges (median ms, traced peak MB)",
    )
    REPORT["scoring_large_batch"] = row
    report_json("accuracy_slo", REPORT)


def test_sparse_data_coverage(report, report_json):
    """95% CI coverage of H̄ as served on a sparse histogram."""
    rng = np.random.default_rng(20100905)
    counts = rng.poisson(SPARSE_MEAN, size=SPARSE_DOMAIN).astype(np.float64)
    starts = rng.integers(0, SPARSE_DOMAIN, size=SPARSE_RANGES)
    ends = rng.integers(0, SPARSE_DOMAIN, size=SPARSE_RANGES)
    los, his = np.minimum(starts, ends), np.maximum(starts, ends)
    prefix = np.concatenate([[0.0], np.cumsum(counts)])
    truth = prefix[his + 1] - prefix[los]
    short = his - los + 1 <= 16
    # The defaults are what compute_release_leaves serves for H̄: the
    # Section 4.2 non-negative inference, then rounding.
    releases = {
        "served": ConstrainedHierarchicalEstimator(),
        "unrounded": ConstrainedHierarchicalEstimator(
            nonnegative=False, round_output=False
        ),
    }
    rows = []
    for epsilon in SPARSE_EPSILONS:
        model = uncertainty_model_for(
            "H_bar", domain_size=SPARSE_DOMAIN, epsilon=epsilon
        )
        halfwidths = model.interval_halfwidths(los, his, 0.95)
        for name, estimator in releases.items():
            estimates = estimator.fit_many(
                counts, epsilon, TRIALS, rng=SEED
            ).unit_estimates
            est_prefix = np.concatenate(
                [np.zeros((TRIALS, 1)), np.cumsum(estimates, axis=1)], axis=1
            )
            errors = est_prefix[:, his + 1] - est_prefix[:, los] - truth
            covered = np.abs(errors) <= halfwidths
            rows.append(
                {
                    "epsilon": epsilon,
                    "release": name,
                    "trials": TRIALS,
                    "coverage": round(float(covered.mean()), 4),
                    "coverage_short": round(float(covered[:, short].mean()), 4),
                    "coverage_long": round(float(covered[:, ~short].mean()), 4),
                    "mean_error": round(float(errors.mean()), 3),
                    "mean_ci_halfwidth": round(float(halfwidths.mean()), 3),
                }
            )
    report(
        "accuracy_slo_sparse_coverage",
        rows,
        title=(
            f"H̄ 95% CI coverage on Poisson({SPARSE_MEAN}) counts, "
            f"{SPARSE_DOMAIN} leaves, {SPARSE_RANGES} ranges"
        ),
    )
    REPORT["sparse_coverage"] = {
        "domain_size": SPARSE_DOMAIN,
        "poisson_mean": SPARSE_MEAN,
        "confidence": 0.95,
        "ranges": SPARSE_RANGES,
        "short_range_max_length": 16,
        "rows": rows,
    }
    report_json("accuracy_slo", REPORT)
