"""Worker-pool equivalence suite: parallelism changes cost, never bits.

The sharded engine's releases must be bit-identical — leaves, routed
answers, and charged Σε — at every worker count, with observability
enabled (per-shard counters sum correctly whatever thread ran the
build) and under a seeded ``shard.build`` fault storm healed by retry
(the chaos harness extended to the thread pool).

Run standalone with ``pytest -m equivalence``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults, obs
from repro.faults.injector import FailWithProbability
from repro.faults.retry import RetryPolicy
from repro.serving.planner import QueryBatch
from repro.sharding.engine import ShardedHistogramEngine
from repro.sharding.router import ShardRouter
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming.policy import GeometricEpsilonSchedule

pytestmark = pytest.mark.equivalence

NUM_SHARDS = 8
EPSILON = 0.1
WORKER_COUNTS = [1, 2, 4, 7]


@pytest.fixture(scope="module")
def counts() -> np.ndarray:
    return np.random.default_rng(20100907).poisson(4.0, size=2048).astype(float)


@pytest.fixture(scope="module")
def batch(counts) -> QueryBatch:
    return QueryBatch.random(counts.size, 500, rng=23)


@pytest.fixture(scope="module")
def baseline(counts, batch):
    """The single-worker reference: leaves, routed answers, Σε."""
    engine = ShardedHistogramEngine(
        counts, 1.0, num_shards=NUM_SHARDS, workers=1
    )
    release = engine.materialize("constrained", epsilon=EPSILON, seed=7)
    answers = ShardRouter().answer(release, batch)
    return {
        "leaves": release.unit_counts(),
        "answers": answers,
        "epsilon": engine.spent_epsilon,
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_release_bit_identical_across_pool_shapes(
    counts, batch, baseline, workers
):
    engine = ShardedHistogramEngine(
        counts, 1.0, num_shards=NUM_SHARDS, workers=workers
    )
    release = engine.materialize("constrained", epsilon=EPSILON, seed=7)
    assert np.array_equal(release.unit_counts(), baseline["leaves"])
    assert np.array_equal(
        ShardRouter().answer(release, batch), baseline["answers"]
    )
    # Σε: one charge, bit-exactly the single-worker (and monolithic) value.
    assert engine.spent_epsilon == baseline["epsilon"] == EPSILON
    assert len(engine.budget.history) == 1


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_obs_counters_sum_correctly_at_every_worker_count(
    counts, batch, baseline, workers
):
    """Every build reports from the thread that ran it: at any worker
    count the shard-build counter totals exactly the shard count, the
    latency histogram holds one observation per shard, there is one
    ``shard.build`` span per shard, and enabling obs never perturbs a
    bit of the answers."""
    with obs.session() as (registry, tracer):
        engine = ShardedHistogramEngine(
            counts, 1.0, num_shards=NUM_SHARDS, workers=workers
        )
        release = engine.materialize("constrained", epsilon=EPSILON, seed=7)
        answers = engine.submit(batch, "constrained", epsilon=EPSILON, seed=7)
        builds = registry.counter(
            "repro_shard_builds_total", "Individual shard releases built"
        )
        build_seconds = registry.histogram(
            "repro_shard_build_seconds", "Per-shard release build latency"
        )
        assert builds.value() == NUM_SHARDS
        assert build_seconds.count() == NUM_SHARDS
        assert build_seconds.sum() > 0.0
        assert len(tracer.events("shard.build")) == NUM_SHARDS
    assert np.array_equal(release.unit_counts(), baseline["leaves"])
    assert np.array_equal(answers.answers, baseline["answers"])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fault_storm_heals_to_bit_exact_release_at_every_worker_count(
    counts, baseline, workers
):
    """A seeded ``shard.build`` storm healed by retry leaves the release
    bit-identical to the clean run at every worker count, with the same
    deterministic fault-invocation sequence — the checks run on the
    calling thread in shard order before any dispatch, so schedules can
    never be consumed out of order by pool scheduling."""
    retry = RetryPolicy(max_attempts=8, base_delay=0.0, jitter=0.0)
    with faults.session(
        {"shard.build": FailWithProbability(0.35, seed=5)}
    ) as injector:
        engine = ShardedHistogramEngine(
            counts,
            1.0,
            num_shards=NUM_SHARDS,
            workers=workers,
            retry=retry,
        )
        release = engine.materialize("constrained", epsilon=EPSILON, seed=7)
        invocations = injector.invocations("shard.build")
        injected = injector.injected("shard.build")
    assert np.array_equal(release.unit_counts(), baseline["leaves"])
    assert engine.spent_epsilon == EPSILON
    # FailWithProbability(p, seed) consumes one rng draw per invocation,
    # so equal invocation counts across worker counts mean the storm
    # replayed identically wherever the kernels ran.
    assert invocations == NUM_SHARDS + injected


def test_streaming_epochs_bit_identical_across_worker_counts(counts):
    """Per-shard epoch refresh on a wide pool equals the single-worker
    run: same epoch releases, same lineage Σε, bit for bit."""
    batch = QueryBatch.random(counts.size, 200, rng=31)

    def run(workers):
        engine = ShardedStreamingEngine(
            counts.copy(),
            1.0,
            GeometricEpsilonSchedule(0.4, decay=0.5),
            num_shards=NUM_SHARDS,
            name="sweep",
            seed=3,
            workers=workers,
        )
        first = engine.submit(batch)
        engine.ingest(np.full(64, 5))
        engine.advance_epoch()
        second = engine.submit(batch)
        return first, second, engine.spent_epsilon

    ref_first, ref_second, ref_epsilon = run(1)
    for workers in WORKER_COUNTS[1:]:
        got_first, got_second, got_epsilon = run(workers)
        assert np.array_equal(got_first.answers, ref_first.answers)
        assert np.array_equal(got_second.answers, ref_second.answers)
        assert got_second.epoch == ref_second.epoch == 1
        # Bit-exact across worker counts (and equal to the schedule's own sum —
        # ε₀ + ε₀·decay — spelled as floats compose, not a decimal).
        assert got_epsilon == ref_epsilon == 0.4 + 0.4 * 0.5
