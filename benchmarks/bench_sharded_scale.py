"""Sharded vs monolithic at massive domain sizes, across the worker sweep.

The sharded engine's pitch, measured:

1. **Build wall-clock** — a monolithic H̄ build at n = 2²⁰–2²³ streams a
   multi-hundred-MB working set through DRAM on every inference pass; a
   sharded build works shard-at-a-time on cache-resident trees, so the
   *sharded build must beat the monolithic build* at every measured
   size even single-worker.
2. **The worker sweep** — every size is rebuilt at each worker count in
   ``REPRO_SHARD_BENCH_WORKERS`` (default ``1,2,4`` plus the effective
   core count) on the shard-build thread pool, and the JSON records the
   build time and speedup of every point.
3. **Serving throughput** — the shard router must sustain ≥ 100k
   queries/s on a 100k-query batch (it sustains millions; the
   bar is the acceptance floor, the JSON records the real rate).
4. **Exactness** — at *every* (size, workers) point the released
   leaves are asserted bit-identical to the single-worker reference,
   the charged ε is asserted equal to the monolithic charge, and the
   routed answers are asserted bit-identical to a monolithic release
   over the same leaves.  Parallelism changes cost, never answers.

Scale: ``REPRO_SHARD_BENCH_BITS`` is a comma-separated list of domain
exponents (default ``20,21,22,23``).  CI runs a tiny smoke
(``REPRO_SHARD_BENCH_BITS=14,15 REPRO_SHARD_BENCH_WORKERS=1,2``) where
the speedup assertions are relaxed — at toy sizes both builds fit in
cache and fixed overheads dominate — while the exactness and throughput
assertions always hold.  Results land in
``results/BENCH_sharded_scale.json``.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import pytest

from repro.serving import HistogramEngine, MaterializedRelease, QueryBatch
from repro.sharding import ShardedHistogramEngine, ShardRouter, effective_cpu_count

NUM_QUERIES = 100_000
EPSILON = 0.1
SEED = 7
SHARD_SIZE = 1 << 16
#: below this domain exponent the speedup assertions are informational
#: only — the whole monolithic build fits in cache and per-shard fixed
#: overheads dominate, which is not the regime sharding targets.
SPEEDUP_ASSERT_BITS = 20


def domain_bits() -> list[int]:
    raw = os.environ.get("REPRO_SHARD_BENCH_BITS", "20,21,22,23")
    try:
        bits = sorted({int(b) for b in raw.split(",")})
    except ValueError as error:
        raise RuntimeError(
            f"REPRO_SHARD_BENCH_BITS must be comma-separated integers, "
            f"got {raw!r}"
        ) from error
    if not bits or min(bits) < 10 or max(bits) > 26:
        raise RuntimeError(
            f"REPRO_SHARD_BENCH_BITS entries must lie in [10, 26], got {raw!r}"
        )
    return bits


def worker_counts() -> list[int]:
    """The sweep's worker counts: ``1,2,4`` + the effective cores, or env."""
    raw = os.environ.get("REPRO_SHARD_BENCH_WORKERS")
    if raw is None:
        return sorted({1, 2, 4, effective_cpu_count()})
    try:
        counts = sorted({int(w) for w in raw.split(",")})
    except ValueError as error:
        raise RuntimeError(
            f"REPRO_SHARD_BENCH_WORKERS must be comma-separated integers, "
            f"got {raw!r}"
        ) from error
    if not counts or min(counts) < 1 or max(counts) > 64:
        raise RuntimeError(
            f"REPRO_SHARD_BENCH_WORKERS entries must lie in [1, 64], got {raw!r}"
        )
    return counts


def test_sharded_build_and_serve_scaling(report, report_json, benchmark):
    rows = []
    sizes = {}
    router = ShardRouter()
    workers_swept = worker_counts()
    cores = effective_cpu_count()
    for bits in domain_bits():
        n = 1 << bits
        counts = np.random.default_rng(0).poisson(3.0, size=n).astype(np.float64)
        # Full scale shards at the cache-resident width; tiny smoke
        # domains still split 8 ways so the router's multi-shard paths
        # are exercised.
        shard_size = min(SHARD_SIZE, max(n // 8, 1))

        mono_engine = HistogramEngine(counts, total_epsilon=1.0)
        start = perf_counter()
        mono_engine.materialize("constrained", epsilon=EPSILON, seed=SEED)
        mono_seconds = perf_counter() - start
        rows.append(
            {
                "domain_bits": bits,
                "mode": "monolithic",
                "workers": "-",
                "build_s": round(mono_seconds, 3),
                "speedup_vs_mono": 1.0,
            }
        )

        baseline_leaves = None
        baseline_release = None
        baseline_engine = None
        sweep = []
        for w in workers_swept:
            engine = ShardedHistogramEngine(
                counts,
                total_epsilon=1.0,
                shard_size=shard_size,
                workers=w,
            )
            start = perf_counter()
            release = engine.materialize("constrained", epsilon=EPSILON, seed=SEED)
            build_seconds = perf_counter() - start

            # ε exactness at every sweep point: one charge, bit-exactly
            # the monolithic value.
            assert engine.spent_epsilon == mono_engine.spent_epsilon == EPSILON

            # Bit-identity at every sweep point: the same leaves as the
            # single-worker reference, whatever the pool width.
            leaves = release.unit_counts()
            if baseline_leaves is None:
                baseline_leaves = leaves
                baseline_release = release
                baseline_engine = engine
            else:
                assert np.array_equal(leaves, baseline_leaves), (
                    f"release diverged from the workers=1 reference at "
                    f"n=2^{bits}, workers={w}"
                )

            speedup = (
                mono_seconds / build_seconds if build_seconds > 0 else float("inf")
            )
            sweep.append(
                {
                    "workers": w,
                    "build_seconds": build_seconds,
                    "speedup_vs_monolithic": speedup,
                    "bit_identical": True,
                    "charged_epsilon": engine.spent_epsilon,
                }
            )
            rows.append(
                {
                    "domain_bits": bits,
                    "mode": "sharded",
                    "workers": w,
                    "build_s": round(build_seconds, 3),
                    "speedup_vs_mono": round(speedup, 2),
                }
            )

        # The single-worker sharded build must beat the monolithic build
        # at real sizes (the cache-residency claim, workers aside).
        baseline_seconds = sweep[0]["build_seconds"]
        if bits >= SPEEDUP_ASSERT_BITS:
            assert baseline_seconds < mono_seconds, (
                f"sharded build ({baseline_seconds:.2f}s) slower than "
                f"monolithic ({mono_seconds:.2f}s) at n=2^{bits}"
            )

        # Serving: 100k mixed-length ranges through the router.
        batch = QueryBatch.random(n, NUM_QUERIES, rng=1)
        start = perf_counter()
        answers = router.answer(baseline_release, batch)
        answer_seconds = perf_counter() - start
        qps = NUM_QUERIES / answer_seconds if answer_seconds > 0 else float("inf")
        assert qps >= 100_000, (
            f"router throughput {qps:,.0f} q/s at n=2^{bits} is below the "
            f"100k q/s acceptance floor"
        )

        # Exactness: bit-identical to a monolithic release over the same
        # leaves (the same per-shard seed schedule built them).
        reference = MaterializedRelease(
            baseline_leaves,
            estimator=baseline_release.estimator,
            epsilon=baseline_release.epsilon,
            dataset_fingerprint=baseline_release.dataset_fingerprint,
            seed=SEED,
        )
        assert np.array_equal(
            answers, reference.range_sums(batch.los, batch.his)
        ), f"sharded answers diverged from the monolithic reference at n=2^{bits}"

        sizes[f"n_2^{bits}"] = {
            "domain_size": n,
            "num_shards": baseline_engine.num_shards,
            "monolithic_build_seconds": mono_seconds,
            "router_queries_per_second": qps,
            "bit_identical_to_monolithic": True,
            "charged_epsilon": baseline_engine.spent_epsilon,
            "sweep": sweep,
        }

    # Representative timed unit for --benchmark-only runs: routing the
    # 100k batch against the largest release built above.
    benchmark(lambda: router.answer(baseline_release, batch))

    report(
        "sharded_scale",
        rows,
        title=(
            f"Sharded vs monolithic H_bar build wall-clock across the "
            f"workers sweep ({NUM_QUERIES} queries, "
            f"shard width {SHARD_SIZE}, effective cpus {cores})"
        ),
    )
    report_json(
        "sharded_scale",
        {
            "shard_size": SHARD_SIZE,
            "num_queries": NUM_QUERIES,
            "epsilon": EPSILON,
            "worker_counts": workers_swept,
            "scales": sizes,
        },
    )
