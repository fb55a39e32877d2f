"""The shard-build thread pool: sizing, ordering, fail-fast, telemetry.

Covers :mod:`repro.sharding.pool` directly plus the pool-shaped engine
contracts: the default worker count comes from the *effective* CPU
budget (affinity/cgroup aware, not raw ``os.cpu_count()``), a shard
failure cancels pending builds instead of letting the queue run to
completion behind the raised error, every pooled build records its own
``shard.build`` span, and a default engine runs in a script that has no
``if __name__ == "__main__"`` guard.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults, obs
from repro.exceptions import ReproError
from repro.faults.injector import FailNth, FaultError
from repro.serving.engine import compute_release_leaves
from repro.serving.release import ReleaseKey, fingerprint_counts
from repro.sharding import pool
from repro.sharding.engine import (
    ShardedHistogramEngine,
    build_shard_releases,
    derive_shard_seed,
    resolve_workers,
)
from repro.sharding.pool import effective_cpu_count, run_shard_builds

SRC = Path(__file__).resolve().parents[2] / "src"


def make_shards(num_shards: int = 6, width: int = 64, seed: int = 0):
    """``(counts, keys)`` for ``num_shards`` independent shard builds."""
    rng = np.random.default_rng(seed)
    counts, keys = [], []
    for s in range(num_shards):
        shard = rng.poisson(4.0, size=width).astype(float)
        counts.append(shard)
        keys.append(
            ReleaseKey(
                dataset_fingerprint=fingerprint_counts(shard),
                estimator="constrained",
                epsilon=0.1,
                branching=2,
                seed=derive_shard_seed(11, s),
            )
        )
    return counts, keys


class TestEffectiveCpuCount:
    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            pool.os, "process_cpu_count", lambda: 3, raising=False
        )
        assert effective_cpu_count() == 3

    def test_falls_back_to_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(pool.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        assert effective_cpu_count() == 3

    def test_falls_back_to_cpu_count_last(self, monkeypatch):
        monkeypatch.delattr(pool.os, "process_cpu_count", raising=False)
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 7)
        assert effective_cpu_count() == 7
        monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
        assert effective_cpu_count() == 1

    def test_matches_this_hosts_affinity(self):
        # On Linux the affinity mask is the authoritative budget; the
        # resolved count can never exceed the box.
        counted = effective_cpu_count()
        assert 1 <= counted <= (os.cpu_count() or 1)


class TestResolveWorkersAffinity:
    def test_default_pool_sized_from_effective_cpus(self, monkeypatch):
        # The engine must size from the affinity/cgroup budget, not raw
        # os.cpu_count(): a container pinned to 3 of 64 cores gets 3.
        import repro.sharding.engine as engine_module

        monkeypatch.setattr(engine_module, "effective_cpu_count", lambda: 3)
        assert resolve_workers(None, num_shards=16) == 3
        assert resolve_workers(None, num_shards=2) == 2

    def test_explicit_workers_pass_through(self):
        assert resolve_workers(5, num_shards=2) == 5
        with pytest.raises(ReproError):
            resolve_workers(0, num_shards=2)


class TestRunShardBuilds:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_come_back_in_index_order(self, workers):
        # Later indexes finish first; the result list is still in index
        # order, so reassembly never depends on completion order.
        def build(index):
            time.sleep(0.01 * (5 - index))
            return index

        assert run_shard_builds(build, 6, workers=workers) == list(range(6))
        assert run_shard_builds(build, 0, workers=workers) == []

    def test_thread_pool_bit_identical_to_serial(self):
        counts, keys = make_shards(7, seed=1)

        def build(index):
            return compute_release_leaves(counts[index], keys[index])

        serial = [build(index) for index in range(len(keys))]
        pooled = run_shard_builds(build, len(keys), workers=3)
        assert len(pooled) == len(keys)
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_builds_run_on_pool_threads(self):
        names = run_shard_builds(
            lambda index: threading.current_thread().name, 4, workers=2
        )
        assert all(name.startswith("shard-build") for name in names)

    def test_first_failure_cancels_pending_builds(self):
        # 12 builds on 2 workers; build 0 fails immediately while any
        # concurrently running build sleeps.  Fail-fast means the queued
        # remainder is cancelled rather than run behind the error.
        calls = []

        def build(index):
            calls.append(index)
            if index == 0:
                raise ValueError("boom")
            time.sleep(0.05)
            return index

        with pytest.raises(ValueError, match="boom"):
            run_shard_builds(build, 12, workers=2)
        # The failing build plus at most one in-flight build per worker.
        assert len(calls) <= 3

    def test_submission_order_failure_wins(self):
        # Builds 0 and 1 both fail, build 1 first; the earlier one in
        # submission order must be the error that surfaces, so failure
        # reporting is deterministic under completion-order shuffles.
        def build(index):
            if index == 0:
                time.sleep(0.05)
            raise ValueError(f"build-{index}")

        with pytest.raises(ValueError, match="build-0"):
            run_shard_builds(build, 8, workers=2)

    def test_shutdown_worker_pools_is_a_safe_no_op(self):
        pool.shutdown_worker_pools()
        pool.shutdown_worker_pools()
        assert run_shard_builds(lambda index: index, 3, workers=2) == [0, 1, 2]


class TestPooledTelemetry:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_every_shard_build_records_a_span_and_an_observation(self, workers):
        counts, keys = make_shards(5, seed=6)
        with obs.session() as (registry, tracer):
            build_shard_releases(counts, keys, workers=workers)
            spans = tracer.events("shard.build")
            seconds = registry.histogram(
                "repro_shard_build_seconds", "Per-shard release build latency"
            )
            builds = registry.counter(
                "repro_shard_builds_total", "Individual shard releases built"
            )
            assert sorted(span.attributes["shard"] for span in spans) == list(
                range(len(keys))
            )
            assert seconds.count() == len(keys)
            assert builds.value() == len(keys)

    def test_concurrent_recording_loses_no_update(self):
        # More threads than cores and a tiny switch interval: a lost
        # read-modify-write in the shared registry or tracer would show
        # as fewer than one span, observation and count per shard.
        counts, keys = make_shards(48, width=16, seed=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.session() as (registry, tracer):
                build_shard_releases(counts, keys, workers=8)
                assert len(tracer.events("shard.build")) == len(keys)
                assert registry.value("repro_shard_builds_total") == len(keys)
                assert registry.histogram(
                    "repro_shard_build_seconds", "Per-shard release build latency"
                ).count() == len(keys)
        finally:
            sys.setswitchinterval(interval)


class TestUnguardedScript:
    def test_default_engine_runs_without_a_main_guard(self, tmp_path):
        # A script with no ``if __name__ == "__main__"`` guard builds a
        # default-configured engine over two 2**14-wide shards: the build
        # must not re-import the script or need the guard.
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.sharding import ShardedHistogramEngine

                counts = np.random.default_rng(0).poisson(3.0, size=1 << 15)
                engine = ShardedHistogramEngine(counts, 1.0, shard_size=1 << 14)
                release = engine.materialize("constrained", epsilon=0.5, seed=1)
                print("release", release.num_shards, engine.spent_epsilon)
                """
            )
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["release", "2", "0.5"]


class TestEngineFailFast:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_no_build_dispatched_after_shard_fault(self, monkeypatch, workers):
        """The counting-double fail-fast contract: an injected failure at
        shard 3 of 8 stops the fault sequence at exactly 3 invocations
        and dispatches zero kernel builds — nothing runs to completion
        behind the error, at any worker count — and charges zero ε."""
        counts = np.random.default_rng(5).poisson(3.0, size=512).astype(float)
        dispatched = []

        import repro.sharding.engine as engine_module

        real = engine_module.run_shard_builds

        def counting(build, count, **kwargs):
            dispatched.append(count)
            return real(build, count, **kwargs)

        monkeypatch.setattr(engine_module, "run_shard_builds", counting)
        engine = ShardedHistogramEngine(
            counts, 1.0, num_shards=8, workers=workers
        )
        with faults.session({"shard.build": FailNth(3)}) as injector:
            with pytest.raises(FaultError):
                engine.materialize("constrained", epsilon=0.2, seed=1)
            assert injector.invocations("shard.build") == 3
        assert dispatched == []
        assert engine.spent_epsilon == 0.0
        assert engine.materializations == 0
        assert engine.shard_builds == 0
        # The identical request succeeds cleanly afterwards: nothing
        # about the failed attempt was cached or charged.
        release = engine.materialize("constrained", epsilon=0.2, seed=1)
        assert engine.spent_epsilon == 0.2
        assert dispatched == [8]
        assert release.num_shards == 8
