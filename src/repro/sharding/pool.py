"""The shard-build thread pool.

This module is the execution substrate under
:func:`repro.sharding.engine.build_shard_releases`: it runs ``build(i)``
for every shard index on a ``ThreadPoolExecutor`` and knows nothing
else.  The engine keeps everything stateful — cache probes, store
writes, the single ε charge and the fault-point checks — on the calling
thread, so a build is a deterministic function of its shard's
``(counts, key, delta)`` that is safe to run on any thread, in any
order.

**Why threads.**  The build kernels are NumPy passes over a shard's
tree, which release the GIL for most of their run.  On a 2-CPU host a
2²² H̄ build (64 shards of 2¹⁶, median of 7 runs) takes 0.99 s on one
thread and 0.57 s on two, against 0.72 s on a pool of two worker
processes, which also pickles every leaf vector back to the caller and
re-imports the caller's script in each worker.

**Contracts.**

* *Bit-identity*: results come back in index order and each is a
  deterministic function of its shard, so the worker count and the
  completion order cannot change a single bit of any leaf vector.
* *Fail-fast*: the first failing build cancels every build not yet
  started, and the failure earliest *in submission order* is re-raised —
  no queued build runs to completion behind the error, and the raised
  error is deterministic even when several builds fail concurrently.
* *Telemetry*: builds run in this process, so each one records its own
  ``shard.build`` span and ``repro_shard_build_seconds`` observation,
  whatever the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

__all__ = ["effective_cpu_count", "run_shard_builds", "shutdown_worker_pools"]


def effective_cpu_count() -> int:
    """CPUs actually available to this process, not CPUs in the box.

    Prefers ``os.process_cpu_count()`` (Python ≥ 3.13), then the
    scheduling affinity mask (which reflects cgroup/taskset limits on
    Linux), and only then raw ``os.cpu_count()``.  A container pinned
    to 2 of 64 cores sizes its default pool at 2, not 64.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        counted = probe()
        if counted:
            return int(counted)
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            counted = len(affinity(0))
        except OSError:  # pragma: no cover - platform-specific
            counted = 0
        if counted:
            return counted
    return os.cpu_count() or 1


def run_shard_builds(build, count: int, *, workers: int) -> list:
    """``[build(0), ..., build(count - 1)]`` computed on ``workers`` threads.

    The executor lives for one call: threads start in microseconds, so
    there is no pool to cache, warm or shut down.
    """
    executor = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="shard-build"
    )
    try:
        futures = [executor.submit(build, index) for index in range(count)]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # After a failure this cancels every build not yet started and
        # waits for the running ones; after success every future is
        # already done and the cancel is a no-op.
        executor.shutdown(wait=True, cancel_futures=True)
    # Threads take builds in submission order, so every cancelled build
    # comes after every started one: reading results in order re-raises
    # the earliest failure before it could reach a cancelled future.
    return [future.result() for future in futures]


def shutdown_worker_pools() -> None:
    """Release the build pool's workers: a no-op.

    Shard builds hold no threads or processes between calls, so there is
    never anything to release; hosts may still call this on shutdown.
    """
