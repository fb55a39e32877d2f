"""Small measurement helpers: percentiles, process-tree memory, digests, reaping."""

from __future__ import annotations

import hashlib
import os
import resource
import signal
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np


def percentile_ms(samples_s, q: float) -> float:
    """The ``q``-th percentile of durations in seconds, in milliseconds."""
    return float(np.percentile(np.asarray(samples_s), q)) * 1000.0


def _status_kb(pid: str, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass  # the process ended between listing and reading
    return 0


def _child_pids() -> list[str]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return pids


def tree_peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live child, in MB.

    Sums each process's own high-water mark (``VmHWM``), so pool workers
    count as much as the parent: moving builds from worker processes to
    threads moves memory between the terms instead of hiding it.  Call
    it before stopping the pool.  Children that already ended are
    covered by the largest of them (``RUSAGE_CHILDREN``) when none is
    live.  Without ``/proc``, only the ``getrusage`` figures are used.
    """
    if not Path("/proc/self/status").exists():
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + children) / 1024.0
    own = _status_kb("self", "VmHWM")
    live = [_status_kb(pid, "VmHWM") for pid in _child_pids() if pid != str(os.getpid())]
    children = sum(live) if live else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def settle_allocator() -> None:
    """Raise glibc malloc's dynamic mmap threshold to its ceiling.

    glibc serves blocks above the threshold (128 KiB at start) with
    fresh mmaps, and each free of such a block raises the threshold to
    that block's size, up to 32 MiB.  When a process's large frees
    raise it varies, and processes that had not settled ran 10-40%
    slower, so runs split into a fast and a slow mode.  Freeing one
    31 MiB block first puts every run in the state a long-lived server
    reaches after its first large free.
    """
    block = np.ones((31 << 20) // 8)
    del block


def reap_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The spawn worker pool starts multiprocessing's resource tracker,
    which outlives a stopped pool and ends only after its owner closes
    the tracker's pipe, so it is stopped and waited for here.  Any other
    child still alive (a pool that was not stopped) is terminated and
    waited for first, since children hold the tracker's pipe too.
    """
    tracker = resource_tracker._resource_tracker
    for pid in map(int, _child_pids()):
        if pid in (os.getpid(), tracker._pid):
            continue
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # it ended, or a pool's own finaliser reaped it
    tracker._stop()


def digest(arrays) -> str:
    """sha256 over the float64 bytes of ``arrays``, in order."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


def range_truth(counts: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    return prefix[his + 1] - prefix[los]
