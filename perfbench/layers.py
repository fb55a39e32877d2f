"""The traced run's per-layer table, built from recorded spans.

Every workload reports the same metric names; a span a workload does
not exercise reads 0 calls.  ``expected_missing`` is the self-check:
a span expected on a workload that recorded no call fails the run, so
a renamed function or a new import by name cannot drop a layer
silently.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import fleet_api as api
from spans import SpanRecorder, summarize
from workloads import MONO, SHARDED

#: Refresh-path figures; each reads 0 on workloads without streams.
STREAM_FIGURES = (
    ("serving.store.put_growth", "ratio"),
    ("serving.store.artifact_bytes_per_epoch", "bytes"),
    ("serving.store.manifest_bytes_per_epoch", "bytes"),
    ("utils.io_atomic.fsyncs_per_epoch", "count"),
    ("sharding.lineage.bytes_per_append", "bytes"),
    ("sharding.lineage.append_growth", "ratio"),
    ("streaming.lineage.bytes_per_append", "bytes"),
    ("streaming.lineage.append_growth", "ratio"),
    ("streaming.buffer.fold_ratio", "ratio"),
    ("accuracy.schedule.refreshed_shards_per_epoch", "count"),
)

RUN_FIGURES = (
    ("unattributed.self_ms", "ms"),
    ("unattributed.share", "ratio"),
    ("roots.calls", "count"),
    ("roots.ms", "ms"),
    ("trace.overhead", "ratio"),
    ("serving.cache.hit_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for target in api.TRACE_TARGETS:
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.self_ms"] = "ms"
        units[f"{target.name}.share"] = "ratio"
    units.update(RUN_FIGURES)
    units.update(STREAM_FIGURES)
    return units


def write_counters(recorder: SpanRecorder):
    """Wrapper factories that count bytes and writes per root.

    ``atomic_write_bytes`` does one fsync per call; the written file is
    classed as manifest, artifact or lineage by its location in the
    store.  ``IngestBuffer.drain`` returns ``(delta, rows)``.
    """

    def count_bytes(wrapped):
        def traced(path, write):
            wrapped(path, write)
            path = Path(path)
            if path.name == "manifest.json":
                kind = "manifest"
            elif path.parent.name == "artifacts":
                kind = "artifact"
            else:
                kind = "lineage"
            recorder.count(f"bytes.{kind}", path.stat().st_size)
            recorder.count("fsyncs", 1)

        return traced

    def count_drained(wrapped):
        def traced(self):
            delta, rows = wrapped(self)
            recorder.count("rows.drained", rows)
            return delta, rows

        return traced

    return {
        "utils.io_atomic.atomic_write_bytes": count_bytes,
        "streaming.buffer.drain": count_drained,
    }


def _growth(values) -> float:
    """Mean of the last tenth over mean of the first tenth (0 if empty)."""
    if not values:
        return 0.0
    tenth = max(1, len(values) // 10)
    first = float(np.mean(values[:tenth]))
    return float(np.mean(values[-tenth:])) / first if first else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(recorder, traced, untraced) -> dict[str, float]:
    """The per-layer table for one workload's traced run.

    ``traced`` and ``untraced`` are the workload outcomes with and
    without wrappers; overhead compares what the traced operations cost
    with what the same operations cost untraced.
    """
    names = [target.name for target in api.TRACE_TARGETS]
    summary = summarize(recorder, names)
    root_s = summary["root_s"]
    values: dict[str, float] = {}
    for name in names:
        self_s = summary["self_s"][name]
        values[f"{name}.calls"] = summary["calls"][name]
        values[f"{name}.self_ms"] = self_s * 1000.0
        values[f"{name}.share"] = self_s / root_s if root_s else 0.0
    values["unattributed.self_ms"] = summary["unattributed_s"] * 1000.0
    values["unattributed.share"] = summary["unattributed_s"] / root_s if root_s else 0.0
    values["roots.calls"] = len(recorder.roots)
    values["roots.ms"] = root_s * 1000.0
    # Medians per operation class, weighted by the traced counts, so the
    # one-off first call of a process (model builds, imports) is ignored.
    traced_s = untraced_s = 0.0
    for op, samples in traced.ops.items():
        if untraced.ops.get(op):
            traced_s += len(samples) * float(np.median(samples))
            untraced_s += len(samples) * float(np.median(untraced.ops[op]))
    values["trace.overhead"] = traced_s / untraced_s if untraced_s else 0.0
    hit_ratio = traced.extras.get("cache_hit_ratio")
    values["serving.cache.hit_ratio"] = hit_ratio[0] if hit_ratio else 1.0
    values.update(_stream_figures(recorder, summary, traced))
    return values


def _stream_figures(recorder, summary, traced) -> dict[str, float]:
    inclusive = summary["inclusive"]
    epochs = {SHARDED: [], MONO: []}
    for root, (kind, label) in recorder.roots.items():
        if kind == "advance_epoch":
            epochs[label].append(root)
    sharded = epochs[SHARDED]

    def counter(roots, name):
        return [recorder.counters.get((root, name), 0.0) for root in roots]

    def per_epoch(roots, name):
        return _mean(counter(roots, name))

    def inclusive_ms(roots, span):
        return [inclusive[root].get(span, 0.0) * 1000.0 for root in roots]

    folded = sum(
        record.rows_ingested for name, record in traced.epoch_records if name == SHARDED
    )
    drained = sum(counter(sharded, "rows.drained"))
    refreshed = [
        len(record.refreshed) for name, record in traced.epoch_records if name == SHARDED
    ]
    return {
        "serving.store.put_growth": _growth(inclusive_ms(sharded, "serving.store.put")),
        "serving.store.artifact_bytes_per_epoch": per_epoch(sharded, "bytes.artifact"),
        "serving.store.manifest_bytes_per_epoch": per_epoch(sharded, "bytes.manifest"),
        "utils.io_atomic.fsyncs_per_epoch": per_epoch(sharded, "fsyncs"),
        "sharding.lineage.bytes_per_append": per_epoch(sharded, "bytes.lineage"),
        "sharding.lineage.append_growth": _growth(inclusive_ms(sharded, "sharding.lineage.append")),
        "streaming.lineage.bytes_per_append": per_epoch(epochs[MONO], "bytes.lineage"),
        "streaming.lineage.append_growth": _growth(
            inclusive_ms(epochs[MONO], "streaming.lineage.append")
        ),
        "streaming.buffer.fold_ratio": folded / drained if drained else 0.0,
        "accuracy.schedule.refreshed_shards_per_epoch": _mean(refreshed),
    }


def expected_missing(values, workload: str, pool_workers: int) -> list[str]:
    """Spans expected on ``workload`` that recorded no call."""
    missing = []
    for target in api.TRACE_TARGETS:
        expected = workload in target.expected or (
            "pool" in target.expected and pool_workers > 1
        )
        if expected and values[f"{target.name}.calls"] == 0:
            missing.append(target.name)
    return missing
