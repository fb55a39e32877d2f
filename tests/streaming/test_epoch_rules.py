"""The epoch rules both stream engines share.

An epoch with nothing to fold builds nothing, charges nothing and returns
``None`` (epoch 0 always builds), and a warm restart whose estimator,
seed or ε schedule disagrees with the lineage is refused before any
charge.  Every test runs against the monolithic and the sharded engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LineageConflictError
from repro.serving import ReleaseStore
from repro.sharding import ShardedStreamingEngine
from repro.streaming import (
    FixedEpsilonSchedule,
    GeometricEpsilonSchedule,
    StreamingHistogramEngine,
)

DOMAIN = 64


def stream(engine_class, tmp_path, counts=None, **kwargs):
    options = dict(
        total_epsilon=1.0,
        schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
        name="rules",
        seed=3,
    )
    options.update(kwargs)
    if engine_class is ShardedStreamingEngine:
        options.setdefault("num_shards", 4)
    data = np.full(DOMAIN, 2.0) if counts is None else counts
    return engine_class(data, store=ReleaseStore(tmp_path / "store"), **options)


def store_bytes(tmp_path) -> dict[str, bytes]:
    root = tmp_path / "store"
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


ENGINES = pytest.mark.parametrize(
    "engine_class",
    [StreamingHistogramEngine, ShardedStreamingEngine],
    ids=["monolithic", "sharded"],
)


@ENGINES
def test_two_empty_advances_are_free_no_ops(engine_class, tmp_path):
    engine = stream(engine_class, tmp_path)
    assert engine.epoch == 0  # epoch 0 builds from the base data
    before = store_bytes(tmp_path)

    assert engine.advance_epoch() is None
    assert engine.advance_epoch() is None

    assert engine.spent_epsilon == 0.4
    assert engine.lineage.spent_epsilon == 0.4
    assert len(engine.lineage) == 1
    assert engine.epoch == 0
    assert store_bytes(tmp_path) == before
    # the next epoch with data still gets the schedule's epoch-1 ε
    engine.ingest(np.arange(8))
    record = engine.advance_epoch()
    assert (record.epoch, record.epsilon) == (1, 0.2)


@ENGINES
def test_empty_advance_with_exhausted_budget_is_a_free_no_op(
    engine_class, tmp_path
):
    engine = stream(
        engine_class, tmp_path, total_epsilon=0.4,
        schedule=FixedEpsilonSchedule(0.4),
    )
    assert engine.remaining_epsilon == 0.0
    assert engine.advance_epoch() is None  # no lifetime check, no raise
    assert engine.spent_epsilon == 0.4
    assert len(engine.lineage) == 1
    assert not engine.breaker.degraded


@ENGINES
@pytest.mark.parametrize(
    "mismatch",
    [
        {"estimator": "hierarchical"},
        {"seed": 4},
        {"schedule": FixedEpsilonSchedule(0.7)},
    ],
    ids=["estimator", "seed", "epsilon-schedule"],
)
def test_mismatched_resume_is_refused_before_any_charge(
    engine_class, tmp_path, mismatch
):
    engine = stream(engine_class, tmp_path)
    engine.ingest(np.arange(8))
    engine.advance_epoch()
    current = np.full(DOMAIN, 2.0)
    current[:8] += 1
    before = store_bytes(tmp_path)

    with pytest.raises(LineageConflictError, match="identity"):
        stream(engine_class, tmp_path, counts=current, **mismatch)

    # nothing was charged, built or appended: the store and both ledgers
    # are byte-identical, and a matching resume continues the schedule
    assert store_bytes(tmp_path) == before
    resumed = stream(engine_class, tmp_path, counts=current)
    assert resumed.spent_epsilon == 0.0
    assert resumed.lineage.spent_epsilon == engine.lineage.spent_epsilon
    resumed.ingest(np.arange(8))
    assert resumed.advance_epoch().epoch == 2
