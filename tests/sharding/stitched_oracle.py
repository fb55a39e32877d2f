"""The distributed answer to a sharded range query, as a test oracle.

Every inclusive range ``[lo, hi]`` decomposes against a
:class:`~repro.sharding.plan.ShardPlan` into at most **2 partial-shard
pieces** (the shards holding ``lo`` and ``hi``) plus a run of **k full
shards** in between.  :func:`answer_stitched` answers each piece where it
lives — partials by the owning shard's own ``range_sums`` (its local
prefix index), full-shard runs from the O(k) cumulated-totals table —
and sums the pieces: the arithmetic a deployment with one server per
shard and a coordinator would perform.  It matches
:meth:`repro.sharding.router.ShardRouter.answer` up to float summation
order, which the tests assert ``allclose``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import QueryError
from repro.serving.planner import QueryBatch
from repro.sharding.plan import ShardPlan
from repro.sharding.release import ShardedRelease


@dataclass(frozen=True, eq=False)
class ShardedQueryPlan:
    """The per-query shard decomposition of one batch."""

    plan: ShardPlan
    batch: QueryBatch
    #: shard holding each query's lower endpoint
    lo_shards: np.ndarray
    #: shard holding each query's upper endpoint
    hi_shards: np.ndarray

    @property
    def full_spans(self) -> np.ndarray:
        """Number of interior shards each query covers completely."""
        return np.maximum(self.hi_shards - self.lo_shards - 1, 0)

    @property
    def num_pieces(self) -> np.ndarray:
        """Pieces per query: 1 within a shard, else 2 partials + full run."""
        same = self.lo_shards == self.hi_shards
        return np.where(same, 1, 2 + self.full_spans)

    def pieces(self, i: int) -> list[tuple[int, int, int, str]]:
        """Query ``i``'s pieces as ``(shard, lo_local, hi_local, kind)``.

        ``kind`` is ``"interior"`` (whole query inside one shard),
        ``"left-partial"``, ``"full"``, or ``"right-partial"``; local
        bounds are inclusive, relative to the shard start.
        """
        lo = int(self.batch.los[i])
        hi = int(self.batch.his[i])
        s_lo = int(self.lo_shards[i])
        s_hi = int(self.hi_shards[i])
        bounds = self.plan.boundaries
        if s_lo == s_hi:
            start = int(bounds[s_lo])
            return [(s_lo, lo - start, hi - start, "interior")]
        pieces = [
            (
                s_lo,
                lo - int(bounds[s_lo]),
                int(bounds[s_lo + 1]) - int(bounds[s_lo]) - 1,
                "left-partial",
            )
        ]
        for s in range(s_lo + 1, s_hi):
            pieces.append((s, 0, int(bounds[s + 1]) - int(bounds[s]) - 1, "full"))
        pieces.append((s_hi, 0, hi - int(bounds[s_hi]), "right-partial"))
        return pieces


def decompose(plan: ShardPlan, batch: QueryBatch) -> ShardedQueryPlan:
    """Resolve every query's endpoint shards (one searchsorted each)."""
    if batch.max_hi >= plan.domain_size:
        raise QueryError(
            f"batch {batch.name!r} reaches bucket {batch.max_hi}, beyond "
            f"the plan domain of size {plan.domain_size}"
        )
    return ShardedQueryPlan(
        plan=plan,
        batch=batch,
        lo_shards=plan.shard_of(batch.los),
        hi_shards=plan.shard_of(batch.his),
    )


def _local_sums(release: ShardedRelease, shards, los, his) -> np.ndarray:
    """Per-shard local range sums, one shard group at a time."""
    answers = np.empty(shards.size, dtype=np.float64)
    starts = release.plan.boundaries
    for shard in np.unique(shards):
        member = shards == shard
        answers[member] = release.shard_releases[shard].range_sums(
            los[member] - starts[shard],
            his[member] - starts[shard],
            assume_valid=True,
        )
    return answers


def answer_stitched(release: ShardedRelease, batch: QueryBatch) -> np.ndarray:
    """Answers stitched piece by piece — the distributed semantics."""
    routed = decompose(release.plan, batch)
    if len(batch) == 0:
        return np.zeros(0, dtype=np.float64)
    lo_s, hi_s = routed.lo_shards, routed.hi_shards
    starts = release.plan.boundaries
    spanning = lo_s != hi_s
    # Left piece: [lo, min(hi, shard end)] inside the lo shard — the
    # whole query when it is interior to one shard.
    left_hi = np.minimum(batch.his, starts[lo_s + 1] - 1)
    left = _local_sums(release, lo_s, batch.los, left_hi)
    # Full interior run, O(1) per query from cumulated shard totals.
    totals = release.boundary_prefix
    full = np.zeros(len(batch), dtype=np.float64)
    full[spanning] = totals[hi_s[spanning]] - totals[lo_s[spanning] + 1]
    # Right piece: [shard start, hi] inside the hi shard.
    right = np.zeros(len(batch), dtype=np.float64)
    if np.any(spanning):
        right[spanning] = _local_sums(
            release, hi_s[spanning], starts[hi_s[spanning]], batch.his[spanning]
        )
    return left + full + right
