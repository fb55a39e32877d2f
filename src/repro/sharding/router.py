"""Answering range-query batches against a sharded release.

Both endpoints of every query are resolved with one ``searchsorted``
over the shard boundaries, then dispatched *grouped by shard*: each
shard present in the batch performs one vectorized gather into its own
prefix-sum index.  Because each shard's index carries the cumulated
totals of all preceding shards in its offsets (see
:meth:`~repro.sharding.release.ShardedRelease.shard_index`), the full
shards interior to a query cost O(1) — their mass is already inside the
two gathered values — and the answer is a single subtraction.  The
gathered values are exactly the global prefix sums a monolithic release
stores, so the answers are **bit-identical** to a monolithic release
over the same leaves: the consistent release answers any range from its
leaves (Proposition 2), and sharding changes only how those leaves were
built.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import QueryError
from repro.serving.planner import QueryBatch
from repro.sharding.release import ShardedRelease

__all__ = ["ShardRouter"]


class ShardRouter:
    """Answers query batches against sharded releases.

    Stateless, like :class:`~repro.serving.planner.BatchQueryPlanner` —
    the router owns no data, only the bounds check and the gathers.
    """

    def answer(self, release: ShardedRelease, batch: QueryBatch) -> np.ndarray:
        """All answers via grouped per-shard gathers (the serving path).

        Bit-identical to a monolithic release over the same leaves: the
        per-shard indexes store global prefix values, so the grouped
        gathers produce exactly the two values the monolithic index
        would, and the final subtraction is the same operation.
        """
        if batch.max_hi >= release.domain_size:
            raise QueryError(
                f"batch {batch.name!r} reaches bucket {batch.max_hi}, beyond "
                f"the sharded release domain of size {release.domain_size}"
            )
        if len(batch) == 0:
            return np.zeros(0, dtype=np.float64)
        plan = release.plan
        # Prefix positions of both endpoint sets, routed to the shard
        # whose index view evaluates them.
        positions = np.concatenate((batch.los, batch.his + 1))
        shards = plan.shard_of_prefix(positions)
        gathered = np.empty(positions.size, dtype=np.float64)
        order = np.argsort(shards, kind="stable")
        sorted_shards = shards[order]
        sorted_positions = positions[order]
        group_starts = np.searchsorted(
            sorted_shards, np.arange(plan.num_shards + 1)
        )
        starts = plan.boundaries
        touched = np.unique(sorted_shards)
        for shard in touched:
            lo, hi = group_starts[shard], group_starts[shard + 1]
            index = release.shard_index(shard)
            local = sorted_positions[lo:hi] - starts[shard]
            gathered[order[lo:hi]] = index[local]
        if obs.enabled():
            registry = obs.registry()
            registry.counter(
                "repro_router_batches_total", "Batches routed across shards"
            ).inc()
            registry.counter(
                "repro_router_gather_groups_total",
                "Per-shard vectorized gathers performed",
            ).inc(int(touched.size))
        q = len(batch)
        return gathered[q:] - gathered[:q]
