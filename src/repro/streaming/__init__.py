"""Streaming ingestion and epoch-based incremental release.

The serving tier (:mod:`repro.serving`) answers millions of range queries
from one materialized release; this package keeps that release *fresh*
while rows keep arriving, without ever weakening the privacy story:

* :class:`IngestBuffer` — owner-side, thread-safe accumulation of row
  arrivals into a per-bucket delta vector, one vectorized ``bincount``
  pass per batch (:mod:`repro.streaming.buffer`);
* :class:`RowCountPolicy` / :class:`ManualRefreshPolicy` — when the
  backlog justifies a new epoch, and :class:`FixedEpsilonSchedule` /
  :class:`GeometricEpsilonSchedule` — the ε each epoch may spend under
  sequential composition (:mod:`repro.streaming.policy`);
* :class:`EpochRecord` / :class:`EpochLineage` — the durable,
  shareable ledger of every epoch's release identity and ε charge, on
  the :class:`LineageLedger` both stream kinds share
  (:mod:`repro.streaming.lineage`);
* :class:`StreamingHistogramEngine` — the façade: ingest, advance epochs
  (inline or on a background build thread), keep answering every batch
  from one immutable epoch snapshot, and warm-restart from the stored
  lineage with zero ε (:mod:`repro.streaming.engine`); its epoch loop
  is :class:`EpochStreamEngine`, shared with the sharded stream.

For massive domains the sharded sibling
:class:`~repro.sharding.streaming.ShardedStreamingEngine` reuses this
package's buffer, policies, and schedules but re-releases **only the
shards whose ingest deltas cross the per-shard threshold** each epoch —
see :mod:`repro.sharding`.

**Epoch privacy accounting.**  Epoch ``i`` re-answers the query sequence
on the updated instance with an ``εᵢ``-DP mechanism; by sequential
composition (Section 2.1 of the paper) the whole stream of releases is
``(Σ εᵢ)``-differentially private.  One shared
:class:`~repro.privacy.budget.PrivacyBudget` enforces the sum, is charged
only when an epoch build *succeeds*, and labels every charge with its
epoch index so the audit trail reads as the epoch history.

**Epoch-versioned artifacts.**  Each epoch's release is a normal
:class:`~repro.serving.release.MaterializedRelease` whose identity
(dataset fingerprint of the epoch's counts, ε from the schedule, seed
``base_seed + epoch``) differs from every other epoch's, so the existing
:class:`~repro.serving.store.ReleaseStore` versioning applies unchanged:
every epoch persists as its own ``.npz`` artifact, and a replayed or
restarted stream loads epochs from disk with zero recomputation and zero
additional ε.  The lineage file (``<store>/streams/<name>-<hash>.json``,
where the short hash of the exact stream name keeps sanitized names from
colliding) maps
epoch indexes to those identities.

Quickstart::

    import numpy as np
    from repro.serving import ReleaseStore
    from repro.streaming import (
        GeometricEpsilonSchedule, RowCountPolicy, StreamingHistogramEngine,
    )

    engine = StreamingHistogramEngine(
        np.zeros(1024), total_epsilon=1.0,
        schedule=GeometricEpsilonSchedule(0.4, decay=0.5),
        policy=RowCountPolicy(10_000),
        store=ReleaseStore("releases"), name="clicks",
    )
    engine.ingest(row_indexes)          # auto-refreshes at 10k pending rows
    engine.submit(batch).epoch          # always one consistent epoch
    engine.lineage.spent_epsilon        # the stream's composition ledger
"""

from repro.streaming.buffer import IngestBuffer
from repro.streaming.engine import (
    EpochStreamEngine,
    StreamBatchResult,
    StreamingHistogramEngine,
)
from repro.streaming.lineage import EpochLineage, EpochRecord, LineageLedger
from repro.streaming.policy import (
    EpsilonSchedule,
    FixedEpsilonSchedule,
    GeometricEpsilonSchedule,
    ManualRefreshPolicy,
    RefreshPolicy,
    RowCountPolicy,
)

__all__ = [
    "IngestBuffer",
    "EpochStreamEngine",
    "StreamBatchResult",
    "StreamingHistogramEngine",
    "EpochLineage",
    "EpochRecord",
    "LineageLedger",
    "EpsilonSchedule",
    "FixedEpsilonSchedule",
    "GeometricEpsilonSchedule",
    "ManualRefreshPolicy",
    "RefreshPolicy",
    "RowCountPolicy",
]
