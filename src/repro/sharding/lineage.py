"""Durable lineage of a sharded stream's partial-refresh epochs.

The sharded counterpart of :mod:`repro.streaming.lineage`: every
successful epoch appends one :class:`ShardEpochRecord` holding the epoch
index, the ε it charged, **which shards were re-released**, and the full
per-shard :class:`~repro.serving.release.ReleaseKey` set the stream
serves after the epoch (refreshed shards with fresh keys, untouched
shards carrying their previous keys forward).  The record therefore
answers both provenance questions a sharded stream raises:

* *what changed* — ``refreshed`` lists the shard ids rebuilt this epoch
  (the partial-refresh set), and
* *what is being served* — ``shard_keys`` is the complete identity of
  the assembled :class:`~repro.sharding.release.ShardedRelease`, which
  is how a restarted engine re-loads every shard from the store with
  zero additional ε.

Like the monolithic lineage, the file holds only release identities and
ε values (outputs of the accounting, never true counts), is rewritten
atomically after every append, and — summed — is the stream's
sequential-composition ledger.  Each epoch's charge covers *all* shards
it refreshed at once: the refreshed shards are disjoint, so the epoch is
εᵢ-DP by parallel composition, and epochs compose sequentially to Σ εᵢ.
:meth:`~repro.serving.store.ReleaseStore.prune` treats every key named
by any lineage file under ``<store>/streams/`` as protected, so retiring
old standalone artifacts can never break a stream's warm restart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReleaseStoreError, ReproError
from repro.serving.release import ReleaseKey
from repro.streaming.lineage import LineageLedger

__all__ = ["ShardEpochRecord", "ShardedLineage", "SHARDED_LINEAGE_FORMAT_VERSION"]

#: Version of the sharded lineage file schema; bump when it changes.
SHARDED_LINEAGE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ShardEpochRecord:
    """Provenance of one successfully built sharded epoch."""

    epoch: int
    epsilon: float
    #: shard ids re-released this epoch (sorted)
    refreshed: tuple[int, ...]
    #: the complete per-shard identity served after this epoch
    shard_keys: tuple[ReleaseKey, ...]
    rows_ingested: int
    total_rows: float

    @property
    def num_shards(self) -> int:
        return len(self.shard_keys)

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "epsilon": self.epsilon,
            "refreshed": list(self.refreshed),
            "shards": [key.to_json() for key in self.shard_keys],
            "rows_ingested": self.rows_ingested,
            "total_rows": self.total_rows,
        }

    @classmethod
    def from_json(cls, entry: dict) -> "ShardEpochRecord":
        try:
            shards = entry["shards"]
            refreshed = entry["refreshed"]
            if not isinstance(shards, list) or not isinstance(refreshed, list):
                raise ValueError("'shards' and 'refreshed' must be lists")
            return cls(
                epoch=int(entry["epoch"]),
                epsilon=float(entry["epsilon"]),
                refreshed=tuple(int(s) for s in refreshed),
                shard_keys=tuple(ReleaseKey.from_json(k) for k in shards),
                rows_ingested=int(entry["rows_ingested"]),
                total_rows=float(entry["total_rows"]),
            )
        except (KeyError, TypeError, ValueError, ReproError) as error:
            raise ReleaseStoreError(
                f"malformed sharded epoch lineage entry: {error}"
            ) from error


class ShardedLineage(LineageLedger[ShardEpochRecord]):
    """The sharded stream's ledger: one :class:`ShardEpochRecord` per epoch.

    The load, contiguity check, atomic persist and rollback are
    :class:`~repro.streaming.lineage.LineageLedger`'s.
    """

    record_type = ShardEpochRecord
    version_field = "sharded_lineage_format_version"
    format_version = SHARDED_LINEAGE_FORMAT_VERSION
    describe = "sharded epoch lineage"
    file_suffix = ".sharded.json"

    def append(self, record: ShardEpochRecord) -> None:
        """Record one built epoch; epochs must arrive in order, gap-free."""
        super().append(record)
