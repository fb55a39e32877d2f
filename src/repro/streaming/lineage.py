"""Durable lineage of a stream's epochs.

Every successful epoch build appends one :class:`EpochRecord` — the epoch
index, the full :class:`~repro.serving.release.ReleaseKey` of the release
it produced, the ε it charged, and how many rows it folded in.  The
lineage is the stream's public provenance:

* it is safe to persist and share — it holds release identities and ε
  values (outputs of the accounting), never true counts;
* it lets a restarted engine resume exactly where the stream left off:
  the next epoch index, the next ε on the schedule, and the latest
  release to serve (loaded from the store with **zero** additional ε);
* summed, it is the stream's sequential-composition ledger: the stream is
  (Σ εᵢ)-differentially private over its whole history, across process
  restarts.

When bound to a file the lineage is rewritten atomically (temp file +
``os.replace``) after every append, mirroring the release store's
crash-safety protocol.  :class:`LineageLedger` holds that protocol once
for both stream kinds; :class:`EpochLineage` and
:class:`~repro.sharding.lineage.ShardedLineage` name only their record
type and file-format field.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Generic, TypeVar

from repro import faults
from repro.exceptions import LineageConflictError, ReleaseStoreError
from repro.faults.injector import CrashFault, FaultError
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.serving.release import ReleaseKey
from repro.utils.io_atomic import atomic_write_json

__all__ = [
    "EpochRecord",
    "EpochLineage",
    "LineageLedger",
    "LINEAGE_FORMAT_VERSION",
]

#: Version of the lineage file schema; bump when the layout changes.
LINEAGE_FORMAT_VERSION = 1

R = TypeVar("R")


@dataclass(frozen=True)
class EpochRecord:
    """Provenance of one successfully built epoch."""

    epoch: int
    key: ReleaseKey
    epsilon: float
    rows_ingested: int
    total_rows: float

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "dataset_fingerprint": self.key.dataset_fingerprint,
            "estimator": self.key.estimator,
            "epsilon": self.epsilon,
            "branching": self.key.branching,
            "seed": self.key.seed,
            "rows_ingested": self.rows_ingested,
            "total_rows": self.total_rows,
        }

    @classmethod
    def from_json(cls, entry: dict) -> "EpochRecord":
        try:
            key = ReleaseKey(
                dataset_fingerprint=str(entry["dataset_fingerprint"]),
                estimator=str(entry["estimator"]),
                epsilon=float(entry["epsilon"]),
                branching=int(entry["branching"]),
                seed=int(entry["seed"]),
            )
            return cls(
                epoch=int(entry["epoch"]),
                key=key,
                epsilon=float(entry["epsilon"]),
                rows_ingested=int(entry["rows_ingested"]),
                total_rows=float(entry["total_rows"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReleaseStoreError(
                f"malformed epoch lineage entry {entry!r}: {error}"
            ) from error


class LineageLedger(Generic[R]):
    """An append-only, optionally file-backed ledger of epoch records.

    The one implementation behind both stream lineages: loading with a
    contiguity check, gap-free appends, the atomic persist after every
    append, and the rollback of an append whose persist failed.  A
    subclass names only its record type (which must carry ``epoch`` and
    ``epsilon`` and convert to and from JSON) and the field its file
    stores the format version under.

    Parameters
    ----------
    path:
        When given, the lineage is loaded from (and persisted to) this
        JSON file; ``None`` keeps it in memory only.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` for the
        per-append persist.  The ε-charged build already happened by the
        time an append runs, so retrying the persist never re-charges
        anything — it only narrows the window in which a charge could be
        orphaned by a transient disk error.
    """

    #: the record class the file's ``epochs`` list holds
    record_type: type
    #: the document field holding the file format version
    version_field: str
    #: the newest file format this class reads and the one it writes
    format_version: int
    #: how error messages name the file
    describe: str
    #: the file's suffix under ``<store>/streams/``
    file_suffix: str

    def __init__(self, path=None, *, retry: RetryPolicy | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.retry = retry
        self._lock = threading.Lock()
        self._records: list[R] = []
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError) as error:
            raise ReleaseStoreError(
                f"cannot read {self.describe} {self.path}: {error}"
            ) from error
        version = document.get(self.version_field)
        if not isinstance(version, int) or version > self.format_version:
            raise ReleaseStoreError(
                f"{self.describe} {self.path} has format version {version!r}, "
                f"newer than the supported {self.format_version}"
            )
        epochs = document.get("epochs")
        if not isinstance(epochs, list):
            raise ReleaseStoreError(f"{self.describe} {self.path} has no epoch list")
        records = [self.record_type.from_json(entry) for entry in epochs]
        for i, record in enumerate(records):
            if record.epoch != i:
                raise LineageConflictError(
                    f"{self.describe} {self.path} is not contiguous: position "
                    f"{i} records epoch {record.epoch}"
                )
        self._records = records

    def _persist(self) -> None:
        document = {
            self.version_field: self.format_version,
            "epochs": [record.to_json() for record in self._records],
        }

        def write() -> None:
            if faults.enabled():
                faults.check("lineage.append")
            atomic_write_json(self.path, document)

        if self.retry is None:
            write()
        else:
            run_with_retry(
                self.retry, write, describe=f"persist lineage {self.path.name}"
            )

    # -- appends ---------------------------------------------------------------

    def append(self, record: R) -> None:
        """Record one built epoch; epochs must arrive in order, gap-free."""
        with self._lock:
            expected = len(self._records)
            if record.epoch != expected:
                raise LineageConflictError(
                    f"epoch {record.epoch} appended out of order; lineage "
                    f"expects epoch {expected} next"
                )
            self._records.append(record)
            if self.path is not None:
                try:
                    self._persist()
                except CrashFault:
                    # A simulated process death: roll the in-memory append
                    # back so a surviving object matches the on-disk
                    # ledger, which still ends at the previous epoch —
                    # exactly what a real crash leaves for the restart
                    # path to resume from.
                    self._records.pop()
                    raise
                except (OSError, FaultError) as error:
                    self._records.pop()
                    raise ReleaseStoreError(
                        f"cannot persist {self.describe} to {self.path}: {error}"
                    ) from error

    # -- introspection ---------------------------------------------------------

    @property
    def records(self) -> list[R]:
        """All epoch records so far, oldest first (copy)."""
        with self._lock:
            return list(self._records)

    @property
    def latest(self) -> R | None:
        """The most recent epoch record, or ``None`` before epoch 0."""
        with self._lock:
            return self._records[-1] if self._records else None

    @property
    def next_epoch(self) -> int:
        """The index the next built epoch will get."""
        with self._lock:
            return len(self._records)

    @property
    def spent_epsilon(self) -> float:
        """Σ εᵢ over the recorded epochs — the stream's composition ledger.

        Summed left to right, matching the order the charges happened.
        """
        total = 0.0
        for record in self.records:
            total += record.epsilon
        return total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(epochs={len(self)}, "
            f"path={str(self.path)!r})"
        )


class EpochLineage(LineageLedger[EpochRecord]):
    """The monolithic stream's ledger: one :class:`EpochRecord` per epoch."""

    record_type = EpochRecord
    version_field = "lineage_format_version"
    format_version = LINEAGE_FORMAT_VERSION
    describe = "epoch lineage"
    file_suffix = ".json"

    def append(self, record: EpochRecord) -> None:
        """Record one built epoch; epochs must arrive in order, gap-free."""
        super().append(record)
