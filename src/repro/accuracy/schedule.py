"""Adaptive per-shard ε allocation for sharded streaming refresh.

The uniform policy refreshes every shard that saw *any* arrivals, so
under a decaying ε schedule a cold shard's accurate early release keeps
getting replaced by a noisy late-ε rebuild — trickle arrivals destroy
accuracy.  :class:`AdaptiveEpsilonAllocator` instead tracks the arrival
hot set (an exponential moving average per shard) and each epoch grants
the schedule's envelope ε only to the hottest shards (plus any shard
whose last granted ε has fallen below the tenant's SLO requirement);
cold shards keep serving their accurate old release.

**ε invariants** (audited by the ledger tests):

* every per-shard grant satisfies ``0 < grant <= epsilon_for(epoch)``,
  and whenever any shard is granted, at least one grant equals the
  envelope — so by parallel composition over the disjoint shards the
  epoch's privacy cost *is* ``epsilon_for(epoch)``, exactly what the
  uniform policy charges;
* the engine's lineage/budget accounting is untouched: the epoch record
  and the one ``spend()`` both carry the envelope, so Σε lifetime
  accounting is bit-identical to a non-adaptive schedule and
  :class:`repro.obs.ledger.EpsilonLedgerExporter` audits pass unchanged.

The allocator duck-types :class:`repro.streaming.policy.EpsilonSchedule`
(``epsilon_for`` / ``total_through`` delegate to the wrapped schedule)
so it drops into every engine and CLI surface that accepts a schedule.
Engines detect the extra capability through the ``allocates_per_shard``
marker attribute.  The EMA/grant state is advisory only — it steers
*which* shards refresh, never *how much* is charged — so it is owned by
one engine and rebuilt empty on warm restart, and it moves only when
the engine commits the :class:`Allocation` of an epoch it published.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.accuracy.slo import AccuracySLO, required_epsilon
from repro.exceptions import ReproError

__all__ = ["AdaptiveEpsilonAllocator", "Allocation"]


class Allocation(NamedTuple):
    """One epoch's per-shard grants and the steering state they imply."""

    grants: np.ndarray
    arrival_ema: np.ndarray
    last_grant: np.ndarray


class AdaptiveEpsilonAllocator:
    """Hot-set-driven refresh grants under a fixed ε envelope schedule.

    Parameters
    ----------
    schedule:
        The wrapped ε envelope (any ``EpsilonSchedule``); its per-epoch
        ε bounds every grant and is what the engine charges.
    hot_fraction:
        Fraction of shards refreshed per epoch (at least one).
    smoothing:
        EMA coefficient for per-shard arrival rates in ``(0, 1]``;
        1.0 means "this epoch's arrivals only".
    min_refresh_rows:
        Shards with fewer pending rows are never granted (nothing new to
        release).
    slo + slo_estimator + slo_domain_size + slo_branching:
        Optional tenant declaration: shards whose last granted ε is
        below :func:`repro.accuracy.slo.required_epsilon` for this SLO
        jump the EMA ranking (observed SLO slack, spent first).
    """

    #: Capability marker checked by the sharded streaming engine.
    allocates_per_shard = True

    def __init__(
        self,
        schedule,
        *,
        hot_fraction: float = 0.25,
        smoothing: float = 0.5,
        min_refresh_rows: int = 1,
        slo: AccuracySLO | None = None,
        slo_estimator: str = "L~",
        slo_domain_size: int | None = None,
        slo_branching: int = 2,
    ) -> None:
        if not 0.0 < hot_fraction <= 1.0:
            raise ReproError(
                f"hot_fraction must be in (0, 1], got {hot_fraction}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise ReproError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if min_refresh_rows < 1:
            raise ReproError(
                f"min_refresh_rows must be >= 1, got {min_refresh_rows}"
            )
        if slo is not None and slo_domain_size is None:
            raise ReproError(
                "slo_domain_size is required when an SLO drives allocation"
            )
        self.schedule = schedule
        self.hot_fraction = float(hot_fraction)
        self.smoothing = float(smoothing)
        self.min_refresh_rows = int(min_refresh_rows)
        self.slo = slo
        self._required_epsilon = (
            required_epsilon(
                slo,
                estimator=slo_estimator,
                domain_size=int(slo_domain_size),
                branching=slo_branching,
            )
            if slo is not None
            else 0.0
        )
        # Advisory steering state, owned by the one engine driving this
        # allocator (replaced only by commit(), under its refresh lock).
        self._arrival_ema: np.ndarray | None = None
        self._last_grant: np.ndarray | None = None

    # -- EpsilonSchedule surface (delegates to the wrapped envelope) ------

    def epsilon_for(self, epoch: int) -> float:
        """The envelope ε for ``epoch`` — the amount the engine charges."""
        return self.schedule.epsilon_for(epoch)

    def total_through(self, epoch: int) -> float:
        """Cumulative envelope ε through ``epoch``."""
        return self.schedule.total_through(epoch)

    # -- adaptive surface --------------------------------------------------

    @property
    def arrival_ema(self) -> np.ndarray | None:
        """The smoothed per-shard arrival rates (None before first epoch)."""
        ema = self._arrival_ema
        return None if ema is None else ema.copy()

    def allocate(
        self, epoch: int, shard_rows, *, bootstrap: bool = False
    ) -> Allocation:
        """Per-shard ε grants for ``epoch`` given pending arrival counts.

        Returns an :class:`Allocation` with ``grants[s] ==
        epsilon_for(epoch)`` for shards selected to refresh and ``0.0``
        for shards that keep their current release.  ``bootstrap=True``
        (no release assembled yet) grants every shard.  Changes nothing:
        pass the result to :meth:`commit` once the epoch is published.
        """
        rows = np.asarray(shard_rows, dtype=np.float64)
        if rows.ndim != 1 or rows.size == 0:
            raise ReproError(
                f"shard_rows must be a non-empty vector, got shape "
                f"{rows.shape}"
            )
        envelope = float(self.schedule.epsilon_for(epoch))
        if self._arrival_ema is None or self._arrival_ema.size != rows.size:
            ema = rows.copy()
            last_grant = np.zeros(rows.size, dtype=np.float64)
        else:
            ema = self.smoothing * rows + (1.0 - self.smoothing) * self._arrival_ema
            last_grant = self._last_grant.copy()
        grants = np.zeros(rows.size, dtype=np.float64)
        if bootstrap:
            grants[:] = envelope
            last_grant[:] = envelope
            return Allocation(grants, ema, last_grant)
        eligible = rows >= self.min_refresh_rows
        if not np.any(eligible):
            return Allocation(grants, ema, last_grant)
        budget = max(1, math.ceil(self.hot_fraction * rows.size))
        # Rank eligible shards: SLO-starved first, then hottest EMA, then
        # lowest index — a total order, so the selection is deterministic.
        starved = (
            eligible & (last_grant < self._required_epsilon)
            if self.slo is not None
            else np.zeros(rows.size, dtype=bool)
        )
        order = np.lexsort(
            (
                np.arange(rows.size),
                -ema,
                ~starved,
                ~eligible,
            )
        )
        chosen = order[: min(budget, int(np.count_nonzero(eligible)))]
        grants[chosen] = envelope
        last_grant[chosen] = envelope
        return Allocation(grants, ema, last_grant)

    def commit(self, allocation: Allocation) -> None:
        """Adopt the steering state of an allocation whose epoch published."""
        self._arrival_ema = allocation.arrival_ema
        self._last_grant = allocation.last_grant
