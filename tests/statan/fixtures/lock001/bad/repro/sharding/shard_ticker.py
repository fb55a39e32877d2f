"""LOCK001 fixture: a subclass in another module breaks an inherited guard."""

from repro.streaming.ticker import Ticker


class ShardTicker(Ticker):
    def reset(self):
        # Violation: the counter is guarded by the base class's lock, and
        # the guard applies in the subclass too.
        self._ticks = 0
