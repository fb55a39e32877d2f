"""LOCK001 fixture: a subclass in another module keeps an inherited guard."""

from repro.streaming.ticker import Ticker


class ShardTicker(Ticker):
    def reset(self):
        with self._lock:
            self._ticks = 0

    def reset_locked(self):
        # The caller holds the base class's lock.
        self._ticks = 0
