"""LOCK001 fixture: a base class whose guarded counter a subclass inherits."""

import threading


class Ticker:
    def __init__(self):
        self._lock = threading.Lock()
        self._ticks = 0  # guarded-by: _lock

    def tick(self):
        with self._lock:
            self._ticks += 1
