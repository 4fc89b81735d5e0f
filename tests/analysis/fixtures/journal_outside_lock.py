"""A server that reaches the tracker's dirty-index journal without its lock.

Never imported — parsed only.  ``handle`` does what
``ParameterServer.handle`` does: ``apply_update`` and ``model_difference``
under ``self._lock``, both of which mutate ``tracker._journal``.  That makes
``tracker`` guarded state, so the two methods below race with it.
Expected findings:

* ``journal_depth`` — 1 × LCK001 (reads the journal a locked writer prunes)
* ``forget``        — 1 × LCK001 (clears it under a concurrent reply)
"""

import threading


class JournalServer:
    def __init__(self, tracker):
        self._lock = threading.Lock()
        self.tracker = tracker

    def handle(self, worker, update):
        with self._lock:
            self.tracker.apply_update(update)
            return self.tracker.model_difference(worker)

    def journal_depth(self):
        return len(self.tracker._journal)

    def forget(self):
        self.tracker._journal.clear()

    def staleness(self, worker):
        with self._lock:
            return self.tracker.staleness(worker)
