"""Request coalescing: concurrent identical queries share one execution.

A census is expensive and deterministic, so when several clients ask
the same question at the same graph version simultaneously, running it
once and fanning the answer out is pure win (*Subgraph Enumeration in
Massive Graphs* makes the same amortization argument for repeated
enumerations).  :class:`Coalescer` implements single-flight execution:
the first arrival for a key becomes the **leader** and computes; later
arrivals for the same key become **followers** and block on the
leader's completion, sharing its result — or its exception, which is
just as deterministic.

Keys must capture everything the result depends on; the daemon uses
``(canonical query text, graph version, engine options, budget spec,
degrade flag)``, so two requests only ever share an execution when any
correct server would have returned them byte-identical answers.

Coalescing is *not* a cache: a flight exists only while the leader is
executing.  Result reuse across time is the query engine's
version-keyed aggregate cache; reuse across concurrent identical
requests is this module.
"""

import threading


class _Flight:
    """One in-progress execution and its eventual outcome."""

    __slots__ = ("done", "value", "error", "followers", "token")

    def __init__(self, token=None):
        self.done = threading.Event()
        self.value = None
        self.error = None
        self.followers = 0
        self.token = token


class Coalescer:
    """Single-flight execution keyed on request identity."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights = {}

    def run(self, key, compute, token=None):
        """Execute ``compute()`` once per concurrent batch of ``key``.

        Returns ``(value, coalesced, leader_token)``: ``coalesced`` is
        ``True`` for followers that shared a leader's execution, and
        ``leader_token`` is the opaque ``token`` the leader passed (its
        request ID, for the serving path), so followers can link their
        trace to the execution that actually answered them.  The leader
        sees its own token back.  A leader's exception propagates to
        the leader and every follower alike.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.followers += 1
                is_leader = False
            else:
                flight = _Flight(token=token)
                self._flights[key] = flight
                is_leader = True

        if not is_leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, True, flight.token

        try:
            flight.value = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Unpublish before waking followers: arrivals from this
            # moment on start a fresh flight instead of joining a
            # finished one.
            with self._lock:
                del self._flights[key]
            flight.done.set()
        return flight.value, False, flight.token

    def in_flight(self):
        """Number of distinct executions currently running."""
        with self._lock:
            return len(self._flights)
