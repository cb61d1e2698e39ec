"""Unit tests for single-flight request coalescing."""

import threading

import pytest

from repro.server import Coalescer


class TestCoalescer:
    def test_sequential_runs_never_coalesce(self):
        co = Coalescer()
        calls = []
        for _ in range(3):
            value, coalesced, _ = co.run("k", lambda: calls.append(1) or len(calls))
            assert coalesced is False
        assert len(calls) == 3
        assert co.in_flight() == 0

    def test_concurrent_identical_keys_execute_once(self):
        co = Coalescer()
        gate = threading.Event()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            gate.wait(timeout=10)
            return "answer"

        results = []

        def request():
            results.append(co.run("k", compute))

        threads = [threading.Thread(target=request) for _ in range(6)]
        threads[0].start()
        # Wait for the leader to be inside compute() before followers join.
        for _ in range(500):
            if calls:
                break
            threading.Event().wait(0.01)
        for t in threads[1:]:
            t.start()
        for _ in range(500):
            if co._flights.get("k") is not None and co._flights["k"].followers == 5:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)

        assert len(calls) == 1, "coalesced duplicates must execute once"
        values = [v for v, _, _ in results]
        flags = sorted(c for _, c, _ in results)
        assert values == ["answer"] * 6
        assert flags == [False] + [True] * 5

    def test_distinct_keys_do_not_share(self):
        co = Coalescer()
        gate = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            gate.wait(timeout=10)
            return "slow"

        holder = {}
        t = threading.Thread(target=lambda: holder.update(r=co.run("a", slow)))
        t.start()
        assert started.wait(timeout=5)
        value, coalesced, _ = co.run("b", lambda: "fast")
        assert (value, coalesced) == ("fast", False)
        assert co.in_flight() == 1
        gate.set()
        t.join(timeout=5)
        assert holder["r"] == ("slow", False, None)

    def test_leader_exception_propagates_to_followers(self):
        co = Coalescer()
        gate = threading.Event()
        entered = threading.Event()

        def explode():
            entered.set()
            gate.wait(timeout=10)
            raise ValueError("census failed")

        outcomes = []

        def request():
            try:
                co.run("k", explode)
                outcomes.append("ok")
            except ValueError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=request) for _ in range(3)]
        threads[0].start()
        assert entered.wait(timeout=5)
        for t in threads[1:]:
            t.start()
        for _ in range(500):
            if co._flights.get("k") is not None and co._flights["k"].followers == 2:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert outcomes == ["census failed"] * 3

    def test_error_is_not_sticky(self):
        co = Coalescer()
        with pytest.raises(ValueError):
            co.run("k", lambda: (_ for _ in ()).throw(ValueError("once")))
        value, coalesced, _ = co.run("k", lambda: "fine")
        assert (value, coalesced) == ("fine", False)
