"""Tests for UniFuture."""

import sys
import threading

import pytest

from repro.core.futures import FutureState, UniFuture


class TestResolution:
    def test_initial_state(self):
        fut = UniFuture("t1")
        assert not fut.done()
        assert fut.state == FutureState.PENDING
        assert fut.task_id == "t1"

    def test_set_result(self):
        fut = UniFuture("t1")
        fut.set_result(42)
        assert fut.done()
        assert fut.result() == 42
        assert fut.exception() is None

    def test_set_exception(self):
        fut = UniFuture("t1")
        err = ValueError("boom")
        fut.set_exception(err)
        assert fut.done()
        assert fut.exception() is err
        with pytest.raises(ValueError):
            fut.result()

    def test_double_resolution_rejected(self):
        fut = UniFuture("t1")
        fut.set_result(1)
        with pytest.raises(RuntimeError):
            fut.set_result(2)
        with pytest.raises(RuntimeError):
            fut.set_exception(ValueError())

    def test_result_none_is_valid(self):
        fut = UniFuture("t1")
        fut.set_result(None)
        assert fut.done()
        assert fut.result() is None

    def test_cancel(self):
        fut = UniFuture("t1")
        assert fut.cancel()
        assert fut.cancelled()
        with pytest.raises(RuntimeError):
            fut.result()

    def test_cancel_after_resolution_fails(self):
        fut = UniFuture("t1")
        fut.set_result(1)
        assert not fut.cancel()
        assert not fut.cancelled()


class TestBlocking:
    def test_result_timeout(self):
        fut = UniFuture("t1")
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)

    def test_result_blocks_until_set_from_thread(self):
        fut = UniFuture("t1")

        def resolver():
            fut.set_result("late")

        t = threading.Timer(0.05, resolver)
        t.start()
        assert fut.result(timeout=2.0) == "late"
        t.join()


    def test_wait_event_exists_only_once_somebody_waits(self):
        # The simulated fabric resolves one future per task and blocks on none.
        quiet = UniFuture("t1")
        quiet.set_result(1)
        assert quiet.result() == 1 and quiet._event is None
        waited = UniFuture("t2")
        with pytest.raises(TimeoutError):
            waited.result(timeout=0.01)
        assert waited._event is not None
        waited.set_result(2)
        assert waited.result(timeout=0) == 2

    def test_waiters_racing_resolvers_all_wake(self):
        # More threads than cores and a short switch interval: a waiter that
        # creates its event just as the resolver looks for one must not sleep
        # through the resolution.
        futures = [UniFuture(f"t{i}") for i in range(200)]
        results = []

        def wait_all():
            results.append([f.result(timeout=10.0) for f in futures])

        def resolve(chunk):
            for fut in chunk:
                fut.set_result(fut.task_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=wait_all) for _ in range(6)]
            threads += [
                threading.Thread(target=resolve, args=(futures[k::4],)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[f.task_id for f in futures]] * 6


class TestCallbacks:
    def test_callback_on_resolution(self):
        fut = UniFuture("t1")
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.set_result(7)
        assert seen == [7]

    def test_callback_added_after_resolution_runs_immediately(self):
        fut = UniFuture("t1")
        fut.set_result(7)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [7]

    def test_callbacks_run_on_failure_and_cancel(self):
        for resolver in (lambda f: f.set_exception(ValueError()), lambda f: f.cancel()):
            fut = UniFuture("t")
            seen = []
            fut.add_done_callback(lambda f: seen.append(f.state))
            resolver(fut)
            assert len(seen) == 1
