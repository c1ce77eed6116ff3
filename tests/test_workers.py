import os
import time

import numpy as np
import pytest

from orbitroles.workers import Task, WorkerError, map_shares, resolve_threads

from util import assert_no_children


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class TestTask:
    def test_result_larger_than_a_pipe_buffer(self):
        want = np.random.default_rng(0).normal(size=(2600, 128))
        task = Task(lambda: want, fork=True)
        got = task.result()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert task.seconds >= 0.0
        assert_no_children()

    def test_worker_sees_memory_at_fork(self):
        box = [1]
        task = Task(lambda: box[0], fork=True)
        box[0] = 2
        assert task.result() == 1
        assert_no_children()

    def test_exception_raised_in_parent(self):
        def fail():
            raise ValueError("from the worker")

        with pytest.raises(ValueError, match="from the worker"):
            Task(fail, fork=True).result()
        assert_no_children()

    def test_unreadable_exception_named(self):
        def fail():
            raise Unpicklable(1, 2)

        with pytest.raises(WorkerError, match="no readable result"):
            Task(fail, fork=True).result()
        assert_no_children()

    def test_worker_killed_without_result(self):
        with pytest.raises(WorkerError):
            Task(lambda: os._exit(3), fork=True).result()
        assert_no_children()

    def test_leaving_the_block_kills_the_worker(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent"):
            with Task(lambda: time.sleep(60), fork=True):
                raise RuntimeError("parent")
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_inline_runs_at_result(self):
        calls = []
        task = Task(lambda: calls.append(os.getpid()) or "done", fork=False)
        assert calls == []
        assert task.result() == "done"
        assert calls == [os.getpid()]
        assert task.seconds >= 0.0


class TestMapShares:
    @pytest.mark.parametrize("workers", [1, 2, 3, 9])
    def test_results_in_item_order(self, workers):
        results, seconds = map_shares(lambda x: (x * x, os.getpid()), range(7), workers)
        assert [r for r, _ in results] == [x * x for x in range(7)]
        assert len(seconds) == min(workers, 7)
        pids = {pid for _, pid in results}
        assert len(pids) == min(workers, 7) and os.getpid() in pids
        assert_no_children()

    def test_interrupt_in_parent_share_reaps_workers(self):
        parent = os.getpid()

        def cell(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            map_shares(cell, range(4), 3)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_worker_error_reaps_the_others(self):
        def cell(x):
            if x == 1:
                raise ValueError("cell 1")
            return x

        with pytest.raises(ValueError, match="cell 1"):
            map_shares(cell, range(6), 3)
        assert_no_children()


class TestResolveThreads:
    def test_default_is_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("ORBITROLES_THREADS", raising=False)
        assert resolve_threads() == len(os.sched_getaffinity(0))

    def test_flag_then_environment(self, monkeypatch):
        monkeypatch.setenv("ORBITROLES_THREADS", "3")
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2
        assert resolve_threads(0) == 1
        monkeypatch.setenv("ORBITROLES_THREADS", "many")
        assert resolve_threads() == 1
