"""Forked worker processes for the pipeline's independent sections.

``threads`` (the config field, ``--threads``, ``ORBITROLES_THREADS``) is the
number of worker processes, and by default the number of CPUs this process
may run on. Two sections use them: GraphWave and its CSV run on a worker
while the parent counts orbits and runs RolX, and the sweep deals its
k-means cells over the workers. A section forks once its inputs exist, so
each worker reads them from the pages it shares with the parent, and only
its result comes back, pickled, through a pipe. Results are collected by
position, so the outputs do not depend on the worker count. With one
worker, or where ``os.fork`` does not exist, every task runs inline in the
parent, which is the only path on a one-CPU host.

The workers are forked, not spawned: a spawned worker would import numpy
and this package afresh and be sent its inputs, which costs about as much
as the sections take. The program starts no threads of its own; OpenBLAS
stops its thread pool across ``fork`` with its own handler. (From Python
3.12 on, ``os.fork`` in a process with such threads also emits a
DeprecationWarning, which is hidden by default.)

Memory adds up over the lanes that run at the same time: GraphWave's
dense per-component matrices (1.6 GB at BA n = 5000) sit beside the
census's working set.
"""

from __future__ import annotations

import os
import pickle
import time
from functools import partial

_ENV_THREADS = "ORBITROLES_THREADS"


class WorkerError(RuntimeError):
    """A worker ended without a readable result."""


def resolve_threads(requested=None) -> int:
    """Worker count: an explicit value wins, then ORBITROLES_THREADS (1 if
    it is not an integer), then the CPUs this process may run on."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Task:
    """``fn()`` on a forked worker, or inline in the parent.

    With ``fork`` true (and ``os.fork`` available) the worker starts at
    once and sees the parent's memory as it was at the fork. ``result()``,
    called once, returns the worker's value or raises its exception, and
    reaps it. An inline task calls ``fn`` in ``result()``. ``seconds`` is
    the wall time of ``fn`` wherever it ran. As a context manager, leaving
    the block kills and reaps a worker whose result was never read.
    """

    def __init__(self, fn, fork: bool):
        self.seconds = None
        self._fn, self._pid = fn, None
        if fork and hasattr(os, "fork"):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _serve(fn, write)
            os.close(write)
            # no inline fallback: a second result() must not run fn again
            self._fn, self._pid, self._read = None, pid, read

    def result(self):
        if self._pid is None:
            start = time.perf_counter()
            value = self._fn()
            self.seconds = time.perf_counter() - start
            return value
        chunks, complete = [], False
        try:
            while chunk := os.read(self._read, 1 << 20):
                chunks.append(chunk)
            complete = True
        finally:
            # at EOF the worker has written everything and is exiting; a
            # read cut short (an interrupt) kills it
            self.cancel(kill=not complete)
        try:
            ok, value, self.seconds = pickle.loads(b"".join(chunks))
        except Exception as exc:
            raise WorkerError(f"worker sent no readable result ({exc!r})") from None
        if not ok:
            raise value
        return value

    def cancel(self, kill: bool = True) -> None:
        """Reap the worker, killing it first if ``kill``; a no-op once reaped
        and for an inline task."""
        if self._pid is None:
            return
        if kill:
            # imported here: ``signal`` costs a few ms at start-up, and only
            # a worker left behind needs it
            import signal

            os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)
        os.close(self._read)
        self._pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cancel()


def _serve(fn, fd):
    """The worker's side: run ``fn``, write (ok, value or exception,
    seconds) pickled to ``fd`` and exit, never returning into the code that
    forked."""
    status = 1
    try:
        start = time.perf_counter()
        try:
            payload = (True, fn())
        except BaseException as exc:  # raised again in the parent
            payload = (False, exc)
        seconds = time.perf_counter() - start
        try:
            data = pickle.dumps(payload + (seconds,), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = WorkerError(f"worker result not picklable: {exc!r}; {payload[1]!r}")
            data = pickle.dumps((False, error, seconds))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        status = 0
    finally:
        os._exit(status)


def map_shares(fn, items, workers: int):
    """``[fn(x) for x in items]``, with the items dealt round-robin into at
    most ``workers`` shares: the parent runs the first share and a forked
    worker each other one. Returns the results in item order and each
    share's wall seconds."""
    items = list(items)
    count = max(1, min(workers, len(items)))
    shares = [items[w::count] for w in range(count)]

    def run(share):
        return [fn(x) for x in share]

    tasks = []
    try:
        for share in shares[1:]:
            tasks.append(Task(partial(run, share), fork=True))
        own = Task(partial(run, shares[0]), fork=False)
        parts = [own.result()] + [task.result() for task in tasks]
    finally:
        for task in tasks:
            task.cancel()
    results = [None] * len(items)
    for w, part in enumerate(parts):
        results[w::count] = part
    return results, [own.seconds] + [task.seconds for task in tasks]
