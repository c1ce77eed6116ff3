"""Forked worker processes for the pipeline's independent sections.

``threads`` (the config field, ``--threads``, ``ORBITROLES_THREADS``) is the
number of worker processes, and by default the number of CPUs this process
may run on. Two sections use them. GraphWave runs on a worker while the
parent counts orbits and runs RolX, and a second worker then writes
GraphWave's CSV at the lowest CPU priority; the sweep deals its k-means
cells over the workers. A section forks once its inputs exist, so each
worker reads them from the pages it shares with the parent, and only its
result comes back, pickled, through a pipe. Results are collected by
position, so the outputs do not depend on the worker count. With one
worker, or where ``os.fork`` does not exist, every task runs inline in the
parent, which is the only path on a one-CPU host.

The workers are forked, not spawned: a spawned worker would import numpy
and this package afresh and be sent its inputs, which costs about as much
as the sections take. No process of the package starts a thread; OpenBLAS
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
    """Worker count: an explicit value wins, then ORBITROLES_THREADS (a
    value that is not an integer is an error naming it), then the CPUs this
    process may run on."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"{_ENV_THREADS}: {exc}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Task:
    """``fn()`` on a forked worker, or inline in the parent.

    With ``fork`` true (and ``os.fork`` available) the worker starts at
    once and sees the parent's memory as it was at the fork. ``result()``,
    called once, returns the worker's value or raises its exception, and
    reaps the worker. An inline task calls ``fn`` in ``result()``.
    ``seconds`` is the wall time of ``fn`` wherever it ran. As a context
    manager, leaving the block kills and reaps a worker that has not been
    reaped.
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
            self._fn, self._pid, self._reader = None, pid, os.fdopen(read, "rb")

    def result(self):
        """fn's value, or its exception raised here. A worker is reaped,
        and killed first if the read is cut short (an interrupt) or
        unreadable."""
        if self._pid is None:
            start = time.perf_counter()
            value = self._fn()
            self.seconds = time.perf_counter() - start
            return value
        try:
            ok, value, self.seconds = pickle.load(self._reader)
        except Exception as exc:
            self.cancel()
            raise WorkerError(f"worker sent no readable result ({exc!r})") from None
        except BaseException:
            self.cancel()
            raise
        # the worker has sent its one message and is exiting
        self.cancel(kill=False)
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
        self._reader.close()
        self._pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cancel()


def _serve(fn, fd):
    """The worker's side: write the outcome of ``fn()``, (True, value) or
    (False, exception), pickled with its seconds, to ``fd``, and exit,
    never returning into the code that forked. An unpicklable value or
    exception is sent as a WorkerError."""
    status = 1
    try:
        start = time.perf_counter()
        try:
            outcome = (True, fn())
        except BaseException as exc:  # raised again in the parent
            outcome = (False, exc)
        seconds = time.perf_counter() - start
        try:
            data = pickle.dumps(outcome + (seconds,), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = WorkerError(f"worker result not picklable: {exc!r}; {outcome[1]!r}")
            data = pickle.dumps((False, error, seconds))
        with os.fdopen(fd, "wb") as out:
            out.write(data)
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
