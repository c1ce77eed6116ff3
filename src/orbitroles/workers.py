"""Forked worker processes for the pipeline's independent sections.

``threads`` (the config field, ``--threads``, ``ORBITROLES_THREADS``) is the
number of worker processes, and by default the number of CPUs this process
may run on. Three sections use them: GraphWave runs on a worker while
the parent counts orbits and runs RolX, and goes on to write its CSV until
the parent joins it (``Task``'s ``then``); the sweep deals its k-means
cells over the workers; and ``pipeline`` writes a GraphWave CSV left
unwritten on a worker that starts with stage explain, which with idr
leaves a CPU idle, and is joined after idr (a writer beside the sweep
would take a CPU from its k-means shares). A section forks once its
inputs exist, so each worker reads them from the pages it shares with the
parent, and only its result comes back, pickled, through a pipe. Results
are collected by position, so the outputs do not depend on the worker
count. With one worker, or where ``os.fork`` does not exist, every task
runs inline in the parent, which is the only path on a one-CPU host.

The workers are forked, not spawned: a spawned worker would import numpy
and this package afresh and be sent its inputs, which costs about as much
as the sections take. The parent starts no threads of its own (a worker
with a follow-up sends its value from a second thread); OpenBLAS stops its
thread pool across ``fork`` with its own handler. (From Python
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

    ``then``, if given, is a follow-up that a forked worker runs on fn's
    value as it sends it, in the time until the parent asks for
    ``then_seconds()``: ``result()`` leaves the worker running, and
    ``then_seconds()`` reaps it and returns the seconds ``then`` took, or
    None when ``then`` had not run to the end by then (the worker is
    killed), failed, or the task ran inline. So ``then`` must be safe to
    cut short and to run again.
    """

    def __init__(self, fn, fork: bool, then=None):
        self.seconds = None
        self._fn, self._pid, self._done = fn, None, None
        if fork and hasattr(os, "fork"):
            read, write = os.pipe()
            done = os.pipe() if then is not None else (None, None)
            pid = os.fork()
            if pid == 0:
                os.close(read)
                if then is not None:
                    os.close(done[0])
                _serve(fn, write, then, done[1])
            os.close(write)
            if then is not None:
                os.close(done[1])
            # no inline fallback: a second result() must not run fn again
            self._fn, self._pid, self._read, self._done = None, pid, read, done[0]

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
            # at EOF the worker has written everything and is exiting, or
            # runs ``then``; a read cut short (an interrupt) kills it
            if not complete or self._done is None:
                self.cancel(kill=not complete)
        try:
            ok, value, self.seconds = pickle.loads(b"".join(chunks))
        except Exception as exc:
            raise WorkerError(f"worker sent no readable result ({exc!r})") from None
        if not ok:
            self.cancel()
            raise value
        return value

    def then_seconds(self):
        """The seconds ``then`` took on the worker, or None (see the class);
        reaps the worker."""
        if self._pid is None:
            return None
        os.set_blocking(self._done, False)
        try:
            data = os.read(self._done, 1 << 12)
        except BlockingIOError:
            data = None  # still running ``then``
        # a worker that has sent its seconds is exiting
        self.cancel(kill=not data)
        return pickle.loads(data) if data else None

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
        if self._done is not None:
            os.close(self._done)
        self._pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cancel()


def _write(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _serve(fn, fd, then=None, done=None):
    """The worker's side: run ``fn`` and write (ok, value or exception,
    seconds) pickled to ``fd``; with ``then``, run it on the value while a
    second thread writes the value, and write its seconds (None if it
    raised) to ``done``. Then exit, never returning into the code that
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
            payload = (False, error)
            data = pickle.dumps(payload + (seconds,))
        if then is None or not payload[0]:
            _write(fd, data)
        else:
            # a pipe holds 64 KiB, so the value goes out from a second
            # thread while ``then`` runs, and the parent reads it at EOF
            import threading

            def send():
                _write(fd, data)
                os.close(fd)

            sender = threading.Thread(target=send)
            sender.start()
            start = time.perf_counter()
            try:
                then(payload[1])
                seconds = time.perf_counter() - start
            except Exception:
                seconds = None
            _write(done, pickle.dumps(seconds))
            sender.join()
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
