"""Forked worker processes for the pipeline's independent sections.

``threads`` (the config field, ``--threads``, ``ORBITROLES_THREADS``) is the
number of worker processes, and by default the number of CPUs this process
may run on. Two sections use them. GraphWave runs on a worker while the
parent counts orbits and runs RolX; once it has sent its embedding, the
worker writes GraphWave's CSV at the lowest CPU priority, and the command
joins that write last (``Task``'s ``then``). The sweep deals its k-means
cells over the workers. A section forks once its inputs exist, so each
worker reads them from the pages it shares with the parent, and only its
result comes back, pickled, through a pipe. Results are collected by
position, so the outputs do not depend on the worker count. With one
worker, or where ``os.fork`` does not exist, every task runs inline in the
parent, which is the only path on a one-CPU host.

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
    called once, returns the worker's value or raises its exception. An
    inline task calls ``fn`` in ``result()``. ``seconds`` is the wall time
    of ``fn`` wherever it ran. As a context manager, leaving the block kills
    and reaps a worker that has not been reaped.

    ``then``, if given, is a follow-up on fn's value, and
    ``then_seconds()``, called once after ``result()``, waits for it to end
    and returns the seconds it took or raises its exception. A forked
    worker runs ``then`` as soon as it has sent the value, at the lowest
    CPU priority (nice 19), so that it takes only the CPU time that the
    parent and the other workers leave idle; an inline task runs it in
    ``then_seconds()``.
    """

    def __init__(self, fn, fork: bool, then=None):
        self.seconds = None
        self._fn, self._then, self._pid = fn, then, None
        if fork and hasattr(os, "fork"):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _serve(fn, then, write)
            os.close(write)
            # no inline fallback: a second result() must not run fn again
            self._fn, self._pid, self._reader = None, pid, os.fdopen(read, "rb")

    def result(self):
        if self._pid is None:
            start = time.perf_counter()
            self._value = self._fn()
            self.seconds = time.perf_counter() - start
            return self._value
        value, self.seconds = self._receive(reap=self._then is None)
        return value

    def then_seconds(self) -> float:
        """Wait for ``then`` (see the class): its seconds, or its exception
        raised here; reaps the worker."""
        if self._fn is not None:
            start = time.perf_counter()
            self._then(self._value)
            return time.perf_counter() - start
        return self._receive(reap=True)[1]

    def _receive(self, reap):
        """The next value and seconds that the worker sent, or the exception
        it sent raised here. The worker is reaped with ``reap`` or an
        exception, and killed first if the read is cut short (an interrupt)
        or unreadable."""
        try:
            ok, value, seconds = pickle.load(self._reader)
        except Exception as exc:
            self.cancel()
            raise WorkerError(f"worker sent no readable result ({exc!r})") from None
        except BaseException:
            self.cancel()
            raise
        if reap or not ok:
            # the worker has sent all it will send and is exiting
            self.cancel(kill=False)
        if not ok:
            raise value
        return value, seconds

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


def _timed(fn, *args):
    """The outcome of ``fn(*args)``, (True, value) or (False, exception),
    and that outcome with its seconds pickled; an unpicklable value or
    exception becomes a WorkerError."""
    start = time.perf_counter()
    try:
        outcome = (True, fn(*args))
    except BaseException as exc:  # raised again in the parent
        outcome = (False, exc)
    seconds = time.perf_counter() - start
    try:
        return outcome, pickle.dumps(outcome + (seconds,), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        error = WorkerError(f"worker result not picklable: {exc!r}; {outcome[1]!r}")
        return (False, error), pickle.dumps((False, error, seconds))


def _serve(fn, then, fd):
    """The worker's side: run ``fn`` and write its outcome (``_timed``) to
    ``fd``. With ``then``, a second thread writes it while ``then`` runs on
    the value at nice 19, and then's outcome follows it. Then exit, never
    returning into the code that forked."""
    status = 1
    try:
        with os.fdopen(fd, "wb") as out:
            (ok, value), data = _timed(fn)
            if then is None or not ok:
                out.write(data)
            else:
                # a pipe holds 64 KiB, so the value goes out from a second
                # thread while ``then`` runs; nice is a thread's own on
                # Linux, so the sender keeps its own
                import threading

                def send():
                    out.write(data)
                    out.flush()

                sender = threading.Thread(target=send)
                sender.start()
                os.nice(19)
                done = _timed(then, value)[1]
                sender.join()
                out.write(done)
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
