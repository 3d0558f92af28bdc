"""Forked workers, one per CPU, shared by every parallel stage.

Extraction parses corpus chunks, a search trains configurations, a model
save formats blocks of rows and a model load parses byte ranges of its file
in a :func:`forked` block. The workers fork at the block's first run of at
least two jobs, so each inherits this process as it stands then, the
block's function included: a task sends only its arguments, and a worker
imports nothing afresh. A run of one job, a run on one CPU and a run where
``os.fork`` is not available call the function in this process, and import
neither ``multiprocessing`` nor ``concurrent.futures``.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import chain, islice

# the function of the block that forked this worker process
_fn = None


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _set_fn(fn) -> None:
    global _fn
    _fn = fn


def _call(*args):
    return _fn(*args)


@contextmanager
def forked(fn):
    """Yield ``run(arg_tuples)``, which yields ``fn(*args)`` for each of
    ``arg_tuples``, in order.

    A run of at least two jobs, on more than one CPU with ``os.fork``, runs
    in forked workers, one per CPU, with at most two tasks per CPU submitted
    and not yet yielded; every other run calls ``fn`` here as its results
    are asked for. The workers fork at the block's first forking run and
    serve its later ones; they inherit ``fn``, which is never pickled. When
    the block ends, they are shut down and their pending tasks cancelled.
    """
    pool = None

    def run(arg_tuples):
        nonlocal pool
        jobs = iter(arg_tuples)
        cpus = cpu_count()
        head = list(islice(jobs, 2)) if cpus > 1 and hasattr(os, "fork") else []
        if len(head) < 2:
            for args in chain(head, jobs):
                yield fn(*args)
            return
        if pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(cpus, multiprocessing.get_context("fork"), _set_fn, (fn,))
        pending = deque()
        for args in chain(head, jobs):
            pending.append(pool.submit(_call, *args))
            if len(pending) >= 2 * cpus:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield run
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
