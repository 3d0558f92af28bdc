"""Forked worker pools, one worker per CPU, shared by every parallel stage.

Extraction parses corpus chunks, a search trains configurations, a model
save formats blocks of rows and a model load parses byte ranges of its file
in the pool of :func:`fork_pool`. A forked worker inherits this process as
it stands when the pool first submits, so it imports nothing afresh.
:func:`in_order` alone decides whether a stage forks: its jobs run in
workers when there is a pool and at least two jobs, else in this process.
On one CPU, or where ``fork`` is not available, there is no pool.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import chain, islice


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def fork_pool(initializer=None, initargs=()):
    """A pool of forked workers, one per CPU, shut down when the block ends,
    its pending tasks cancelled; None on one CPU or without fork.

    The executor forks its workers at its first submit, so a block that
    submits nothing starts no process; it still imports
    ``concurrent.futures``.
    """
    cpus = cpu_count()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = None
    if cpus > 1 and "fork" in multiprocessing.get_all_start_methods():
        pool = ProcessPoolExecutor(
            cpus, multiprocessing.get_context("fork"), initializer, initargs
        )
    try:
        yield pool
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def in_order(pool, fn, arg_tuples):
    """``fn(*args)`` for each of ``arg_tuples``, yielded in order.

    With a pool and at least two jobs, they run in ``pool``, with at most
    two tasks per CPU submitted and not yet yielded; otherwise they run in
    this process as they are asked for, and no process starts.
    """
    jobs = iter(arg_tuples)
    head = [] if pool is None else list(islice(jobs, 2))
    if len(head) < 2:
        for args in chain(head, jobs):
            yield fn(*args)
        return
    ahead = 2 * cpu_count()
    pending = deque()
    for args in chain(head, jobs):
        pending.append(pool.submit(fn, *args))
        if len(pending) >= ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
