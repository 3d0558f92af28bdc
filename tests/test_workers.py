import os
import time

import pytest

from conftest import count_process_starts, needs_fork
from depctx import workers

_TEST_PROCESS = os.getpid()


def where(index, delay=0.0):
    """The job's index and whether it ran in a worker, after ``delay`` s."""
    time.sleep(delay)
    return index, os.getpid() != _TEST_PROCESS


def fail_on_two(index):
    if index == 2:
        raise ValueError(f"job {index} failed")
    return index


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return count_process_starts(monkeypatch)


@needs_fork
def test_a_lone_job_runs_here_even_with_a_pool(two_cpus):
    with workers.fork_pool() as pool:
        assert pool is not None
        assert list(workers.in_order(pool, where, [(0,)])) == [(0, False)]
    assert two_cpus == []


@needs_fork
@pytest.mark.parametrize("n", [2, 7])
def test_two_or_more_jobs_run_in_workers_and_come_in_order(two_cpus, n):
    # the first job finishes last
    jobs = [(i, 0.2 if i == 0 else 0.0) for i in range(n)]
    with workers.fork_pool() as pool:
        assert list(workers.in_order(pool, where, jobs)) == [(i, True) for i in range(n)]
    assert len(two_cpus) == 2


def test_without_a_pool_every_job_runs_here(two_cpus):
    jobs = ((i,) for i in range(5))
    assert list(workers.in_order(None, where, jobs)) == [(i, False) for i in range(5)]
    assert two_cpus == []


@pytest.mark.parametrize("with_pool", [False, True])
def test_no_jobs_yield_nothing(two_cpus, with_pool):
    with workers.fork_pool() as pool:
        assert list(workers.in_order(pool if with_pool else None, where, iter([]))) == []
    assert two_cpus == []


@pytest.mark.parametrize("n, with_pool", [(3, True), (3, False), (5, True)])
def test_a_failed_task_raises_its_error(two_cpus, n, with_pool):
    with workers.fork_pool() as pool:
        results = workers.in_order(pool if with_pool else None, fail_on_two, [(i,) for i in range(n)])
        assert next(results) == 0
        assert next(results) == 1
        with pytest.raises(ValueError, match="job 2 failed"):
            next(results)
