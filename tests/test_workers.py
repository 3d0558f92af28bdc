import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

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


def die_on_two(index):
    """Kill the worker that runs job 2."""
    if index == 2:
        os._exit(1)
    return where(index)


def seeing_cpus(monkeypatch, cpus):
    """See ``cpus`` CPUs; returns the names of the processes started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return count_process_starts(monkeypatch)


@pytest.fixture
def two_cpus(monkeypatch):
    return seeing_cpus(monkeypatch, 2)


@needs_fork
def test_a_lone_job_runs_here_even_with_a_pool(two_cpus):
    # a run of two would fork on these two CPUs
    with workers.forked(where) as run:
        assert list(run([(0,)])) == [(0, False)]
    assert two_cpus == []


@needs_fork
@pytest.mark.parametrize("n", [2, 7])
def test_two_or_more_jobs_run_in_workers_and_come_in_order(two_cpus, n):
    # the first job finishes last
    jobs = [(i, 0.2 if i == 0 else 0.0) for i in range(n)]
    with workers.forked(where) as run:
        assert list(run(jobs)) == [(i, True) for i in range(n)]
    assert len(two_cpus) == 2


def test_without_a_pool_every_job_runs_here(monkeypatch):
    # one CPU
    started = seeing_cpus(monkeypatch, 1)
    with workers.forked(where) as run:
        assert list(run((i,) for i in range(5))) == [(i, False) for i in range(5)]
    assert started == []


@pytest.mark.parametrize("on_two_cpus", [False, True])
def test_no_jobs_yield_nothing(monkeypatch, on_two_cpus):
    started = seeing_cpus(monkeypatch, 2 if on_two_cpus else 1)
    with workers.forked(where) as run:
        assert list(run(iter([]))) == []
    assert started == []


@pytest.mark.parametrize("n, on_two_cpus", [(3, True), (3, False), (5, True)])
def test_a_failed_task_raises_its_error(monkeypatch, n, on_two_cpus):
    if on_two_cpus and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no worker forks without fork")
    seeing_cpus(monkeypatch, 2 if on_two_cpus else 1)
    with workers.forked(fail_on_two) as run:
        results = run((i,) for i in range(n))
        assert next(results) == 0
        assert next(results) == 1
        with pytest.raises(ValueError, match="job 2 failed"):
            next(results)


@needs_fork
def test_two_forking_runs_in_one_block_share_one_process_per_cpu(two_cpus):
    with workers.forked(where) as run:
        assert list(run((i,) for i in range(3))) == [(i, True) for i in range(3)]
        assert list(run([(0,)])) == [(0, False)]
        assert list(run((i,) for i in range(4))) == [(i, True) for i in range(4)]
    assert len(two_cpus) == 2


@needs_fork
def test_a_run_after_a_dead_worker_forks_new_workers(two_cpus):
    with workers.forked(die_on_two) as run:
        with pytest.raises(BrokenExecutor):
            list(run((i,) for i in range(4)))
        assert list(run((i,) for i in (3, 4, 5))) == [(i, True) for i in (3, 4, 5)]
    assert len(two_cpus) == 4
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_unpicklable_function_runs_in_workers(two_cpus):
    offset = 10
    with workers.forked(lambda i: (i + offset, os.getpid() != _TEST_PROCESS)) as run:
        assert list(run((i,) for i in range(4))) == [(i + 10, True) for i in range(4)]
    assert len(two_cpus) == 2


@needs_fork
def test_a_consumer_that_raises_mid_run_leaves_no_child(two_cpus):
    with pytest.raises(KeyError):
        with workers.forked(where) as run:
            for index, _ in run((i, 0.05) for i in range(20)):
                if index == 1:
                    raise KeyError(index)
    assert len(two_cpus) == 2
    assert multiprocessing.active_children() == []


def test_a_one_block_save_and_a_one_range_load_import_no_pool(tmp_path):
    # a fresh interpreter, seeing two CPUs, so that no earlier test's import counts
    script = textwrap.dedent(
        """
        import os, sys
        import numpy as np
        os.sched_getaffinity = lambda pid: {0, 1}
        from depctx import sgns
        pairs = [(f"w{i}", f"c{i % 7}") for i in range(40)]
        config = sgns.TrainerConfig(dim=4, negatives=2, epochs=1, min_count=1, subsample=1.0)
        store = sgns.train(pairs, config)
        sgns.save_embeddings(store, "v.txt", include_context=True)
        loaded = sgns.load_embeddings("v.txt")
        assert np.array_equal(loaded.word_vectors, store.word_vectors)
        print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
        """
    )
    src = Path(workers.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
