"""one_blas_thread and worker: a pinned count comes back, a child's
outcomes reach the parent in order, and no child outlives its block."""

import os
import posix
import signal
import time

import numpy as np
import pytest

from opentc.parallel import one_blas_thread, worker
from opentc.trainer import TrainingDivergedError


class _RebuildFails(ValueError):
    """Pickles, but ``pickle.loads`` cannot call ``__init__`` with its args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_one_blas_thread_pins_and_gives_the_count_back(two_blas_threads):
    n = len(two_blas_threads())
    with pytest.raises(KeyError), one_blas_thread():
        assert two_blas_threads() == [1] * n
        with one_blas_thread():
            pass
        assert two_blas_threads() == [1] * n
        raise KeyError("the count comes back on an exception too")
    assert two_blas_threads() == [2] * n


def test_forked_returns_the_childs_value_past_the_pipe_buffer(forks):
    with worker(lambda _: (os.getpid(), np.arange(200_000.0))) as submit:  # 1.6 MB
        pid, values = submit(None)()
    assert forks == [pid] and pid != os.getpid()
    np.testing.assert_array_equal(values, np.arange(200_000.0))


def test_forked_raises_the_childs_exception(forks):
    def diverge(_):
        raise TrainingDivergedError(2, 5)

    with pytest.raises(TrainingDivergedError, match="at epoch 2, batch 5") as info, worker(diverge) as submit:
        submit(None)()
    assert (info.value.epoch, info.value.batch) == (2, 5) and len(forks) == 1


@pytest.mark.parametrize("rebuild_fails", [False, True], ids=["dumps-fails", "loads-fails"])
def test_worker_reports_an_exception_that_cannot_be_pickled(forks, rebuild_fails):
    class Local(ValueError):  # a class pickle cannot find by name
        pass

    def fail(_):
        raise _RebuildFails(1, 2) if rebuild_fails else Local("1/2")

    name = "_RebuildFails" if rebuild_fails else "Local"
    with pytest.raises(ChildProcessError, match=f"raised {name}, which cannot be pickled: 1/2"), worker(fail) as submit:
        submit(None)()
    assert len(forks) == 1


@pytest.mark.parametrize(
    "end, how",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"), (lambda: os._exit(0), "exit status 0")],
    ids=["killed", "exit-without-result"],
)
def test_a_child_that_ends_without_a_result_raises_child_process_error(forks, end, how):
    with pytest.raises(ChildProcessError, match=f"without a result \\({how}\\)"), worker(lambda _: end()) as submit:
        submit(None)()


def test_worker_kills_the_child_when_the_block_raises(forks):
    start = time.monotonic()
    with pytest.raises(MemoryError), worker(time.sleep) as submit:
        submit(60)
        raise MemoryError
    assert len(forks) == 1 and time.monotonic() - start < 30  # the fixture checks it was reaped


def test_forked_runs_in_process_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    with worker(lambda _: calls.append(os.getpid()) or "value") as submit:
        result = submit(None)
        assert calls == []  # run when the block asks, as a serial run would
        assert result() == "value"
    assert calls == [os.getpid()]


def test_worker_replies_in_submit_order_past_the_pipe_buffer(forks):
    sizes = (3, 200_000, 5)  # 1.6 MB each way in the middle
    with worker(lambda values: (os.getpid(), values * 2)) as submit:
        assert forks == []  # forked at the first call
        replies = [submit(np.arange(float(n))) for n in sizes]
        results = [reply() for reply in reversed(replies)][::-1]
    assert len(forks) == 1 and {pid for pid, _ in results} == set(forks)
    for n, (_, values) in zip(sizes, results):
        np.testing.assert_array_equal(values, np.arange(float(n)) * 2)


def test_worker_raises_each_calls_exception_and_serves_on(forks):
    def fn(epoch):
        if epoch == 2:
            raise TrainingDivergedError(epoch, 5)
        return epoch

    with worker(fn) as submit:
        first, second, third = submit(1), submit(2), submit(3)
        assert first() == 1
        with pytest.raises(TrainingDivergedError, match="at epoch 2, batch 5") as info:
            second()
        assert (info.value.epoch, info.value.batch) == (2, 5)
        assert third() == 3
    assert len(forks) == 1


def test_worker_runs_each_call_in_process_when_asked_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    with worker(lambda n: calls.append((n, os.getpid())) or n * 10) as submit:
        first, second = submit(1), submit(2)
        assert calls == []
        assert second() == 20 and calls == [(2, os.getpid())]
        assert first() == 10 and calls == [(2, os.getpid()), (1, os.getpid())]


def test_worker_moves_its_child_off_this_processs_cpu(forks, monkeypatch):
    cpus = posix.sched_getaffinity(0)  # the real mask, which the fixture hides
    if len(cpus) < 2:
        pytest.skip("this process may use one CPU, so there is nowhere else to move the child")
    monkeypatch.setattr(os, "sched_getaffinity", posix.sched_getaffinity)
    with worker(lambda _: posix.sched_getaffinity(0)) as submit:
        child_cpus = submit(None)()
    assert len(forks) == 1 and child_cpus < cpus and len(child_cpus) == len(cpus) - 1
