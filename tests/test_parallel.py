"""one_blas_thread and worker: a pinned count comes back, a child's
outcome reaches the parent beside its own, and no child outlives its block."""

import os
import posix
import signal
import time

import numpy as np
import pytest

from conftest import no_child_left
from opentc import parallel
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
    with worker(lambda _: (os.getpid(), np.arange(200_000.0))) as alongside:  # 1.6 MB
        mine, (pid, values) = alongside(None, os.getpid)
    assert forks == [pid] and pid != mine == os.getpid()
    np.testing.assert_array_equal(values, np.arange(200_000.0))


def test_forked_raises_the_childs_exception(forks):
    def diverge(_):
        raise TrainingDivergedError(2, 5)

    with pytest.raises(TrainingDivergedError, match="at epoch 2, batch 5") as info, worker(diverge) as alongside:
        alongside(None, lambda: None)
    assert (info.value.epoch, info.value.batch) == (2, 5) and len(forks) == 1


@pytest.mark.parametrize("rebuild_fails", [False, True], ids=["dumps-fails", "loads-fails"])
def test_worker_reports_an_exception_that_cannot_be_pickled(forks, rebuild_fails):
    class Local(ValueError):  # a class pickle cannot find by name
        pass

    def fail(_):
        raise _RebuildFails(1, 2) if rebuild_fails else Local("1/2")

    name = "_RebuildFails" if rebuild_fails else "Local"
    with pytest.raises(ChildProcessError, match=f"raised {name}, which cannot be pickled: 1/2"), worker(fail) as alongside:
        alongside(None, lambda: None)
    assert len(forks) == 1


@pytest.mark.parametrize(
    "end, how",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"), (lambda: os._exit(0), "exit status 0")],
    ids=["killed", "exit-without-result"],
)
def test_a_child_that_ends_without_a_result_raises_child_process_error(forks, end, how):
    with pytest.raises(ChildProcessError, match=f"without a result \\({how}\\)"), worker(lambda _: end()) as alongside:
        alongside(None, lambda: None)


def test_a_child_that_ends_during_its_reply_raises_child_process_error(forks):
    def half_then_exit(fd, payload):
        os.write(fd, payload[: len(payload) // 2])  # 4 KB: one write, under the pipe buffer
        os._exit(0)

    def fn(_):
        parallel._send = half_then_exit  # in the child only: the parent's module keeps its own
        return np.arange(1000.0)

    with pytest.raises(ChildProcessError, match="without a result \\(exit status 0\\)"), worker(fn) as alongside:
        alongside(None, lambda: None)
    assert len(forks) == 1


def test_a_workers_child_runs_at_one_blas_thread(forks):
    with worker(lambda _: [get() for get, _ in parallel._openblas()]) as alongside:
        _, counts = alongside(None, lambda: None)
    assert len(forks) == 1 and counts == [1] * len(parallel._openblas())


def test_worker_pins_its_block_and_its_child_without_a_caller_pin(two_blas_threads, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two CPUs in view, so it forks
    one = [1] * len(two_blas_threads())
    with worker(lambda _: (os.getpid(), two_blas_threads())) as alongside:
        mine, (pid, child_counts) = alongside(None, two_blas_threads)
    assert pid != os.getpid() and mine == child_counts == one and two_blas_threads() == [2] * len(one)
    assert no_child_left()


def test_a_child_killed_between_two_calls_raises_child_process_error(forks):
    ran = []
    with worker(lambda _: os.getpid()) as alongside:
        _, pid = alongside(None, lambda: None)
        assert forks == [pid]  # so the kill below cannot reach this process
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, with its end of the requests closed, not reaped
        with pytest.raises(ChildProcessError, match="without a result \\(killed by signal 9\\)$"):
            alongside(None, lambda: ran.append("own"))
        assert ran == [] and no_child_left()  # the request found no reader, so ``own`` never ran
    assert len(forks) == 1


def test_worker_kills_the_child_when_the_block_raises(forks):
    def own():
        raise MemoryError

    start = time.monotonic()
    with pytest.raises(MemoryError), worker(time.sleep) as alongside:
        alongside(60, own)
    assert len(forks) == 1 and time.monotonic() - start < 30  # the fixture checks it was reaped


def test_worker_forks_afresh_after_own_raises(forks):
    def own():
        raise KeyError("own")

    with worker(lambda n: (os.getpid(), n * 10)) as alongside:
        with pytest.raises(KeyError):
            alongside(1, own)
        assert len(forks) == 1 and no_child_left()  # the first child, whose reply is unread, is gone
        _, (pid, value) = alongside(2, lambda: None)
    assert value == 20 and forks[1:] == [pid]


def test_forked_runs_in_process_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    with worker(lambda _: calls.append("fn") or "value") as alongside:
        result = alongside(None, lambda: calls.append("own") or os.getpid())
    assert result == (os.getpid(), "value") and calls == ["own", "fn"]  # in order, as a serial run would


def test_worker_replies_in_submit_order_past_the_pipe_buffer(forks):
    sizes = (3, 200_000, 5)  # 1.6 MB each way in the middle
    with worker(lambda values: (os.getpid(), values * 2)) as alongside:
        assert forks == []  # forked at the first call
        results = [alongside(np.arange(float(n)), lambda: n)[1] for n in sizes]
    assert len(forks) == 1 and {pid for pid, _ in results} == set(forks)
    for n, (_, values) in zip(sizes, results):
        np.testing.assert_array_equal(values, np.arange(float(n)) * 2)


def test_worker_raises_each_calls_exception_and_serves_on(forks):
    def fn(epoch):
        if epoch == 2:
            raise TrainingDivergedError(epoch, 5)
        return epoch

    with worker(fn) as alongside:
        assert alongside(1, lambda: "own") == ("own", 1)
        with pytest.raises(TrainingDivergedError, match="at epoch 2, batch 5") as info:
            alongside(2, lambda: "own")
        assert (info.value.epoch, info.value.batch) == (2, 5)
        assert alongside(3, lambda: "own") == ("own", 3)
    assert len(forks) == 1


def test_worker_runs_each_call_in_process_when_asked_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    with worker(lambda n: calls.append((n, os.getpid())) or n * 10) as alongside:
        assert alongside(1, lambda: calls.append("own")) == (None, 10)
        assert alongside(2, lambda: calls.append("own")) == (None, 20)
    assert calls == ["own", (1, os.getpid()), "own", (2, os.getpid())]


def test_worker_moves_its_child_off_this_processs_cpu(forks, monkeypatch):
    cpus = posix.sched_getaffinity(0)  # the real mask, which the fixture hides
    if len(cpus) < 2:
        pytest.skip("this process may use one CPU, so there is nowhere else to move the child")
    monkeypatch.setattr(os, "sched_getaffinity", posix.sched_getaffinity)
    with worker(lambda _: posix.sched_getaffinity(0)) as alongside:
        _, child_cpus = alongside(None, lambda: None)
    assert len(forks) == 1 and child_cpus < cpus and len(child_cpus) == len(cpus) - 1
