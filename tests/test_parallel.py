"""one_blas_thread and forked: a pinned count comes back, a child's outcome
reaches the parent, and no child outlives its block."""

import os
import signal
import time

import numpy as np
import pytest

from opentc.parallel import forked, one_blas_thread
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
    with forked(lambda: (os.getpid(), np.arange(200_000.0))) as result:  # 1.6 MB
        pid, values = result()
    assert forks == [pid] and pid != os.getpid()
    np.testing.assert_array_equal(values, np.arange(200_000.0))


def test_forked_raises_the_childs_exception(forks):
    def diverge():
        raise TrainingDivergedError(2, 5)

    with pytest.raises(TrainingDivergedError, match="at epoch 2, batch 5") as info, forked(diverge) as result:
        result()
    assert (info.value.epoch, info.value.batch) == (2, 5) and len(forks) == 1


@pytest.mark.parametrize("rebuild_fails", [False, True], ids=["dumps-fails", "loads-fails"])
def test_forked_reports_an_exception_that_cannot_be_pickled(forks, rebuild_fails):
    class Local(ValueError):  # a class pickle cannot find by name
        pass

    def fail():
        raise _RebuildFails(1, 2) if rebuild_fails else Local("1/2")

    name = "_RebuildFails" if rebuild_fails else "Local"
    with pytest.raises(ChildProcessError, match=f"raised {name}, which cannot be pickled: 1/2"), forked(fail) as result:
        result()


@pytest.mark.parametrize(
    "end, how",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"), (lambda: os._exit(0), "exit status 0")],
    ids=["killed", "exit-without-result"],
)
def test_a_child_that_ends_without_a_result_raises_child_process_error(forks, end, how):
    with pytest.raises(ChildProcessError, match=f"without a result \\({how}\\)"), forked(end) as result:
        result()


def test_forked_kills_the_child_when_the_block_raises(forks):
    start = time.monotonic()
    with pytest.raises(MemoryError), forked(lambda: time.sleep(60)):
        raise MemoryError
    assert len(forks) == 1 and time.monotonic() - start < 30  # the fixture checks it was reaped


def test_forked_runs_in_process_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    with forked(lambda: calls.append(os.getpid()) or "value") as result:
        assert calls == []  # run when the block asks, as a serial run would
        assert result() == "value"
    assert calls == [os.getpid()]
