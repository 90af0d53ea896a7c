import os
import tracemalloc

import pytest
from hypothesis import settings

from opentc import parallel

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline (timings on a loaded host vary).
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` held at once beyond what was live when it was
    called, as traced by tracemalloc (numpy buffers included)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads during the test, as it was after.
    Yields a call that reads their counts."""
    libs = parallel._openblas()
    if not libs:
        pytest.skip("no OpenBLAS is loaded, so there is no count to pin")
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield lambda: [get() for get, _ in libs]
    for (_, put), count in zip(libs, before):
        put(count)


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """One BLAS thread and two CPUs in view, so ``forked`` forks on any host
    with OpenBLAS. Yields the pids it forked and checks that none outlives
    the test."""
    if not parallel._openblas():
        pytest.skip("no OpenBLAS is loaded, so forked never forks")
    pids = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with parallel.one_blas_thread():
        yield pids
    assert no_child_left()
