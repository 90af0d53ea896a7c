"""One BLAS thread per process, and one forked child beside it.

``one_blas_thread()`` runs a block with the loaded OpenBLAS at one thread:
moderately sized GEMMs round differently under two threads, so a fixed count
gives the same bits at any caller setting. ``forked(fn)`` runs ``fn`` in a
child process while the parent works on; it is what lets the sweep train its
two heads at once on a host with two or more CPUs.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, NoReturn, TypeVar

T = TypeVar("T")

# Exported thread-count setters and getters, by build: numpy's and scipy's
# wheels (64- and 32-bit integers), then a system OpenBLAS.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "openblas_{}_num_threads")  # fmt: skip


@cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found in ``/proc/self/maps`` at the first call; () where none is."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            get, put = getattr(lib, symbol.format("get"), None), getattr(lib, symbol.format("set"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return tuple(found)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS at one thread and give the
    caller's thread counts back on exit. Without OpenBLAS it changes nothing."""
    libs = _openblas()
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, before):
            put(count)


@contextmanager
def forked(fn: Callable[[], T]) -> Iterator[Callable[[], T]]:
    """Run ``fn()`` in a forked child while the ``with`` block runs. The block
    gets a call that returns ``fn``'s value or raises its exception.

    The child forks only where ``os.fork`` exists, every loaded OpenBLAS runs
    at one thread (``one_blas_thread``) and this process may use more than
    one CPU. Otherwise the call runs ``fn`` in this process. A child that the
    call has not reaped when the block ends, because the block raised first,
    is killed and reaped. A child that ends without a result raises
    ``ChildProcessError``.
    """
    # A child pays off only as a whole process on a CPU of its own: two
    # processes that each add a spinning BLAS thread ran several times slower
    # than one process alone.
    libs = _openblas()
    pinned = bool(libs) and all(get() == 1 for get, _ in libs)
    if not (hasattr(os, "fork") and pinned and len(os.sched_getaffinity(0)) > 1):
        yield fn
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _child(fn, w)
    os.close(w)
    pipe = os.fdopen(r, "rb")
    reaped = False

    def result() -> T:
        nonlocal reaped
        payload = pipe.read()  # before waitpid: a child blocks on a payload larger than the pipe buffer
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not payload:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"forked child ended without a result ({how})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn: Callable[[], object], w: int) -> NoReturn:
    """The forked child: send ``fn``'s outcome through the pipe ``w`` and end
    with ``os._exit``, which runs none of the parent's exit handlers."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException as exc:  # the parent raises it
            payload = _pickled_error(exc)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)  # an exception can pickle and still fail to rebuild
        return payload
    except Exception:
        error = ChildProcessError(f"forked child raised {type(exc).__name__}, which cannot be pickled: {exc}")
        return pickle.dumps((False, error))
