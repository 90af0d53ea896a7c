"""One BLAS thread per process, and one forked worker beside it.

``one_blas_thread()`` runs a block with the loaded OpenBLAS at one thread:
moderately sized GEMMs round differently under two threads, so a fixed count
gives the same bits at any caller setting. ``worker(fn)`` forks one child, at
its first call, and each call applies ``fn`` to an argument there while the
parent runs work of its own beside it: ``predict`` renders every other chunk
of a file input in one, and the sweep trains its two heads at once, one in
each process, on a host with two or more CPUs.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from functools import cache
from typing import Callable, Iterator, NoReturn, TypeVar

A = TypeVar("A")
R = TypeVar("R")
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


def _can_fork() -> bool:
    """Whether a forked child pays: ``os.fork`` exists, every loaded OpenBLAS
    runs at one thread (``one_blas_thread``) and this process may use more
    than one CPU."""
    # A child pays off only as a whole process on a CPU of its own: two
    # processes that each add a spinning BLAS thread ran several times slower
    # than one process alone.
    libs = _openblas()
    pinned = bool(libs) and all(get() == 1 for get, _ in libs)
    return hasattr(os, "fork") and pinned and len(os.sched_getaffinity(0)) > 1


@contextmanager
def worker(fn: Callable[[A], T]) -> Iterator[Callable[[A, Callable[[], R]], tuple[R, T]]]:
    """Serve calls of ``fn`` from one forked child while the ``with`` block
    runs. The block gets ``alongside``: ``alongside(arg, own)`` sends ``arg``
    to the child, runs ``own()`` here meanwhile and returns ``(own(),
    fn(arg))``, raising ``own``'s exception first. So one call is in flight at
    a time, and neither process can block on a full pipe while the other does.

    The child forks at the first call where ``_can_fork()`` holds; otherwise
    ``own`` and then ``fn`` run here. It may use every CPU of this process but
    the one this process runs on at the fork, and writes nothing but replies.
    It is killed and reaped when the block ends or ``own`` raises, and one
    that ends without a whole reply raises ``ChildProcessError``.
    """
    if not _can_fork():
        yield lambda arg, own: (own(), fn(arg))
        return
    child = _Child(fn)
    try:
        yield child.alongside
    finally:
        child.close()


class _Child:
    """The parent's end of a ``worker``: the child's pid and two pipes of pickles."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.pid = 0  # forked at the first call
        self.reaped = False

    def alongside(self, arg: object, own: Callable[[], R]) -> tuple[R, object]:
        if not self.pid:
            self._fork()
        try:
            _send(self.requests, pickle.dumps(arg))
        except BrokenPipeError:  # the child ended before it read the request
            raise self._ended() from None
        try:
            mine = own()
        except BaseException:
            self.close()  # its reply is never read: a later call forks afresh
            raise
        try:
            ok, value = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):  # the child ended before or during its reply
            raise self._ended() from None
        if not ok:
            raise value
        return mine, value

    def _fork(self) -> None:
        requests_r, self.requests = os.pipe()
        replies_r, replies_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self.requests)
            os.close(replies_r)
            _serve(self.fn, requests_r, replies_w)
        os.close(requests_r)
        os.close(replies_w)
        self.replies = os.fdopen(replies_r, "rb")
        # Linux starts a child on its parent's CPU and may leave both there
        # for the whole of a short command: move the child to the others.
        with suppress(OSError):  # where it cannot, the child still works
            os.sched_setaffinity(self.pid, os.sched_getaffinity(0) - {_this_cpu()})

    def _ended(self) -> ChildProcessError:
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.reaped = True
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return ChildProcessError(f"forked child ended without a result ({how})")

    def close(self) -> None:
        if not self.pid:
            return
        os.close(self.requests)  # an idle child reads the end of its requests and exits
        self.replies.close()
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.pid, self.reaped = 0, False


def _this_cpu() -> int:
    """The CPU this process runs on now: field 39 of ``/proc/self/stat``."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _serve(fn: Callable, requests: int, replies: int) -> NoReturn:
    """The forked child: reply to each request with ``fn``'s outcome until the
    parent closes ``requests``, then end with ``os._exit``, which runs none of
    the parent's exit handlers and flushes none of its buffers."""
    code = 1
    try:
        with os.fdopen(requests, "rb") as inbox, suppress(EOFError):  # EOF: the parent closed it
            while True:
                arg = pickle.load(inbox)
                try:
                    reply = pickle.dumps((True, fn(arg)))
                except BaseException as exc:  # the parent raises it
                    reply = _pickled_error(exc)
                _send(replies, reply)
        code = 0
    finally:
        os._exit(code)


def _send(fd: int, payload: bytes) -> None:
    """Write all of ``payload`` to the pipe ``fd``, in as many writes as it
    takes. Unbuffered, so a pipe whose reader is gone keeps nothing to flush."""
    rest = memoryview(payload)
    while rest:
        rest = rest[os.write(fd, rest) :]


def _pickled_error(exc: BaseException) -> bytes:
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)  # an exception can pickle and still fail to rebuild
        return payload
    except Exception:
        error = ChildProcessError(f"forked child raised {type(exc).__name__}, which cannot be pickled: {exc}")
        return pickle.dumps((False, error))
