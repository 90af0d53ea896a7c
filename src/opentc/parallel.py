"""One BLAS thread per process, and one forked worker beside it.

``one_blas_thread()`` runs a block with the loaded OpenBLAS at one thread:
moderately sized GEMMs round differently under two threads, so a fixed count
gives the same bits at any caller setting. ``worker(fn)`` forks one child, at
its first call, that applies ``fn`` to each argument sent to it and replies
in order while the parent works on: ``predict`` renders every other chunk of
a file input in one, and the sweep trains its two heads at once, one in each
process, on a host with two or more CPUs.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from functools import cache
from typing import BinaryIO, Callable, Iterator, NoReturn, TypeVar

A = TypeVar("A")
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
def worker(fn: Callable[[A], T]) -> Iterator[Callable[[A], Callable[[], T]]]:
    """Serve calls of ``fn`` from one forked child while the ``with`` block
    runs. The block gets ``submit``: ``submit(arg)`` sends ``arg`` to the child
    and returns a call that gives ``fn(arg)`` or raises its exception.

    The child forks at the first ``submit``, and only where ``_can_fork()``
    holds; otherwise each call runs ``fn`` in this process when its result is
    asked for. The child may use every CPU of this process but the one this
    process runs on at the fork. One call is in flight at a time: ``submit``
    first reads the reply to the call before it, so neither process can block
    on a full pipe while the other does. The child writes nothing but its
    replies. It is killed and reaped when the block ends, and a child that
    ends without a reply raises ``ChildProcessError``.
    """
    if not _can_fork():
        yield lambda arg: lambda: fn(arg)
        return
    child = _Child(fn)
    try:
        yield child.submit
    finally:
        child.close()


class _Child:
    """The parent's end of a ``worker``: the child's pid, a pipe of requests
    and a pipe of replies, each frame a length-prefixed pickle."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.pid = 0  # forked at the first submit
        self.reaped = False
        self.unread: list | None = None  # the outcome box of the call whose reply is in flight

    def submit(self, arg: object) -> Callable[[], object]:
        if not self.pid:
            self._fork()
        self._read_reply()
        try:
            _send(self.requests, pickle.dumps(arg))
        except BrokenPipeError:  # the child ended before it read the request
            raise self._ended() from None
        box: list = []
        self.unread = box

        def result() -> object:
            if box is self.unread:
                self._read_reply()
            ok, value = box[0]
            if not ok:
                raise value
            return value

        return result

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

    def _read_reply(self) -> None:
        if self.unread is not None:
            payload = _receive(self.replies)
            if payload is None:
                raise self._ended()
            self.unread.append(pickle.loads(payload))
            self.unread = None

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
        with os.fdopen(requests, "rb") as inbox:
            while (payload := _receive(inbox)) is not None:
                try:
                    reply = pickle.dumps((True, fn(pickle.loads(payload))))
                except BaseException as exc:  # the parent raises it
                    reply = _pickled_error(exc)
                _send(replies, reply)
        code = 0
    finally:
        os._exit(code)


def _send(fd: int, payload: bytes) -> None:
    """Write one frame to the pipe ``fd``. Unbuffered, so a pipe whose reader
    is gone leaves nothing behind for a later close to flush."""
    frame = memoryview(len(payload).to_bytes(8, "little") + payload)
    while frame:
        frame = frame[os.write(fd, frame) :]


def _receive(pipe: BinaryIO) -> bytes | None:
    """The next payload that ``_send`` wrote, or None at the end of the pipe."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    payload = pipe.read(size)
    return payload if len(payload) == size else None


def _pickled_error(exc: BaseException) -> bytes:
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)  # an exception can pickle and still fail to rebuild
        return payload
    except Exception:
        error = ChildProcessError(f"forked child raised {type(exc).__name__}, which cannot be pickled: {exc}")
        return pickle.dumps((False, error))
