import tracemalloc

from hypothesis import settings

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
