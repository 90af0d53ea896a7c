from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline (timings on a loaded host vary).
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
