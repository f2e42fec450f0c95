"""Peak heap use of one call, for tests that bound how much a builder allocates."""

import tracemalloc


def traced_peak(fn, *args, **kwargs) -> tuple[object, int]:
    """Call ``fn(*args, **kwargs)``; return its result and its tracemalloc peak.

    The peak is in bytes, counted from what was traced when the call began, so
    it covers every Python object and numpy buffer the call held at once,
    result included. Memory that BLAS allocates for itself is not traced.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
