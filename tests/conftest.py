import tracemalloc

import pytest


def _traced(fn):
    """fn's value, then the traced (Python and NumPy) bytes still allocated
    when fn returns and the peak during the call, both counted from its
    start."""
    tracemalloc.start()
    try:
        value = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, kept, peak


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` calls fn under tracemalloc and returns fn's value
    and the peak of the traced memory during the call."""
    return lambda fn: _traced(fn)[::2]


@pytest.fixture
def traced_kept():
    """`traced_kept(fn)` calls fn under tracemalloc and returns fn's value
    and the traced bytes that fn allocated and that are still held once it
    returns, with its value alive: what that value keeps."""
    return lambda fn: _traced(fn)[:2]
