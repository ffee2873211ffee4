import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` calls fn under tracemalloc and returns fn's value
    and the peak of the traced (Python and NumPy) memory during the call."""

    def measure(fn):
        tracemalloc.start()
        try:
            value = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak

    return measure
