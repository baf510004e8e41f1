import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns the peak bytes traced by
    ``tracemalloc`` during the call, its result included; memory allocated
    before the call is not counted."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
