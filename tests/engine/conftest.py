"""Shared fixtures for the engine tests."""

import pytest


@pytest.fixture(params=["pure-python"])
def gather(request):
    """Name the gather under test in the test id.

    ``ColumnVector.take``'s list comprehension is the engine's only
    gather.  The ``pure-python`` id keeps the names these tests had while
    the engine also carried a numpy gather.
    """
    return request.param
