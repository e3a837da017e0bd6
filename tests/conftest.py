"""Suite-wide checks that run around every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running after it returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail("test left thread(s) running: %s" % ", ".join(left))
