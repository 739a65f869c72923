import threading

import pytest
from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and no per-example deadline on shared runners. Local runs keep the default
# profile and its random exploration.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a non-daemon thread alive: the noise thread of
    `synthesize`, the artifact writer of `run` and the scan pool must all be
    joined before they return."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive() and not t.daemon]
    if left:
        pytest.fail(f"threads left alive: {', '.join(left)}")
