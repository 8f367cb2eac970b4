"""Suite-wide fixtures.

A sweep on a process pool leaves its healthy pool warm for the next
sweep.  Each test closes it on the way out, so no test reuses workers
forked under another test's monkeypatches, or skips a pool start that
it means to exercise.
"""

import pytest

from repro.parallel.pool import close_idle_pool


@pytest.fixture(autouse=True)
def _close_idle_pool():
    yield
    close_idle_pool()
