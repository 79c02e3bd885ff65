"""Suite-wide fixtures."""

import pytest

from tests.fleet_support import FLEET_SECONDS, build_fleet, start_of


@pytest.fixture(scope="session")
def fleet_pair():
    """``(serial, pooled, start)``: one workload run two ways.

    The serial fleet steps every PoP in-process; the pooled one runs
    the same ticks in a 2-worker pool, collects, and closes the pool —
    so ``pooled`` is final and read-only from here on.
    """
    serial = build_fleet()
    pooled = build_fleet()
    start = start_of(serial)
    serial.run(start, FLEET_SECONDS)
    pooled.run(start, FLEET_SECONDS, parallel=2)
    pooled.close_pool()
    return serial, pooled, start
