import os

import pytest

from zetacontour.precision import DEFAULT_CONFIG, FAST_CONFIG
from zetacontour.reporting import ensure_table
from zetacontour.zero_finder import ZeroTable

BIG_HEIGHT = 5150.0  # tall enough to certify eps2 = 1/T^2 tails at T = 100


def truncate_table(table: ZeroTable, height: float) -> ZeroTable:
    gammas = tuple(g for g in table.gammas if g <= height)
    return ZeroTable(gammas, table.accuracy, height)


@pytest.fixture(scope="session")
def big_table(tmp_path_factory) -> ZeroTable:
    """Zero table to 5150, built once per session (set ZC_TEST_TABLE to
    persist across sessions); a taller file is cut to 5150."""
    path = (os.environ.get("ZC_TEST_TABLE")
            or str(tmp_path_factory.mktemp("tables") / "zctab.txt"))
    return truncate_table(ensure_table(path, BIG_HEIGHT), BIG_HEIGHT)


@pytest.fixture(scope="session")
def table500(big_table) -> ZeroTable:
    return truncate_table(big_table, 510.0)


@pytest.fixture(scope="session")
def table120(big_table) -> ZeroTable:
    return truncate_table(big_table, 120.0)


@pytest.fixture(scope="session")
def mp_cfg():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def fast_cfg():
    return FAST_CONFIG
