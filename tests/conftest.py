from pathlib import Path

import pytest

from primecensus import census_sweep, read_census

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def census_10k():
    """One sweep to x=10_000 (sieve to 1e8), shared across the session."""
    return list(census_sweep(10_000))


@pytest.fixture(scope="session")
def census_1347():
    return list(census_sweep(1347))


@pytest.fixture(scope="session")
def reference_140k_rows():
    """Shipped truth rows for x=140001..140050 (verified against the counter)."""
    return read_census(DATA_DIR / "true_counts_140001_140050.csv")
