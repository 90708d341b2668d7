import pytest

from avgproc import walks
from avgproc.series import gf_tables


@pytest.fixture(autouse=True)
def fresh_exact_tables():
    """Every test starts with no stored exact table or SRW closed form, so its passes
    are its own."""
    walks._EXACT_TABLES.clear()
    walks._SRW_FORMS.clear()


@pytest.fixture(scope="session")
def tables_d1():
    """Exact sequence tables for d=1 at order 32, shared across modules."""
    return gf_tables(1, 32)


@pytest.fixture(scope="session")
def tables_d2():
    return gf_tables(2, 24)
