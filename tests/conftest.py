from fractions import Fraction

import pytest

from padic_tate.field import make_field


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    """PADIC_TATE_SEED overrides --seed, so every test starts without it and
    a test of the override sets it itself."""
    monkeypatch.delenv("PADIC_TATE_SEED", raising=False)


@pytest.fixture
def fractions_built(monkeypatch):
    """counted(call) -> (number of Fraction objects call builds, its result)."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)

    def counted(call):
        count[0] = 0
        result = call()
        return count[0], result
    return counted


@pytest.fixture(scope="session")
def Q5():
    return make_field(5)


@pytest.fixture(scope="session")
def Q2():
    return make_field(2)


@pytest.fixture(scope="session")
def Q3():
    return make_field(3)


@pytest.fixture(scope="session")
def E54():
    # v(pi) = 1/4 = 1/(p-1), the boundary radius field for p = 5
    return make_field(5, "eisenstein", e=4, c=-1)


@pytest.fixture(scope="session")
def U22():
    return make_field(2, "unramified", poly=[1, 1, 1])
