import collections
import inspect
from fractions import Fraction

import pytest

from padic_tate.field import make_field


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    """PADIC_TATE_SEED overrides --seed, so every test starts without it and
    a test of the override sets it itself."""
    monkeypatch.delenv("PADIC_TATE_SEED", raising=False)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls((owner, name), ...) wraps each attribute in a counter for
    the test and returns counted(call) -> (Counter of the names call reached,
    call's result).  A name never reached is absent, so a Counter compares
    equal to a dict of the nonzero counts.  A staticmethod stays one."""
    def install(*targets):
        counts = collections.Counter()

        def wrap(name, fn):
            def counting(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counting

        for owner, name in targets:
            attr = inspect.getattr_static(owner, name)
            if isinstance(attr, staticmethod):
                monkeypatch.setattr(owner, name, staticmethod(wrap(name, attr.__func__)))
            else:
                monkeypatch.setattr(owner, name, wrap(name, attr))

        def counted(call):
            counts.clear()
            result = call()
            return collections.Counter(counts), result
        return counted
    return install


@pytest.fixture
def fractions_built(count_calls):
    """counted(call) -> (Counter whose "__new__" is the number of Fraction
    objects call builds, its result)."""
    return count_calls((Fraction, "__new__"))


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
