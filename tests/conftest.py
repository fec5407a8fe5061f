import pytest

from coxmorse import build_system
from helpers import fiber_posets

_CACHE = {}


@pytest.fixture(scope="session")
def system():
    """Session-cached group factory: system('A3')."""

    def get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in _CACHE:
            _CACHE[key] = build_system(name, **kwargs)
        return _CACHE[key]

    return get


@pytest.fixture(scope="session")
def a3_fibers(system):
    """Every fiber poset that ``verify.check_fibers(A3, len_cap=5)`` builds."""
    return fiber_posets(system("A3"), 5)
