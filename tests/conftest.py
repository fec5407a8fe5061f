import pytest

from coxmorse import build_system
from coxmorse.fibers import build_fiber_poset, build_qk

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
    s = system("A3")
    out = []
    for r in range(1 << s.rank):
        K = frozenset(i + 1 for i in range(s.rank) if r >> i & 1)
        qk = build_qk(s, K)
        for j, (_, w) in enumerate(qk.members):
            if s.len_of(w) <= 5:
                for i in qk.leq[:, j].nonzero()[0].tolist():
                    out.append(build_fiber_poset(qk, qk.members[i], qk.members[j]))
    return tuple(out)
