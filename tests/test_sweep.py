"""The interval sweep of ``verify.check_matchings``: it fails exactly the
instances that the per-interval route fails, reads its own copy of the
cover table, and stays small."""

import tracemalloc

import numpy as np
import pytest

from coxmorse import build_system
from coxmorse.cli import main
from coxmorse.matchings import partner_table, sweep_failures
from coxmorse.reflection_orders import ReflectionOrder
from coxmorse.verify import all_orders, check_matchings, sampled_orders
from helpers import (b3_with_a_cover_across_dims, per_interval_failures, set_up_cover_arrays,
                     set_up_covers)

# (seed, orders) of the shuffled orders per group, each seed chosen so that
# some instance is a complete matching with a cycle
SHUFFLED = {"A3": (4, 5), "B3": (3, 3), "H3": (7, 3)}


def shuffled_orders(s, seed, k):
    """k seeded shuffles of the reflections, taken as orders: most are not
    reflection orders, so their matchings fail in every way."""
    rng = np.random.default_rng(seed)
    return [ReflectionOrder(s, tuple(rng.permutation(s.reflections).tolist()), ())
            for _ in range(k)]


@pytest.mark.parametrize("name", sorted(SHUFFLED))
def test_the_sweep_fails_what_the_per_interval_route_fails(system, name):
    s = system(name)
    orders = shuffled_orders(s, *SHUFFLED[name])
    want = per_interval_failures(s, orders)
    assert sweep_failures(s, orders) == [(v, w, k) for v, w, k, _ in want]
    assert any(message.startswith("cycle in ") for *_, message in want)
    assert any(message.startswith("edge selection is not an involution ")
               for *_, message in want)
    assert check_matchings(s, orders).failures == [message for *_, message in want]


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3"])
def test_both_routes_pass_every_reflection_order(system, name):
    s = system(name)
    orders = all_orders(s)
    assert sweep_failures(s, orders) == []
    assert sweep_failures(s, sampled_orders(s)) == []
    # H3 has 286 orders, too many for the per-interval route here
    assert per_interval_failures(s, orders if name != "H3" else sampled_orders(s)) == []


def test_the_partner_table_sorts_each_element_s_covers_by_decreasing_rank(system):
    s = system("B3")
    order = sampled_orders(s)[2]
    table = partner_table(s, order)
    for x in range(s.size):
        covers = s.bruhat_covers_up(x) + s.bruhat_covers_down(x)
        want = [u for _, u in sorted(((order.rank[t], u) for u, t in covers), reverse=True)]
        assert table[x].tolist() == want + [s.size] * (table.shape[1] - len(want))


def without_cover(covers_up, x, y):
    return [tuple(c for c in ups if (z, c[0]) != (x, y)) for z, ups in enumerate(covers_up)]


def test_a_cover_dropped_from_the_arrays_only_fails_naming_both_routes(monkeypatch, capsys):
    import coxmorse.verify as verify

    a3 = build_system("A3")   # fresh: never corrupt the session-cached system
    a3.bruhat   # the order is closed from the full cover table first
    x, y = a3.parse_word("2"), a3.parse_word("2.1")
    set_up_cover_arrays(a3, without_cover(a3._covers_up, x, y))
    orders = all_orders(a3)
    report = check_matchings(a3, orders)
    assert all(f.endswith(", but the per-interval route passes it") for f in report.failures)
    # the rank-one interval [2, 2.1] loses its only cover in the sweep
    assert {f"the array sweep fails [2, 2.1] under {order!r}, but the per-interval route "
            f"passes it" for order in orders} <= set(report.failures)
    monkeypatch.setattr(verify, "_quick_tasks", lambda: [lambda: verify.check_matchings(a3, orders)])
    assert main(["suite"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("FAIL interval matchings on A3: 3024 instances; ")
    assert out.endswith("suite quick: FAILURES PRESENT\n")


def test_a_cover_dropped_from_both_copies_gives_the_per_interval_messages():
    a3 = build_system("A3")   # fresh: never corrupt the session-cached system
    a3.bruhat
    x, y = a3.parse_word("2"), a3.parse_word("2.1")
    set_up_covers(a3, without_cover(a3._covers_up, x, y))
    orders = all_orders(a3)
    want = [message for *_, message in per_interval_failures(a3, orders)]
    assert check_matchings(a3, orders).failures == want
    assert "isolated element 2 in the Hasse diagram" in want


def test_a_cover_across_dims_fails_every_interval_holding_it():
    b3 = b3_with_a_cover_across_dims()
    orders = sampled_orders(b3)
    failures = check_matchings(b3, orders).failures
    assert failures == [message for *_, message in per_interval_failures(b3, orders)]
    # every [e, w] with 1.2.1 <= w, under each order
    tops = [w for w in range(b3.size) if b3.bruhat_leq(b3.parse_word("1.2.1"), w)]
    assert failures == ["cover e < 1.2.1 does not join adjacent dims"] * (len(tops) * len(orders))


def test_h3_sweep_memory(system):
    s = system("H3")
    orders = sampled_orders(s)
    s.bruhat
    tracemalloc.start()
    try:
        failing = sweep_failures(s, orders)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failing == []
    # measured: about 1.4 MB with 16 KiB blocks, and 8.9 MB with 128 KiB
    assert peak < 2 << 20, f"{peak} bytes for the H3 sweep"
