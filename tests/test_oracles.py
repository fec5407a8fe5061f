"""Brute-force oracles, and production-vs-oracle equivalences."""

import random

import pytest

from coxmorse.errors import CapExceeded
from coxmorse.matchings import (
    Matching,
    build_matching,
    is_acyclic,
    labeled_interval,
    matching_from_pairs,
)
from coxmorse.oracles import (
    oracle_bruhat_leq,
    oracle_demazure,
    oracle_directed_cycle,
    oracle_reduced_words,
    oracle_reflection_orders,
    oracle_unmatched_scan,
)
from coxmorse.posets import poset_from_covers
from coxmorse.reflection_orders import order_from_reduced_word, validate
from coxmorse.verify import all_orders


def test_bruhat_oracle_trivia(system):
    s = system("A2")
    assert all(oracle_bruhat_leq(s, 0, w) for w in range(s.size))
    assert not oracle_bruhat_leq(s, s.simple(1), s.simple(2))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "B2", "I2(5)"])
def test_bruhat_oracle_matches_production(system, name):
    s = system(name)
    for v in range(s.size):
        for w in range(s.size):
            assert oracle_bruhat_leq(s, v, w) == s.bruhat_leq(v, w)


def _oracle_order(s):
    return [[oracle_bruhat_leq(s, v, w) for w in range(s.size)] for v in range(s.size)]


def _assert_intervals_match_oracle(s, leq, pairs):
    for v, w in pairs:
        expected = [x for x in range(s.size) if leq[v][x] and leq[x][w]]
        assert s.interval_ids(v, w) == expected, (v, w)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_interval_ids_match_oracle_on_all_pairs(system, name):
    s = system(name)
    leq = _oracle_order(s)
    pairs = [(v, w) for v in range(s.size) for w in range(s.size) if leq[v][w]]
    _assert_intervals_match_oracle(s, leq, pairs)


def test_interval_ids_match_oracle_at_length_boundaries(system):
    # endpoints that open or close a length block catch off-by-one offsets
    s = system("H3")
    leq = _oracle_order(s)
    by_length = {}
    for x in range(s.size):
        by_length.setdefault(s.len_of(x), []).append(x)
    edges = {x for block in by_length.values() for x in (block[0], block[-1])}
    pairs = [(v, w) for v in range(s.size) for w in range(s.size)
             if leq[v][w] and (v in edges or w in edges)]
    assert (0, s.w0) in pairs
    _assert_intervals_match_oracle(s, leq, pairs)
    assert s.interval_ids(s.w0, 0) == []


def test_demazure_oracle_trivia(system):
    s = system("A2")
    s1 = s.simple(1)
    assert oracle_demazure(s, s1, 0, "star") == s1
    assert oracle_demazure(s, s1, s1, "circ_r") == 0
    with pytest.raises(ValueError):
        oracle_demazure(s, 0, 0, "frobnicate")


def test_demazure_exhaustive_b2(system):
    s = system("B2")
    for x in range(s.size):
        for y in range(s.size):
            assert s.demazure_star(x, y) == oracle_demazure(s, x, y, "star")
            assert s.circ_l(x, y) == oracle_demazure(s, x, y, "circ_l")
            assert s.circ_r(x, y) == oracle_demazure(s, x, y, "circ_r")


def test_circ_l_self_is_not_always_identity(system):
    # folklore trap: x o_l x = e only when x^{-1} <= x (e.g. involutions)
    s = system("A2")
    x = s.parse_word("1.2")
    assert s.circ_l(x, x) == oracle_demazure(s, x, x, "circ_l") == s.simple(2)
    for x in range(s.size):
        if s.bruhat_leq(s.inverse(x), x):
            assert s.circ_l(x, x) == 0


def test_reduced_word_counts(system):
    a2 = system("A2")
    assert sorted(oracle_reduced_words(a2, a2.w0)) == [(1, 2, 1), (2, 1, 2)]
    a3 = system("A3")
    assert len(oracle_reduced_words(a3, a3.w0)) == 16
    b3 = system("B3")
    assert len(oracle_reduced_words(b3, b3.w0)) == 42
    with pytest.raises(CapExceeded):
        oracle_reduced_words(a3, a3.w0, cap=5)


def test_reflection_order_enumeration(system):
    s = system("A3")
    seqs = oracle_reflection_orders(s)
    assert len(seqs) == 16
    for seq in seqs:
        assert sorted(seq) == list(s.reflections)
        assert validate(s, seq).ok


def test_unmatched_scan(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.w0)
    m = build_matching(li, order_from_reduced_word(s, [1, 2, 1]))
    assert oracle_unmatched_scan(li.poset, m) == []
    point = poset_from_covers(["pt"], [0], [])
    assert oracle_unmatched_scan(point, matching_from_pairs(point, [])) == [0]


def agrees_with_cycle_oracle(poset, matching):
    """is_acyclic and the general search agree; a reported cycle is a closed
    walk along edges of the modified Hasse diagram.  Returns acyclicity."""
    report = is_acyclic(poset, matching)
    assert report.acyclic == (oracle_directed_cycle(poset, matching) is None)
    if not report.acyclic:
        edges = {(lo, hi) if matching.partner[lo] == hi else (hi, lo)
                 for lo, hi, _ in poset.covers}
        cycle = report.cycle
        assert len(cycle) >= 5 and cycle[0] == cycle[-1]
        assert all(step in edges for step in zip(cycle, cycle[1:]))
    return report.acyclic


def test_acyclicity_agrees_with_oracle_on_a3(system):
    s = system("A3")
    orders = all_orders(s)
    assert len(orders) == 16
    for v, w in s.comparable_pairs(strict=True):
        li = labeled_interval(s, v, w)
        for order in orders:
            assert agrees_with_cycle_oracle(li.poset, build_matching(li, order))


def test_acyclicity_agrees_with_oracle_on_tampered_matchings(system):
    # the two stacked squares of test_acyclicity_detects_cycles
    squares = poset_from_covers(
        ["a", "b", "c", "d"], [0, 1, 0, 1],
        [(0, 1, None), (2, 1, None), (2, 3, None), (0, 3, None)])
    assert not agrees_with_cycle_oracle(squares, matching_from_pairs(squares, [(0, 1), (2, 3)]))
    # random sets of disjoint covers of the whole A3 order, cyclic or not
    poset = labeled_interval(system("A3"), 0, system("A3").w0).poset
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        partner = list(range(poset.n))
        for lo, hi, _ in rng.sample(poset.covers, rng.randrange(1, 40)):
            if partner[lo] == lo and partner[hi] == hi:
                partner[lo], partner[hi] = hi, lo
        verdicts.add(agrees_with_cycle_oracle(poset, Matching(poset, tuple(partner))))
    assert verdicts == {True, False}
