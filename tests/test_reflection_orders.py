"""Reflection orders: inversion sequences, validation, constrained builders."""

import gc
import weakref

import pytest

from coxmorse import build_system
from coxmorse.errors import NotReducedWordOfW0, OverlappingSubsets, TheoremFalsified
from coxmorse.oracles import oracle_reflection_orders
from coxmorse.reflection_orders import (
    inversion_sequence,
    opposite,
    order_for_fiber,
    order_for_springer,
    order_from_reduced_word,
    shortlex_order,
    validate,
)


def words(s, ts):
    return [s.word_str(t) for t in ts]


def test_inversion_order_a2(system):
    s = system("A2")
    order = order_from_reduced_word(s, [1, 2, 1])
    assert words(s, order.sequence) == ["1", "1.2.1", "2"]
    other = order_from_reduced_word(s, [2, 1, 2])
    assert words(s, other.sequence) == ["2", "1.2.1", "1"]
    assert list(other.sequence) == list(reversed(order.sequence))


def test_six_term_order_a3(system):
    s = system("A3")
    order = order_from_reduced_word(s, [1, 2, 3, 1, 2, 1])
    assert words(s, order.sequence) == ["1", "1.2.1", "1.2.3.2.1", "2", "2.3.2", "3"]


def test_not_reduced_rejected(system):
    s = system("A2")
    with pytest.raises(NotReducedWordOfW0):
        order_from_reduced_word(s, [1, 2])          # too short
    with pytest.raises(NotReducedWordOfW0):
        order_from_reduced_word(s, [1, 1, 1])       # not w0


def test_opposite(system):
    s = system("A3")
    order = shortlex_order(s)
    op = opposite(order)
    assert list(op.sequence) == list(reversed(order.sequence))
    assert opposite(op).sequence == order.sequence
    assert validate(s, op.sequence).ok
    # plain word reversal is not enough when the diagram involution is nontrivial
    rev_seq = inversion_sequence(s, tuple(reversed(order.word)))
    assert list(rev_seq) != list(reversed(order.sequence))


def test_validate_all_constructed_orders(system):
    for name in ["A2", "A3"]:
        s = system(name)
        for seq in oracle_reflection_orders(s):
            assert validate(s, seq).ok


def test_validate_rejects_swap(system):
    s = system("A2")
    # 1.2.1 must sit between 1 and 2; swapping the first two entries breaks it
    bad = (s.parse_word("1.2.1"), s.parse_word("1"), s.parse_word("2"))
    report = validate(s, bad)
    assert not report.ok
    assert report.violation is not None
    mid = s.parse_word("1.2.1")
    assert mid in report.violation


def test_initial_segments_are_inversion_sets(system):
    s = system("A3")
    for seq in oracle_reflection_orders(s):
        # recover the provenance word from the sequence prefix products
        prefix = 0
        for k, t in enumerate(seq, start=1):
            prefix = s.mul(t, prefix)
            left_inversions = {r for r in s.reflections
                               if s.len_of(s.mul(r, prefix)) < s.len_of(prefix)}
            assert left_inversions == set(seq[:k])


def test_order_census(system):
    assert len(oracle_reflection_orders(system("A2"))) == 2
    assert len(oracle_reflection_orders(system("A3"))) == 16


def test_order_for_springer_examples(system):
    s = system("A2")
    order = order_for_springer(s, {1}, {2})
    assert words(s, order.sequence) == ["1", "1.2.1", "2"]
    a3 = system("A3")
    order = order_for_springer(a3, {1}, {3})
    assert order.sequence[0] == a3.parse_word("1")
    assert order.sequence[-1] == a3.parse_word("3")
    assert validate(a3, order.sequence).ok
    # vacuous constraints still give a valid order
    assert validate(a3, order_for_springer(a3, set(), set()).sequence).ok
    with pytest.raises(OverlappingSubsets):
        order_for_springer(a3, {1, 2}, {2})


def test_order_for_springer_segments(system):
    a3 = system("A3")
    t_set = set(a3.reflections)
    for Jp, J in [({1}, {3}), ({2}, {1}), ({1, 3}, {2}), (set(), {1, 2})]:
        order = order_for_springer(a3, Jp, J)
        rank = order.rank
        t_jp = t_set & set(a3.parabolic(Jp).elements)
        t_j = t_set & set(a3.parabolic(J).elements)
        if t_jp and t_set - t_jp:
            assert max(rank[t] for t in t_jp) < min(rank[t] for t in t_set - t_jp)
        if t_j and t_set - t_j:
            assert max(rank[t] for t in t_set - t_j) < min(rank[t] for t in t_j)
        assert validate(a3, order.sequence).ok


def test_order_for_fiber(system):
    s = system("A2")
    order = order_for_fiber(s, s.parse_word("1.2"))
    head = set(order.sequence[:2])
    assert head == {s.parse_word("2"), s.parse_word("1.2.1")}
    assert order.sequence[-1] == s.parse_word("1")
    assert validate(s, order.sequence).ok
    # trivial base element and the longest element are both unconstrained
    assert validate(s, order_for_fiber(s, 0).sequence).ok
    assert validate(s, order_for_fiber(s, s.w0).sequence).ok
    a3 = system("A3")
    for vp in range(a3.size):
        order = order_for_fiber(a3, vp)
        n_r = a3.right_inversion_reflections(vp)
        rank = order.rank
        rest = set(a3.reflections) - n_r
        if n_r and rest:
            assert max(rank[t] for t in n_r) < min(rank[t] for t in rest)


def test_order_for_fiber_is_kept_per_system():
    s = build_system("A3")  # fresh: its memo starts empty
    vp = s.parse_word("1.2")
    order = order_for_fiber(s, vp)
    again = order_for_fiber(s, vp)
    assert again == order and again.sequence is order.sequence
    other = build_system("A3")
    fresh = order_for_fiber(other, vp)
    assert fresh.system is other and fresh.sequence is not order.sequence
    assert fresh.sequence == order.sequence
    # the memo holds no order, so no cycle runs through the system: it is
    # freed with its last reference, with the cycle collector off
    ref = weakref.ref(other)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del other, fresh
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_failed_initial_segment_check_is_not_kept(monkeypatch):
    # fault injection: N_R(v') is replaced by the other reflections, so the
    # order's head cannot match it; each call checks again and raises
    s = build_system("A3")
    vp = s.parse_word("1.2")
    wrong = frozenset(s.reflections) - s.right_inversion_reflections(vp)
    monkeypatch.setattr(s, "right_inversion_reflections", lambda v: wrong)
    for _ in range(2):
        with pytest.raises(TheoremFalsified, match=r"does not start with N_R\(v'\)"):
            order_for_fiber(s, vp)
    assert vp not in s._fiber_orders
