"""Matching construction, acyclicity, M-subsets, Morse counts."""

import re

import pytest

from coxmorse.errors import (
    CyclicMatching,
    EmptyInterval,
    InvalidSubset,
    NotAMatching,
    TheoremFalsified,
)
from coxmorse.matchings import (
    Matching,
    build_matching,
    is_M_subset,
    is_acyclic,
    labeled_interval,
    matching_from_pairs,
    morse_counts,
    verify_shelling_subsets,
)
from coxmorse.posets import poset_from_covers
from coxmorse.reflection_orders import order_from_reduced_word
from coxmorse.springer import build_springer_poset, springer_matching
from coxmorse.verify import all_orders


def id_pairs(s, li, matching):
    return {frozenset((li.ids[a], li.ids[b])) for a, b in matching.pairs}


def test_rank_one_interval(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.simple(1))
    m = build_matching(li, order_from_reduced_word(s, [1, 2, 1]))
    assert m.pairs == ((0, 1),) and m.is_complete()


def test_empty_interval_rejected(system):
    s = system("A2")
    li = labeled_interval(s, 0, 0)
    with pytest.raises(EmptyInterval):
        build_matching(li, order_from_reduced_word(s, [1, 2, 1]))


def test_a2_full_interval_pairs(system):
    s = system("A2")
    order = order_from_reduced_word(s, [1, 2, 1])
    li = labeled_interval(s, 0, s.w0)
    m = build_matching(li, order)
    assert id_pairs(s, li, m) == {
        frozenset((0, s.parse_word("2"))),
        frozenset((s.parse_word("1"), s.parse_word("2.1"))),
        frozenset((s.parse_word("1.2"), s.w0)),
    }
    assert is_acyclic(li.poset, m).acyclic


def test_matched_edge_has_maximal_label(system):
    s = system("A3")
    order = order_from_reduced_word(s, [1, 2, 3, 1, 2, 1])
    rank = order.rank
    for v, w in [(0, s.w0), (s.parse_word("2"), s.parse_word("2.3.1.2")),
                 (s.parse_word("1"), s.parse_word("1.2.3"))]:
        li = labeled_interval(s, v, w)
        m = build_matching(li, order)
        best = {}
        for lo, hi, t in li.poset.covers:
            for x in (lo, hi):
                best[x] = max(best.get(x, -1), rank[t])
        for lo, hi, t in li.poset.covers:
            if m.partner[lo] == hi:
                assert rank[t] == best[lo] == best[hi]


def test_restriction_coherence(system):
    # an interval that is preserved by the big matching inherits it exactly
    s = system("A3")
    for order in all_orders(s):
        big = labeled_interval(s, 0, s.w0)
        m = build_matching(big, order)
        for v, w in s.comparable_pairs(strict=True):
            sub_ids = set(s.interval_ids(v, w))
            local = [big.index[x] for x in sub_ids]
            if not is_M_subset(m, local):
                continue
            small = labeled_interval(s, v, w)
            m_small = build_matching(small, order)
            got = {frozenset((big.ids[a], big.ids[m.partner[a]])) for a in local}
            want = {frozenset((small.ids[a], small.ids[m_small.partner[a]]))
                    for a in range(small.poset.n)}
            assert got == want


def test_m_subset_algebra(system):
    s = system("A2")
    order = order_from_reduced_word(s, [1, 2, 1])
    li = labeled_interval(s, 0, s.w0)
    m = build_matching(li, order)
    everything = set(range(li.poset.n))
    assert is_M_subset(m, everything)
    sub = {li.index[x] for x in s.interval_ids(s.simple(1), s.w0)}
    assert is_M_subset(m, sub)
    assert is_M_subset(m, everything - sub)  # complements are preserved
    assert not is_M_subset(m, {li.index[0]})


def test_acyclicity_detects_cycles():
    # two stacked squares with both verticals matched produce an up-down cycle
    poset = poset_from_covers(
        ["a", "b", "c", "d"], [0, 1, 0, 1],
        [(0, 1, None), (2, 1, None), (2, 3, None), (0, 3, None)])
    m = matching_from_pairs(poset, [(0, 1), (2, 3)])
    report = is_acyclic(poset, m)
    assert not report.acyclic
    assert report.cycle is not None and len(report.cycle) >= 4
    with pytest.raises(CyclicMatching):
        morse_counts(poset, m)


def test_acyclicity_needs_covers_between_adjacent_dims():
    poset = poset_from_covers(["a", "b", "c"], [0, 1, 2], [(0, 1, None), (0, 2, None)])
    with pytest.raises(InvalidSubset, match="a < c"):
        is_acyclic(poset, matching_from_pairs(poset, [(0, 1)]))


def test_matching_from_pairs_validation():
    poset = poset_from_covers(["a", "b"], [0, 1], [(0, 1, None)])
    with pytest.raises(NotAMatching):
        matching_from_pairs(poset, [(0, 1), (0, 1)])
    poset2 = poset_from_covers(["a", "b", "c"], [0, 1, 2],
                               [(0, 1, None), (1, 2, None)])
    with pytest.raises(NotAMatching):
        matching_from_pairs(poset2, [(0, 2)])  # not a cover edge


def test_morse_counts_and_certificate(system):
    s = system("A2")
    sp = build_springer_poset(s, set(), set())
    matching, summary = springer_matching(sp)
    assert summary.counts == {0: 1}
    assert summary.certificate
    point = poset_from_covers(["pt"], [0], [])
    m0 = matching_from_pairs(point, [])
    assert morse_counts(point, m0).counts == {0: 1}


def test_shelling_on_all_a2_intervals(system):
    s = system("A2")
    for order in all_orders(s):
        for v, w in s.comparable_pairs(strict=True):
            li = labeled_interval(s, v, w)
            report = verify_shelling_subsets(li, order)
            # a dihedral interval of rank >= 2 has two atoms and two coatoms
            assert report.coatom_prefixes == report.atom_prefixes == min(li.rank, 2)


def test_shelling_check_fires_on_swapped_partners(system):
    # the bottom takes M(w), a coatom other than the smallest-label w_1, so
    # already the first coatom prefix union [v, w_1] is no longer preserved
    s = system("A3")
    order = order_from_reduced_word(s, [1, 2, 3, 1, 2, 1])
    checked = 0
    for v, w in s.comparable_pairs(strict=True):
        li = labeled_interval(s, v, w)
        if li.rank < 2:
            continue
        m = build_matching(li, order)
        bot, top = li.index[v], li.index[w]
        partner = list(m.partner)
        partner[bot], partner[top] = partner[top], partner[bot]
        message = (f"coatom prefix union of 1 intervals is not an M-subset "
                   f"in [{s.word_str(v)}, {s.word_str(w)}]")
        with pytest.raises(TheoremFalsified, match=re.escape(message)):
            verify_shelling_subsets(li, order, Matching(li.poset, tuple(partner)))
        checked += 1
    assert checked == 189 - 58  # every nontrivial interval but the 58 covers
