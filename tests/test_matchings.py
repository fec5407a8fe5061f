"""Matching construction, acyclicity, M-subsets, Morse counts."""

import re

import pytest

from coxmorse.errors import (
    CyclicMatching,
    EmptyInterval,
    Falsification,
    TheoremFalsified,
)
from coxmorse.matchings import (
    LabeledInterval,
    Matching,
    build_matching,
    is_acyclic,
    labeled_interval,
    morse_counts,
    verify_shelling_subsets,
)
from coxmorse.posets import FinitePoset
from coxmorse.reflection_orders import order_from_reduced_word, shortlex_order
from coxmorse.springer import build_springer_poset, springer_matching
from coxmorse.verify import all_orders
from helpers import closed_order, is_M_subset, poset_from_covers


def id_pairs(s, li, matching):
    return {frozenset((li.ids[a], li.ids[b])) for a, b in matching.pairs}


def test_rank_one_interval(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.simple(1))
    m = build_matching(li, order_from_reduced_word(s, [1, 2, 1]))
    assert m.pairs == ((0, 1),) and not m.fixed


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
    m = Matching(poset, (1, 0, 3, 2))
    report = is_acyclic(poset, m)
    assert not report.acyclic
    assert report.cycle == (0, 1, 2, 3, 0)
    with pytest.raises(CyclicMatching, match=re.escape("(0, 1, 2, 3, 0)")):
        morse_counts(poset, m)


def test_acyclicity_seeds_roots_in_the_order_of_their_matched_covers():
    # the squares above with their covers listed from c: the search starts
    # at c, whose matched cover comes first, and the witness starts there
    poset = poset_from_covers(
        ["a", "b", "c", "d"], [0, 1, 0, 1],
        [(2, 3, None), (2, 1, None), (0, 3, None), (0, 1, None)])
    m = Matching(poset, (1, 0, 3, 2))
    assert is_acyclic(poset, m).cycle == (2, 3, 0, 1, 2)


def test_acyclicity_needs_covers_between_adjacent_dims():
    poset = poset_from_covers(["a", "b", "c"], [0, 1, 2], [(0, 1, None), (0, 2, None)])
    m = Matching(poset, (1, 0, 2))
    with pytest.raises(TheoremFalsified, match="a < c"):
        is_acyclic(poset, m)
    # the failed check cached nothing: a second call fails the same way
    with pytest.raises(TheoremFalsified, match="a < c"):
        is_acyclic(poset, m)


def test_morse_counts_and_certificate(system):
    s = system("A2")
    sp = build_springer_poset(s, set(), set())
    matching, summary = springer_matching(sp)
    assert summary.counts == {0: 1}
    assert summary.certificate
    point = poset_from_covers(["pt"], [0], [])
    m0 = Matching(point, (0,))
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


def test_interval_masks_and_order_are_the_bruhat_order(system):
    # the masks, and the order the tests close, come from the interval's
    # covers alone; they must agree with the Bruhat order read on the interval
    s = system("A3")
    for v, w in s.comparable_pairs(strict=True):
        li = labeled_interval(s, v, w)
        for i, x in enumerate(li.ids):
            below = {j for j, y in enumerate(li.ids) if s.bruhat_leq(y, x)}
            above = {j for j, y in enumerate(li.ids) if s.bruhat_leq(x, y)}
            assert li.lower_sets[i] == sum(1 << j for j in below)
            assert li.upper_sets[i] == sum(1 << j for j in above)
            assert set(closed_order(li.poset).rows(i).nonzero()[0].tolist()) == above
        assert [x for _, x in li.atoms] == [i for i in range(li.poset.n)
                                             if li.poset.dims[i] == 1]
        assert [x for _, x in li.coatoms] == [i for i in range(li.poset.n)
                                               if li.poset.dims[i] == li.rank - 1]


def without_cover(li, k):
    """``li`` with its k-th cover dropped and no cache carried over."""
    p = li.poset
    poset = FinitePoset(p.dims, None, p.covers[:k] + p.covers[k + 1:], p.payload, p.index,
                        p.name_of)
    return LabeledInterval(li.system, li.v, li.w, poset)


def run_pipeline(li, order):
    m = build_matching(li, order)
    verify_shelling_subsets(li, order, m)
    return morse_counts(li.poset, m)


def test_a_dropped_matched_cover_is_falsified(system):
    # dropping a matched cover of a B3 interval makes edge selection, the
    # shelling check or the Morse counts fail, never pass; an unmatched
    # cover can go unnoticed (it only removes a down-edge and a relation
    # the checks may not read), so only matched ones are dropped here
    s = system("B3")
    order = shortlex_order(s)
    dropped = 0
    for v, w in s.comparable_pairs(strict=True)[::7] + [(0, s.w0)]:
        li = labeled_interval(s, v, w)
        m = build_matching(li, order)
        run_pipeline(li, order)   # fills every cache of the intact interval
        for k, (lo, hi, _) in enumerate(li.poset.covers):
            if m.partner[lo] == hi:
                with pytest.raises(Falsification):
                    run_pipeline(without_cover(li, k), order)
                dropped += 1
    assert dropped > 500


def test_a_flipped_bit_of_a_cached_mask_is_falsified(system):
    # any bit of the first coatom's lower set, or of the first atom's
    # upper set, flipped in the cache: the first prefix union is no longer
    # a union of matched pairs
    s = system("B3")
    order = shortlex_order(s)
    li = labeled_interval(s, s.parse_word("2"), s.w0)
    m = build_matching(li, order)
    report = verify_shelling_subsets(li, order, m)
    assert report.coatom_prefixes >= 2 and report.atom_prefixes >= 2
    for side, first in (("lower_sets", min(li.coatoms, key=lambda c: order.rank[c[0]])),
                        ("upper_sets", min(li.atoms, key=lambda a: order.rank[a[0]]))):
        intact = li.__dict__[side]
        x = first[1]
        for z in range(li.poset.n):
            li.__dict__[side] = intact[:x] + (intact[x] ^ 1 << z,) + intact[x + 1:]
            with pytest.raises(TheoremFalsified, match="prefix union of 1 intervals"):
                verify_shelling_subsets(li, order, m)
        li.__dict__[side] = intact
    assert verify_shelling_subsets(li, order, m) == report
