"""Springer pair posets: membership, slices, coset pieces, certificates."""

import re

import pytest

from coxmorse import cells, springer
from coxmorse.cli import main
from coxmorse.errors import (
    CyclicMatching,
    NotMinimalCosetRep,
    OverlappingSubsets,
    TheoremFalsified,
)
from coxmorse.matchings import Matching
from coxmorse.oracles import oracle_coset_piece, oracle_springer_member
from coxmorse.posets import euler_characteristic, is_pure
from coxmorse.springer import (
    build_slices,
    build_springer_poset,
    springer_matching,
)
from coxmorse.verify import disjoint_pairs
from helpers import with_members


def test_a1_examples(system):
    s = system("A1")
    sp = build_springer_poset(s, {1}, set())
    assert sp.members == ((s.simple(1), s.simple(1)),)
    matching, summary = springer_matching(sp)
    assert summary.counts == {0: 1} and summary.certificate

    sp = build_springer_poset(s, set(), {1})
    assert sp.members == ((0, 0),)
    assert sp.apex == 0  # w_{J'} w0 = s s = e
    _, summary = springer_matching(sp)
    assert summary.certificate


def test_a2_empty_sets(system):
    s = system("A2")
    sp = build_springer_poset(s, set(), set())
    assert len(sp.members) == 19
    matching, summary = springer_matching(sp)
    assert len(matching.pairs) == 9
    assert [sp.members[i] for i in summary.unmatched] == [(s.w0, s.w0)]
    assert euler_characteristic(sp.poset) == 1


def test_overlap_rejected(system):
    with pytest.raises(OverlappingSubsets):
        build_springer_poset(system("A2"), {1}, {1, 2})


def test_membership_conditions(system):
    # members satisfy the defining descent/ascent conditions verbatim
    s = system("A3")
    J, Jp = frozenset({1}), frozenset({3})
    sp = build_springer_poset(s, J, Jp)
    assert sp.members
    for v, w in sp.members:
        assert s.bruhat_leq(v, w)
        for i in J:
            sw = int(s.left[w, i - 1])
            assert s.len_of(sw) < s.len_of(w)
            assert not s.bruhat_leq(v, sw)
        for j in Jp:
            sv = int(s.left[v, j - 1])
            assert s.len_of(sv) > s.len_of(v)
            assert not s.bruhat_leq(sv, w)


def test_slices(system):
    s = system("A2")
    sp = build_springer_poset(s, set(), set())
    z_v, p_v, q_v = build_slices(sp, 0)
    everything = sorted(range(s.size))
    assert z_v == p_v == q_v == everything  # vacuous conditions give [e, w0]

    sp = build_springer_poset(s, {1}, set())
    z_e, p_e, q_e = build_slices(sp, 0)
    # brute force: Q_e = {w : e not<= s1 w} is empty since e <= everything
    assert q_e == [] and z_e == []

    # apex slice is a singleton
    a3 = system("A3")
    sp3 = build_springer_poset(a3, {1}, {3})
    apex = sp3.apex
    z_a, _, _ = build_slices(sp3, apex)
    assert z_a == [apex]
    with pytest.raises(NotMinimalCosetRep):
        build_slices(sp3, a3.simple(3))  # has a left descent in J'


def test_coset_pieces_partition(system):
    s = system("A2")
    pieces = [oracle_coset_piece(s, 0, w, {1}) for w in s.parabolic({1}).min_left]
    flat = sorted(x for piece in pieces for x in piece)
    assert flat == sorted(range(s.size))
    assert [[s.word_str(x) for x in piece] for piece in sorted(pieces)] == [
        ["e", "1"], ["2", "1.2"], ["2.1", "1.2.1"]]
    with pytest.raises(NotMinimalCosetRep):
        oracle_coset_piece(s, 0, s.simple(1), {1})


def test_coset_piece_membership_rule(system):
    # x lies in Q_v iff its whole coset piece is the singleton top element
    s = system("A3")
    J = frozenset({2})
    sp = build_springer_poset(s, J, frozenset())
    w_j = s.longest(J)
    for v in range(s.size):
        _, _, q_v = build_slices(sp, v)
        got = set(q_v)
        alt = set()
        for w in s.parabolic(J).min_left:
            piece = oracle_coset_piece(s, v, w, J)
            if piece == [s.mul(w_j, w)]:
                alt.update(piece)
        assert got == alt


def test_interval_in_parabolic(system):
    # for v <= w, {a in W_J : v <= a . (min rep of W_J w)} is an upper
    # interval [x, w_J] of W_J: its unique minimum x lies below every hit
    s = system("A3")

    def parabolic_interval(v, w, J):
        sub = s.parabolic(J)
        jw, = set(sub.min_left) & {s.mul(a, w) for a in sub.elements}
        hits = {a for a in sub.elements if s.bruhat_leq(v, s.mul(a, jw))}
        x, = (a for a in hits if not any(b != a and s.bruhat_leq(b, a) for b in hits))
        assert hits == {a for a in sub.elements if s.bruhat_leq(x, a)}
        return x

    # v = e qualifies everything, so x = e
    assert parabolic_interval(0, s.w0, {1, 2}) == 0
    # J = I, w = w0: set is the upper interval above v itself
    for v in range(s.size):
        assert parabolic_interval(v, s.w0, {1, 2, 3}) == v
    for v, w in s.comparable_pairs(strict=True):
        parabolic_interval(v, w, {2, 3})


def test_cross_slice_covers(system):
    s = system("A3")
    sp = build_springer_poset(s, {2}, {1})
    for lo, hi, _ in sp.poset.covers:
        (v1, w1), (v2, w2) = sp.members[lo], sp.members[hi]
        if v1 != v2:
            assert w1 == w2
            assert s.len_of(v1) == s.len_of(v2) + 1
            assert s.bruhat_leq(v2, v1)


def test_full_sweep_b3(system):
    s = system("B3")
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        _, summary = springer_matching(sp)
        assert summary.certificate
        assert euler_characteristic(sp.poset) == 1
        apex = sp.apex
        assert [sp.members[i] for i in summary.unmatched] == [(apex, apex)]


def test_springer_poset_is_pure_for_empty_sets(system):
    s = system("A2")
    sp = build_springer_poset(s, set(), set())
    assert is_pure(sp.poset)


@pytest.mark.parametrize("name", ["A3", "B3", "A4"])
def test_members_match_the_per_pair_oracle(system, name):
    s = system(name)
    pairs = s.comparable_pairs()
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        want = {(v, w) for v, w in pairs if oracle_springer_member(s, v, w, J, Jp)}
        assert set(sp.members) == want, (sorted(J), sorted(Jp))
        assert len(sp.members) == len(want)


def test_build_slices_rejects_a_dropped_member(system):
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    v, w = next(p for p in sp.members if p != (sp.apex, sp.apex))
    dropped = with_members(sp, tuple(p for p in sp.members if p != (v, w)))
    message = f"slice Z_v at v={s.word_str(v)} is not the intersection of P_v and Q_v"
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        build_slices(dropped, v)


def swap_across_slice(members):
    """build_matching with the partners of one cell of the slice at li.v and
    of one cell of the interval outside that slice swapped."""
    real = cells.build_matching

    def faulty(li, order):
        m = real(li, order)
        inside = {li.index[w] for v, w in members if v == li.v}
        outside = [c for c in range(li.poset.n) if c not in inside]
        if not outside:
            return m
        a, c = min(inside), outside[0]
        partner = list(m.partner)
        partner[a], partner[c] = partner[c], partner[a]
        return Matching(li.poset, tuple(partner))

    return faulty


def test_slice_matching_rejects_a_partner_outside_the_slice(system, monkeypatch):
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(cells, "build_matching", swap_across_slice(sp.members))
    with pytest.raises(TheoremFalsified, match="is not preserved by the matching of"):
        springer_matching(sp)


def test_slice_matching_rejects_a_wrong_apex(system, monkeypatch):
    sp = build_springer_poset(system("A3"), {1}, {3})
    apex = sp.index[(sp.apex, sp.apex)]

    def shifted_apex(system, poset, slices, order, apex, what):
        return cells.slice_matching(system, poset, slices, order, apex + 1, what)

    monkeypatch.setattr(springer, "slice_matching", shifted_apex)
    names = sp.poset.names
    message = (f"unmatched cells of the springer pair poset (J=[1], J'=[3]) are "
               f"['{names[apex]}'], expected only {names[apex + 1]}")
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        springer_matching(sp)


def test_slice_matching_rejects_a_cyclic_assembly(system, monkeypatch):
    # on the slice at e, x0, x1 both covered by y0 and y1 are matched
    # x0-y0 and x1-y1: x0 -> y0 -> x1 -> y1 -> x0 within one slice
    real = cells.build_matching

    def cyclic(li, order):
        up = {}
        for lo, hi, _ in li.poset.covers:
            up.setdefault(lo, set()).add(hi)
        quad = next(((a, b, *sorted(up[a] & up[b])[:2]) for a in up for b in up
                     if a < b and len(up[a] & up[b]) >= 2), None)
        if quad is None:
            return real(li, order)
        x0, x1, y0, y1 = quad
        partner = list(range(li.poset.n))
        partner[x0], partner[y0], partner[x1], partner[y1] = y0, x0, y1, x1
        return Matching(li.poset, tuple(partner))

    sp = build_springer_poset(system("A2"), set(), set())
    monkeypatch.setattr(cells, "build_matching", cyclic)
    with pytest.raises(CyclicMatching):
        springer_matching(sp)


def test_cli_exits_as_falsification_on_a_partner_outside_the_slice(system, monkeypatch,
                                                                  capsys):
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(cells, "build_matching", swap_across_slice(sp.members))
    code = main(["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("FALSIFIED: ") and "is not preserved by the matching" in out.err
