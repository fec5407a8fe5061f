"""Springer pair posets: membership, slices, coset pieces, certificates."""

import re
from pathlib import Path

import numpy as np
import pytest

from coxmorse import cells, cli, springer
from coxmorse.cli import main
from coxmorse.errors import (
    CyclicMatching,
    Falsification,
    NotAMatching,
    NotMinimalCosetRep,
    OverlappingSubsets,
    TheoremFalsified,
)
from coxmorse.fibers import fiber_matching, fiber_slices
from coxmorse.matchings import Matching, partner_table
from coxmorse.oracles import oracle_coset_piece, oracle_slice_partners, oracle_springer_member
from coxmorse.posets import euler_characteristic, is_pure
from coxmorse.reflection_orders import ReflectionOrder, order_for_springer, shortlex_order
from coxmorse.springer import (
    build_slices,
    build_springer_poset,
    springer_matching,
    springer_slices,
)
from coxmorse.verify import disjoint_pairs
from helpers import b3_with_a_cover_across_dims, plant_in_partner_table, with_members

GOLDEN = Path(__file__).parent / "golden"


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


def test_a_springer_cover_that_skips_a_length_is_refused(monkeypatch, capsys):
    # the planted cover e < 1.2.1 gives the cover (1.2.1,1.2.1) < (e,1.2.1)
    # of Z across slices, which moves v by three lengths
    b3 = b3_with_a_cover_across_dims()
    cover = re.escape("(1.2.1,1.2.1) < (e,1.2.1)")
    with pytest.raises(TheoremFalsified, match=cover):
        build_springer_poset(b3, set(), set())
    monkeypatch.setattr(cli, "_system_from_args", lambda args: b3)
    assert main(["springer", "--group", "B3", "--J", "{}", "--Jprime", "{}"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and re.search(cover, out.err)


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
    """slice_partners with the partners of one cell of the slice at x and
    of one checked element outside that slice swapped."""
    real = cells.slice_partners

    def faulty(system, x, top, ys, rows):
        m = real(system, x, top, ys, rows)
        inside = {w for v, w in members if v == x}
        outside = sorted(set(m) - inside)
        if outside:
            a, c = min(inside), outside[0]
            m[a], m[c] = m[c], m[a]
        return m

    return faulty


def swap_across_slice_arrays(members):
    """slice_partner_arrays with the partners swapped as by
    :func:`swap_across_slice`, for the pairs of each base x."""
    real = cells.slice_partner_arrays

    def faulty(system, x, y, table):
        m = real(system, x, y, table)
        for base in sorted(set(x.tolist())):
            inside = {w for v, w in members if v == base}
            at = np.flatnonzero(x == base)
            outside = [k for k in at.tolist() if y[k] not in inside]
            if outside:
                a, c = next(k for k in at.tolist() if y[k] == min(inside)), outside[0]
                m[a], m[c] = m[c], m[a]
        return m

    return faulty


def per_slice_matching(sp):
    """The matching of the per-slice route (:func:`springer_slices`,
    :func:`cells.slice_matching`)."""
    return cells.slice_matching(sp.system, sp.poset, *springer_slices(sp))


def test_slice_matching_rejects_a_partner_outside_the_slice(system, monkeypatch):
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(cells, "slice_partners", swap_across_slice(sp.members))
    with pytest.raises(TheoremFalsified, match="is not preserved by the matching of"):
        per_slice_matching(sp)


def test_slice_matching_rejects_a_wrong_apex(system, monkeypatch):
    sp = build_springer_poset(system("A3"), {1}, {3})
    slices, order, apex, what = springer_slices(sp)
    names = sp.poset.names
    message = (f"unmatched cells of the springer pair poset (J=[1], J'=[3]) are "
               f"['{names[apex]}'], expected only {names[apex + 1]}")
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        cells.slice_matching(sp.system, sp.poset, slices, order, apex + 1, what)


def test_slice_matching_rejects_a_cyclic_assembly(system, monkeypatch):
    # on the slice at e, x0, x1 both covered by y0 and y1 are matched
    # x0-y0 and x1-y1: x0 -> y0 -> x1 -> y1 -> x0 within one slice
    real = cells.slice_partners

    def cyclic(system, x, top, ys, rows):
        up = {y: {u for u, _ in system.bruhat_covers_up(y)} & set(ys) for y in ys}
        quad = next(((a, b, *sorted(up[a] & up[b])[:2]) for a in sorted(up) for b in sorted(up)
                     if a < b and len(up[a] & up[b]) >= 2), None)
        if quad is None:
            return real(system, x, top, ys, rows)
        x0, x1, y0, y1 = quad
        partner = {y: y for y in ys}
        partner[x0], partner[y0], partner[x1], partner[y1] = y0, x0, y1, x1
        return partner

    sp = build_springer_poset(system("A2"), set(), set())
    monkeypatch.setattr(cells, "slice_partners", cyclic)
    with pytest.raises(CyclicMatching):
        per_slice_matching(sp)


def test_slice_matching_rejects_partners_that_are_not_an_involution(system, monkeypatch):
    # on the first slice with two matched pairs y-u and y2-u2 inside it, y
    # is sent to u2: every checked set is still preserved, but y -> u2 -> y2
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    real = cells.slice_partners
    seen = []

    def faulty(system, x, top, ys, rows):
        m = real(system, x, top, ys, rows)
        inside = {w for v, w in sp.members if v == x}
        pairs = sorted((y, u) for y, u in m.items() if y < u and {y, u} <= inside)
        if not seen and len(pairs) >= 2:
            (y, _), (_, u2) = pairs[:2]
            m[y] = u2
            seen.append(x)
        return m

    monkeypatch.setattr(cells, "slice_partners", faulty)
    with pytest.raises(NotAMatching, match=r"edge selection is not an involution at .* in \[") as exc:
        per_slice_matching(sp)
    assert f"in [{s.word_str(seen[0])}, {s.word_str(s.w0)}] in the springer pair poset" in str(exc.value)


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4"])
def test_the_array_route_gives_what_the_per_cell_and_per_slice_routes_give(system, name):
    s = system(name)
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        ideal = cells.ideal_poset(s, sp.members, "springer pair poset")
        assert ideal.payload == sp.members and ideal.dims == sp.poset.dims, (J, Jp)
        assert ideal.covers == sp.poset.covers, (J, Jp)
        # every candidate v: (Z_v, P_v, Q_v) of the block rows and of build_slices
        for v, p, q, z in springer._slice_rows(s, sp.J, sp.Jprime):
            for k, x in enumerate(v.tolist()):
                rows = tuple(np.flatnonzero(r[k]).tolist() for r in (z, p, q))
                assert rows == build_slices(sp, x), (J, Jp, x)
        assert sp.partner is not None
        matching, summary = springer_matching(sp)
        per_slice, per_slice_summary = per_slice_matching(sp)
        assert matching.partner == per_slice.partner, (J, Jp)
        assert summary.unmatched == per_slice_summary.unmatched == (sp.index[(sp.apex, sp.apex)],)


def test_a_partner_that_only_the_arrays_swap_fails_naming_both_routes(system, monkeypatch,
                                                                     capsys):
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(springer, "slice_partner_arrays", swap_across_slice_arrays(sp.members))
    message = ("the array route fails the slices of the springer pair poset (J=[1], J'=[3]), "
               "but the per-slice route passes them")
    with pytest.raises(Falsification, match=re.escape(message)):
        springer_matching(build_springer_poset(system("A3"), {1}, {3}))
    code = main(["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err == f"FALSIFIED: {message}\n"


# Plants in the partners M of one base x (m[pos[y]] = M(y)), given Z_x,
# P_x, Q_x and the lengths; each returns True where it fits.  Each keeps
# every array test but one.

def cross(m, pos, a, c):
    """a-b and c-d become a-d and c-b."""
    b, d = m[pos[a]], m[pos[c]]
    m[pos[a]], m[pos[d]], m[pos[c]], m[pos[b]] = d, a, b, c


def cross_p_v_with_q_v(m, pos, z, p, q, length):
    # a in P_x minus Q_x, c in Q_x minus P_x: neither set is preserved
    only_p, only_q = sorted(set(p) - set(q)), sorted(set(q) - set(p))
    if only_p and only_q:
        cross(m, pos, only_p[0], only_q[0])
        return True


def break_the_involution(m, pos, z, p, q, length):
    # M(a) moves to another pair of Q_x minus P_x, so M(M(a)) != a
    only_q = sorted(set(q) - set(p))
    if len(only_q) >= 4:
        a = only_q[0]
        m[pos[a]] = next(c for c in only_q if c not in (a, m[pos[a]]))
        return True


def match_across_two_lengths(m, pos, z, p, q, length):
    # a < b and c < d in Z_x with l(c) = l(a) + 1: a-d is no cover
    lows = [y for y in z if m[pos[y]] > y]
    steps = [(a, c) for a in lows for c in lows if length[c] == length[a] + 1]
    if steps:
        cross(m, pos, *steps[0])
        return True


def leave_a_pair_unmatched(m, pos, z, p, q, length):
    a = z[0]
    b = m[pos[a]]
    m[pos[a]], m[pos[b]] = a, b
    return True


@pytest.mark.parametrize("plant", [cross_p_v_with_q_v, break_the_involution,
                                   match_across_two_lengths, leave_a_pair_unmatched])
def test_a_fault_in_the_array_partners_alone_fails_naming_both_routes(system, monkeypatch,
                                                                     plant):
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    real = cells.slice_partner_arrays
    planted = []

    def faulty(system, x, y, table):
        m = real(system, x, y, table)
        for base in sorted(set(x.tolist())):
            at = np.flatnonzero(x == base).tolist()
            pos = dict(zip(y[at].tolist(), at))
            if not planted and plant(m, pos, *build_slices(sp, base), s.length):
                planted.append(base)
        return m

    monkeypatch.setattr(springer, "slice_partner_arrays", faulty)
    message = ("the array route fails the slices of the springer pair poset (J=[1], J'=[3]), "
               "but the per-slice route passes them")
    with pytest.raises(Falsification, match=re.escape(message)):
        springer_matching(build_springer_poset(s, {1}, {3}))
    assert planted


def test_cli_exits_as_falsification_on_a_partner_outside_the_slice(system, monkeypatch,
                                                                  capsys):
    # planted in both routes: the array route fails, and the per-slice
    # route names the failure
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(springer, "slice_partner_arrays", swap_across_slice_arrays(sp.members))
    monkeypatch.setattr(cells, "slice_partners", swap_across_slice(sp.members))
    code = main(["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("FALSIFIED: ") and "is not preserved by the matching" in out.err


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4", "B4"])
def test_slice_partners_match_the_full_interval_oracle(system, name):
    s = system(name)
    for J, Jp in disjoint_pairs(s.rank):
        slices, order, _, _ = springer_slices(build_springer_poset(s, J, Jp))
        rows = partner_table(s, order).tolist()
        for x, top, _, _ in slices:
            want = oracle_slice_partners(s, x, top, order)
            got = cells.slice_partners(s, x, top, want, rows)
            assert got == want, (J, Jp, x)


def test_fiber_slice_partners_match_the_full_interval_oracle(system, a3_fibers):
    s = system("A3")
    for fp in a3_fibers:
        slices, order, _, _ = fiber_slices(fp)
        rows = partner_table(s, order).tolist()
        for x, top, _, _ in slices:
            want = oracle_slice_partners(s, x, top, order)
            got = cells.slice_partners(s, x, top, want, rows)
            assert got == want, fp.anchors


def test_a_fiber_builds_a_partner_table_only_if_it_has_a_slice(system, a3_fibers,
                                                               monkeypatch):
    real, calls = cells.partner_table, []
    monkeypatch.setattr(cells, "partner_table",
                        lambda system, order: calls.append(order) or real(system, order))
    with_slices = sum(bool(fiber_slices(fp)[0]) for fp in a3_fibers)
    assert 0 < with_slices < len(a3_fibers)
    for fp in a3_fibers:
        fiber_matching(fp)
    assert len(calls) == with_slices


@pytest.mark.parametrize("top", ["1.2.1.3.2.1", "1.2.3"])
def test_a_row_of_pads_is_an_isolated_element(system, top):
    # the top w0 reads no order bit for an up-cover; any other top does
    s = system("A3")
    rows = partner_table(s, shortlex_order(s)).tolist()
    y = s.parse_word("2")
    rows[y] = [s.size] * len(rows[y])
    message = f"isolated element 2 in the Hasse diagram of [e, {top}]"
    with pytest.raises(NotAMatching, match=re.escape(message)):
        cells.slice_partners(s, 0, s.parse_word(top), [y], rows)


def matched_down_cover(s, J, Jp):
    """(x, y, u): the first slice at x of the Springer poset of (J, J') on
    ``s`` with a cell (x, y) matched to (x, u) for u covered by y."""
    sp = build_springer_poset(s, J, Jp)
    slices, order, _, _ = springer_slices(sp)
    rows = partner_table(s, order).tolist()
    for x, top, _, z_x in slices:
        m = cells.slice_partners(s, x, top, z_x, rows)
        for y in z_x:
            if any(u == m[y] for u, _ in s.bruhat_covers_down(y)):
                return x, y, m[y]
    raise AssertionError("no cell is matched downwards")


def two_edges_in_a_row(s, J, Jp):
    """(x, y, i, j): the first slice at x of the Springer poset of (J, J')
    on ``s`` with a cell (x, y) whose partner table row holds two edges of
    the slice's interval, the first at position i and the next at j."""
    sp = build_springer_poset(s, J, Jp)
    slices, order, _, _ = springer_slices(sp)
    table = partner_table(s, order)
    leq = s.bruhat_leq
    for x, top, _, z_x in slices:
        for y in z_x:
            inside = [k for k, u in enumerate(table[y].tolist())
                      if u < s.size and leq(x, u) and leq(u, top)]
            if len(inside) >= 2:
                return x, y, inside[0], inside[1]
    raise AssertionError("no row holds two edges of its slice")


def run_springer_on(monkeypatch, capsys, s, J, Jp, *flags):
    monkeypatch.setattr(cli, "_system_from_args", lambda args: s)
    code = main(["springer", "--group", s.matrix.label, "--J", J, "--Jprime", Jp, *flags])
    out = capsys.readouterr()
    assert out.out == ""
    return code, out.err


@pytest.mark.parametrize("flags", [(), ("--paranoid",)])
def test_a_wrong_down_cover_label_is_falsified_naming_the_slice(system, monkeypatch, capsys,
                                                                flags):
    # the cover u < y is sorted in the partner table as if its label were
    # ranked lowest; the cover arrays, and so the oracle, stay whole
    s = system("A3")
    x, y, u = matched_down_cover(s, {1}, {3})
    plant_in_partner_table(monkeypatch, [cells, cli, springer], u, y)
    order = springer_slices(build_springer_poset(s, {1}, {3}))[1]
    assert (cells.partner_table(s, order) != partner_table(s, order)).any()
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", *flags)
    assert code == 3 and err.startswith("FALSIFIED: ")
    assert f"[{s.word_str(x)}, {s.word_str(s.w0)}] in the springer pair poset" in err
    if flags:
        assert "disagrees with the full-interval oracle at 1" in err


def test_a_dropped_down_cover_is_falsified_naming_the_slice(system, monkeypatch, capsys):
    s = system("A3")
    x, y, u = matched_down_cover(s, {1}, {3})
    plant_in_partner_table(monkeypatch, [cells, cli, springer], u, y, drop=True)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}")
    assert code == 3 and err.startswith("FALSIFIED: ")
    assert f"[{s.word_str(x)}, {s.word_str(s.w0)}] in the springer pair poset" in err


@pytest.mark.parametrize("flags", [(), ("--paranoid",)])
def test_two_swapped_entries_of_a_table_row_are_falsified_naming_the_slice(
        system, monkeypatch, capsys, flags):
    s = system("A3")
    x, y, i, j = two_edges_in_a_row(s, {1}, {3})
    real = cells.partner_table

    def swapped(system, order):
        table = real(system, order)
        table[y, [i, j]] = table[y, [j, i]]
        return table

    for module in (cells, cli, springer):
        monkeypatch.setattr(module, "partner_table", swapped)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", *flags)
    assert code == 3 and err.startswith("FALSIFIED: ")
    assert f"[{s.word_str(x)}, {s.word_str(s.w0)}] in the springer pair poset" in err
    if flags:
        assert "disagrees with the full-interval oracle at" in err


def test_paranoid_springer_builds_each_slice_once(system, monkeypatch, capsys):
    # the slice-oracle comparison and the matching share one set of slices;
    # the report is the golden one
    s = system("A4")
    argv = ["springer", "--group", "A4", "--J", "{2}", "--Jprime", "{3}", "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    calls = []
    build = springer.build_slices
    monkeypatch.setattr(springer, "build_slices", lambda sp, v: calls.append(v) or build(sp, v))
    monkeypatch.setattr(cli, "_system_from_args", lambda args: s)
    assert main([*argv, "--paranoid"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.encode() == (GOLDEN / "springer_A4_J2_Jp3.json").read_bytes()
    assert sorted(calls) == sorted(build_springer_poset(s, {2}, {3}).slice_members)


def test_paranoid_springer_names_the_first_cell_whose_partners_differ(system, monkeypatch,
                                                                     capsys):
    # the array route's matched pairs a-b and c-d are planted as a-d and c-b
    s = system("A3")
    real = springer.springer_matching
    crossed = []

    def planted(sp):
        matching, summary = real(sp)
        partner = list(matching.partner)
        (a, b), (c, d) = matching.pairs[:2]
        partner[a], partner[b], partner[c], partner[d] = d, c, b, a
        crossed.append((sp.poset.names, a, b, d))
        return Matching(sp.poset, tuple(partner)), summary

    monkeypatch.setattr(cli, "springer_matching", planted)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", "--paranoid")
    (names, a, b, d), = crossed
    assert (code, err) == (3, f"FALSIFIED: the matching of the springer pair poset (J=[1], "
                              f"J'=[3]) disagrees with the per-slice route at {names[a]}: "
                              f"partner {names[d]} against {names[b]}\n")


@pytest.mark.parametrize("flags", [(), ("--paranoid",)])
def test_a_dropped_top_cell_is_named_by_its_slice(system, monkeypatch, capsys, flags):
    # Z without a cell of top dim is still a lower set; its slice is not P_v cap Q_v
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    x, y = sp.members[-1]
    assert (x, y) != (sp.apex, sp.apex)
    real = springer._block_pass

    def dropped(*args):
        v, w, mate, sliced = real(*args)
        keep = (v != x) | (w != y)
        return v[keep], w[keep], mate[keep], sliced

    monkeypatch.setattr(springer, "_block_pass", dropped)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", *flags)
    assert (code, err) == (3, f"FALSIFIED: slice Z_v at v={s.word_str(x)} is not the "
                              f"intersection of P_v and Q_v (J=[1], J'=[3])\n")


@pytest.mark.parametrize("i, message", [
    (3, "member (3, 3) leaves the minimal coset representatives of J'=[3]"),
    (1, "springer pair poset has a cell (1,e) whose ends are not comparable"),
], ids=["descent-in-Jprime", "incomparable-ends"])
def test_a_planted_cell_of_the_block_pass_is_named(system, monkeypatch, i, message):
    # (3, 3) has a left descent in J' and no lower covers; (1, e) is no interval
    s = system("A3")
    x = s.simple(i)
    cell = (x, x) if i == 3 else (x, 0)
    real = springer._block_pass

    def planted(*args):
        v, w, mate, sliced = real(*args)
        at = int(np.searchsorted(v * s.size + w, cell[0] * s.size + cell[1]))
        return (np.insert(v, at, cell[0]), np.insert(w, at, cell[1]),
                np.insert(mate, at, cell[1]), sliced)

    monkeypatch.setattr(springer, "_block_pass", planted)
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        build_springer_poset(s, {1}, {3})


def test_two_swapped_ranks_are_falsified_naming_a_slice(system, monkeypatch, capsys):
    s = system("A3")
    order = order_for_springer(s, frozenset({3}), frozenset({1}))
    sequence = list(order.sequence)
    sequence[0], sequence[-1] = sequence[-1], sequence[0]
    swapped = ReflectionOrder(s, tuple(sequence), order.word)
    monkeypatch.setattr(springer, "order_for_springer", lambda *args: swapped)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}")
    assert code == 3 and err.startswith("FALSIFIED: ")
    assert re.search(r"\[[\d.e]+, 1\.2\.1\.3\.2\.1\] in the springer pair poset", err)
