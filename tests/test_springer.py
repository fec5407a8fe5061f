"""Springer pair posets: membership, slices, coset pieces, certificates."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from coxmorse import cells, cli, springer
from coxmorse.cells import pair_name
from coxmorse.cli import main
from coxmorse.errors import (
    CyclicMatching,
    Falsification,
    NotAMatching,
    NotMinimalCosetRep,
    OverlappingSubsets,
    TheoremFalsified,
)
from coxmorse.fibers import build_fiber_poset, build_qk, fiber_matching, fiber_slices
from coxmorse.matchings import Matching, partner_table
from coxmorse.oracles import oracle_coset_piece, oracle_slice_partners, oracle_springer_member
from coxmorse.posets import euler_characteristic, is_pure
from coxmorse.reflection_orders import ReflectionOrder, order_for_springer, shortlex_order
from coxmorse.springer import build_slices, build_springer_poset, springer_matching
from coxmorse.verify import disjoint_pairs
from helpers import b3_with_a_cover_across_dims, plant_in_partner_table

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


def candidates(s, Jp):
    """The v with every j in J' a left ascent: those whose rows the block
    pass builds."""
    return [v for v in range(s.size) if not s.descents(v, "left") & frozenset(Jp)]


def slice_bases(sp):
    """The v with a cell but the apex, ascending: those whose slices the
    block pass matches."""
    return sorted({v for v, _ in sp.members} - {sp.apex})


def oracle_partners(sp):
    """The partner of each cell (v, w) of ``sp``: (v, M(w)) for M the
    matching of the whole interval [v, w0]
    (:func:`oracles.oracle_slice_partners`), the apex cell itself."""
    s = sp.system
    order = order_for_springer(s, sp.Jprime, sp.J)
    oracles = {x: oracle_slice_partners(s, x, s.w0, order) for x in slice_bases(sp)}
    return tuple(sp.index[(x, oracles[x][y] if x in oracles else y)] for x, y in sp.members)


def rows_at(s, J, Jp, v):
    """(Z_v, P_v, Q_v) of :func:`build_slices` at one v, ascending."""
    p, q, z = build_slices(s, frozenset(J), frozenset(Jp), [v])
    return tuple(np.flatnonzero(rows[0]).tolist() for rows in (z, p, q))


def block_rows(monkeypatch):
    """Record (v, p, q, z) of every :func:`springer.build_slices` call of
    the block pass."""
    real, blocks = springer.build_slices, []

    def recorded(system, J, Jp, v):
        blocks.append((v, *real(system, J, Jp, v)))
        return blocks[-1][1:]

    monkeypatch.setattr(springer, "build_slices", recorded)
    return blocks


def assert_rows_match_the_oracle(s, J, Jp, blocks, seen):
    """Row k of each block's p, q and z holds the w that
    :func:`oracles.oracle_springer_member` admits with v[k] for (∅, J'),
    (J, ∅) and (J, J'): Z_v is P_v ∩ Q_v, and a row of P_v (Q_v) is
    compared once per (J', v) ((J, v)) in ``seen``."""
    empty = frozenset()
    for v, p, q, z in blocks:
        assert np.array_equal(z, p & q), (J, Jp)
        for rows, conditions in ((p, (empty, frozenset(Jp))), (q, (frozenset(J), empty))):
            for k, x in enumerate(v.tolist()):
                if (conditions, x) not in seen:
                    seen.add((conditions, x))
                    want = [w for w in range(s.size)
                            if oracle_springer_member(s, x, w, *conditions)]
                    assert np.flatnonzero(rows[k]).tolist() == want, (J, Jp, x)


def test_slices(system, monkeypatch):
    s = system("A2")
    z_v, p_v, q_v = rows_at(s, set(), set(), 0)
    everything = sorted(range(s.size))
    assert z_v == p_v == q_v == everything  # vacuous conditions give [e, w0]

    z_e, p_e, q_e = rows_at(s, {1}, set(), 0)
    # brute force: Q_e = {w : e not<= s1 w} is empty since e <= everything
    assert q_e == [] and z_e == []

    # apex slice is a singleton
    a3 = system("A3")
    apex = build_springer_poset(a3, {1}, {3}).apex
    z_a, _, _ = rows_at(a3, {1}, {3}, apex)
    assert z_a == [apex]
    # the block pass builds the rows of every candidate v, and of no v
    # with a left descent in J'
    blocks = block_rows(monkeypatch)
    build_springer_poset(a3, {1}, {3})
    assert [x for v, *_ in blocks for x in v.tolist()] == candidates(a3, {3})
    assert a3.simple(3) not in candidates(a3, {3})
    assert_rows_match_the_oracle(a3, {1}, {3}, blocks, set())


def test_coset_pieces_partition(system):
    s = system("A2")
    pieces = [oracle_coset_piece(s, 0, w, {1}) for w in s.parabolic({1}).min_left]
    flat = sorted(x for piece in pieces for x in piece)
    assert flat == sorted(range(s.size))
    assert [[s.word_str(x) for x in piece] for piece in sorted(pieces)] == [
        ["e", "1"], ["2", "1.2"], ["2.1", "1.2.1"]]
    with pytest.raises(NotMinimalCosetRep):
        oracle_coset_piece(s, 0, s.simple(1), {1})


def test_coset_piece_membership_rule(system, monkeypatch):
    # x lies in Q_v iff its whole coset piece is the singleton top element
    s = system("A3")
    J = frozenset({2})
    blocks = block_rows(monkeypatch)
    build_springer_poset(s, J, frozenset())
    assert_rows_match_the_oracle(s, J, (), blocks, set())
    q_rows = {x: set(np.flatnonzero(row).tolist())
              for v, _, q, _ in blocks for x, row in zip(v.tolist(), q)}
    assert sorted(q_rows) == list(range(s.size))
    w_j = s.longest(J)
    for v in range(s.size):
        got = q_rows[v]
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


def test_a_dropped_maximal_cell_is_named_by_its_slice(system, monkeypatch):
    # without a cell that nothing covers, Z is still a lower set, but the
    # cell's partner in its slice is no cell: the slice is not P_v cap Q_v
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    covered = {lo for lo, _, _ in sp.poset.covers}
    maximal = [p for k, p in enumerate(sp.members) if k not in covered and p != (sp.apex, sp.apex)]
    assert len(maximal) > 1
    real = springer._block_pass
    for x, y in maximal:
        def dropped(*args):
            v, w, mate, failure = real(*args)
            keep = (v != x) | (w != y)
            return v[keep], w[keep], mate[keep], failure

        monkeypatch.setattr(springer, "_block_pass", dropped)
        message = f"slice Z_v at v={s.word_str(x)} is not the intersection of P_v and Q_v"
        with pytest.raises(TheoremFalsified, match=re.escape(message)):
            springer_matching(build_springer_poset(s, {1}, {3}))


def swap_across_slice_arrays(members, swapped=None):
    """slice_partner_arrays with the partners swapped as by
    :func:`swap_across_slice`, for the pairs of each base x; each base
    and the element c outside its slice are appended to ``swapped``."""
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
                if swapped is not None:
                    swapped.append((base, int(y[c])))
        return m

    return faulty


def b3_fiber(system):
    """The fiber poset of B3, K = {1, 2}, at the anchors
    e:e:e:2.1.3.2.3 (19 cells): its slice at e is [e, z'] = W_K, where 1
    and 2 have the two common upper covers 1.2 and 2.1."""
    s = system("B3")
    return build_fiber_poset(build_qk(s, {1, 2}), (0, 0), (0, s.parse_word("2.1.3.2.3")))


def test_slice_matching_rejects_a_partner_outside_the_slice(system, monkeypatch):
    # the least element of each slice is sent to an up-cover outside it
    real = cells.slice_partners

    def faulty(system, x, top, ys, rows):
        m = real(system, x, top, ys, rows)
        m[min(ys)] = next(u for u, _ in system.bruhat_covers_up(min(ys)) if u not in ys)
        return m

    monkeypatch.setattr(cells, "slice_partners", faulty)
    message = ("slice at e is not preserved by the matching of [e, 1.2.1] in the fiber pair "
               "poset (K=[1, 2])")
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        fiber_matching(b3_fiber(system))


def test_slice_matching_rejects_a_wrong_apex(system):
    fp = b3_fiber(system)
    slices, order, apex, what = fiber_slices(fp)
    names = fp.poset.names
    message = (f"unmatched cells of the fiber pair poset (K=[1, 2]) are "
               f"['{names[apex]}'], expected only {names[apex + 1]}")
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        cells.slice_matching(fp.system, fp.poset, slices, order, apex + 1, what)


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

    fp = b3_fiber(system)
    monkeypatch.setattr(cells, "slice_partners", cyclic)
    with pytest.raises(CyclicMatching):
        fiber_matching(fp)


def test_slice_matching_rejects_partners_that_are_not_an_involution(system, monkeypatch):
    # on the first slice with two matched pairs y-u and y2-u2, y is sent
    # to u2: the slice is still preserved, but y -> u2 -> y2
    fp = b3_fiber(system)
    s = fp.system
    real = cells.slice_partners
    seen = []

    def faulty(system, x, top, ys, rows):
        m = real(system, x, top, ys, rows)
        pairs = sorted((y, u) for y, u in m.items() if y < u)
        if not seen and len(pairs) >= 2:
            (y, _), (_, u2) = pairs[:2]
            m[y] = u2
            seen.append(x)
        return m

    monkeypatch.setattr(cells, "slice_partners", faulty)
    with pytest.raises(NotAMatching, match=r"edge selection is not an involution at .* in \[") as exc:
        fiber_matching(fp)
    assert (f"in [{s.word_str(seen[0])}, {s.word_str(fp.z_prime)}] in the fiber pair poset "
            f"(K=[1, 2])") in str(exc.value)


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4"])
def test_the_array_route_gives_what_the_per_cell_route_and_the_oracles_give(system, monkeypatch,
                                                                            name):
    s = system(name)
    blocks, seen = block_rows(monkeypatch), set()
    for J, Jp in disjoint_pairs(s.rank):
        blocks.clear()
        sp = build_springer_poset(s, J, Jp)
        ideal = cells.ideal_poset(s, sp.members, "springer pair poset")
        assert ideal.payload == sp.members and ideal.dims == sp.poset.dims, (J, Jp)
        assert ideal.covers == sp.poset.covers, (J, Jp)
        # every candidate v: the block rows of P_v, Q_v and Z_v are the oracle's
        assert [x for v, *_ in blocks for x in v.tolist()] == candidates(s, Jp)
        assert_rows_match_the_oracle(s, J, Jp, blocks, seen)
        assert sp.partner is not None and sp.failure is None
        matching, summary = springer_matching(sp)
        assert matching.partner == oracle_partners(sp), (J, Jp)
        assert summary.unmatched == (sp.index[(sp.apex, sp.apex)],)


def not_preserved(s, label, x):
    name = s.word_str
    return (f"{label} at {name(x)} is not preserved by the matching of [{name(x)}, "
            f"{name(s.w0)}] in the springer pair poset (J=[1], J'=[3])")


def test_a_partner_swapped_across_the_slice_is_named_by_the_arrays(system, monkeypatch, capsys):
    # c outside Z_x lies in P_x or in Q_x, and M(c), the new partner of a
    # cell, lies in the same one, so the other set is not preserved
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    swapped = []
    monkeypatch.setattr(springer, "slice_partner_arrays",
                        swap_across_slice_arrays(sp.members, swapped))
    with pytest.raises(TheoremFalsified) as exc:
        springer_matching(build_springer_poset(s, {1}, {3}))
    x, c = swapped[0]
    message = not_preserved(s, "Q_v" if c in rows_at(s, {1}, {3}, x)[1] else "P_v", x)
    assert str(exc.value) == message
    code = main(["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err == f"FALSIFIED: {message}\n"


# Plants in the partners M of one base x (m[pos[y]] = M(y)), given Z_x,
# P_x, Q_x and the lengths; each returns, where it fits, the elements
# that the failure it causes names.  Each keeps every array test but one.

def cross(m, pos, a, c):
    """a-b and c-d become a-d and c-b."""
    b, d = m[pos[a]], m[pos[c]]
    m[pos[a]], m[pos[d]], m[pos[c]], m[pos[b]] = d, a, b, c
    return a, b, c, d


def cross_p_v_with_q_v(m, pos, z, p, q, length):
    # a in P_x minus Q_x, c in Q_x minus P_x: M(a) leaves P_x first
    only_p, only_q = sorted(set(p) - set(q)), sorted(set(q) - set(p))
    if only_p and only_q:
        return cross(m, pos, only_p[0], only_q[0])


def break_the_involution(m, pos, z, p, q, length):
    # M(a) moves to another pair of Q_x minus P_x, so M(M(a)) != a, and
    # M(M(b)) != b for b the old M(a): the lesser of a and b is named
    only_q = sorted(set(q) - set(p))
    if len(only_q) >= 4:
        a = only_q[0]
        b = int(m[pos[a]])
        m[pos[a]] = next(c for c in only_q if c not in (a, b))
        y = min(a, b)
        return y, int(m[pos[y]]), int(m[pos[int(m[pos[y]])]])


def match_across_two_lengths(m, pos, z, p, q, length):
    # a < b and c < d in Z_x with l(c) = l(a) + 1: a-d is no cover
    lows = [y for y in z if m[pos[y]] > y]
    steps = [(a, c) for a in lows for c in lows if length[c] == length[a] + 1]
    if steps:
        return cross(m, pos, *steps[0])


def leave_a_pair_unmatched(m, pos, z, p, q, length):
    a = z[0]
    b = int(m[pos[a]])
    m[pos[a]], m[pos[b]] = a, b
    return a, b


def planted_failure(plant, sp, x, got):
    """The failure that ``plant`` causes at the base x, from what it
    returned."""
    s, name = sp.system, sp.system.word_str
    where = f"[{name(x)}, {name(s.w0)}] in the springer pair poset (J=[1], J'=[3])"
    cell = lambda y: pair_name(s, (x, y))  # noqa: E731
    if plant is cross_p_v_with_q_v:
        return TheoremFalsified, not_preserved(s, "P_v", x)
    if plant is break_the_involution:
        y, mate, back = map(name, got)
        return NotAMatching, (f"edge selection is not an involution at {y}: {y} -> {mate} -> "
                              f"{back} in {where}")
    if plant is match_across_two_lengths:
        a, _, _, d = got
        return TheoremFalsified, (f"matched pair {cell(a)} -- {cell(d)} is not a cover of the "
                                  f"springer pair poset (J=[1], J'=[3])")
    unmatched = sorted({sp.index[(sp.apex, sp.apex)], *(sp.index[(x, y)] for y in got)})
    return TheoremFalsified, (f"unmatched cells of the springer pair poset (J=[1], J'=[3]) are "
                              f"{[sp.poset.names[k] for k in unmatched]}, expected only "
                              f"{sp.poset.names[sp.index[(sp.apex, sp.apex)]]}")


@pytest.mark.parametrize("plant", [cross_p_v_with_q_v, break_the_involution,
                                   match_across_two_lengths, leave_a_pair_unmatched])
def test_a_fault_in_the_array_partners_is_named_by_the_arrays(system, monkeypatch, plant):
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    real = cells.slice_partner_arrays
    planted = []

    def faulty(system, x, y, table):
        m = real(system, x, y, table)
        for base in sorted(set(x.tolist())):
            at = np.flatnonzero(x == base).tolist()
            pos = dict(zip(y[at].tolist(), at))
            if not planted:
                got = plant(m, pos, *rows_at(s, {1}, {3}, base), s.length)
                if got is not None:
                    planted.append((base, got))
        return m

    monkeypatch.setattr(springer, "slice_partner_arrays", faulty)
    with pytest.raises(Falsification) as exc:
        springer_matching(build_springer_poset(s, {1}, {3}))
    (x, got), = planted
    kind, message = planted_failure(plant, sp, x, got)
    assert type(exc.value) is kind and str(exc.value) == message


def test_cli_exits_as_falsification_on_a_partner_outside_the_slice(system, monkeypatch,
                                                                  capsys):
    sp = build_springer_poset(system("A3"), {1}, {3})
    monkeypatch.setattr(springer, "slice_partner_arrays", swap_across_slice_arrays(sp.members))
    code = main(["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("FALSIFIED: ") and "is not preserved by the matching" in out.err


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4", "B4"])
def test_slice_partners_match_the_full_interval_oracle(system, name):
    # the block pass's reader on all of [x, w0], which holds what it checks
    s = system(name)
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        order = order_for_springer(s, frozenset(Jp), frozenset(J))
        table = partner_table(s, order)
        for x in slice_bases(sp):
            want = oracle_slice_partners(s, x, s.w0, order)
            ys = np.array(sorted(want))
            got = cells.slice_partner_arrays(s, np.full(len(ys), x), ys, table)
            assert dict(zip(ys.tolist(), got.tolist())) == want, (J, Jp, x)
            # the partner that the block pass gives each cell of the slice
            z_x = [w for v, w in sp.members if v == x]
            block = [sp.members[sp.partner[sp.index[(x, y)]]] for y in z_x]
            assert block == [(x, want[y]) for y in z_x], (J, Jp, x)


def test_fiber_slice_partners_match_the_full_interval_oracle(system, a3_fibers):
    s = system("A3")
    for fp in a3_fibers:
        slices, order, _, _ = fiber_slices(fp)
        rows = partner_table(s, order).tolist()
        for x, top, _ in slices:
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
    # the top w0, and a top below it
    s = system("A3")
    rows = partner_table(s, shortlex_order(s)).tolist()
    y = s.parse_word("2")
    rows[y] = [s.size] * len(rows[y])
    message = f"isolated element 2 in the Hasse diagram of [e, {top}]"
    with pytest.raises(NotAMatching, match=re.escape(message)):
        cells.slice_partners(s, 0, s.parse_word(top), [y], rows)


def matched_down_cover(s, J, Jp):
    """(x, y, u): the first cell (x, y), in order of x, of the Springer
    poset of (J, J') on ``s`` that the block pass matches to (x, u) for u
    covered by y."""
    sp = build_springer_poset(s, J, Jp)
    for x, y in sorted(sp.members):
        _, u = sp.members[sp.partner[sp.index[(x, y)]]]
        if any(u == d for d, _ in s.bruhat_covers_down(y)):
            return x, y, u
    raise AssertionError("no cell is matched downwards")


def two_edges_in_a_row(s, J, Jp):
    """(x, y, i, j): the first cell (x, y), in order of x, of a slice of
    the Springer poset of (J, J') on ``s`` whose partner table row holds
    two edges of [x, w0], the first at position i and the next at j."""
    sp = build_springer_poset(s, J, Jp)
    table = partner_table(s, order_for_springer(s, frozenset(Jp), frozenset(J)))
    for x, y in sorted(sp.members):
        if x != sp.apex:
            inside = [k for k, u in enumerate(table[y].tolist())
                      if u < s.size and s.bruhat_leq(x, u)]
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
    order = order_for_springer(s, frozenset({3}), frozenset({1}))
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
    # the block pass builds the rows of every candidate v once, in one
    # block, and --paranoid builds none again; the report is the golden one
    s = system("A4")
    argv = ["springer", "--group", "A4", "--J", "{2}", "--Jprime", "{3}", "--format", "json"]
    calls = []
    build = springer.build_slices

    def counted(system, J, Jp, v):
        calls.append(list(v))
        return build(system, J, Jp, v)

    monkeypatch.setattr(springer, "build_slices", counted)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: s)
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert calls == [candidates(s, {3})]
    calls.clear()
    assert main([*argv, "--paranoid"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.encode() == (GOLDEN / "springer_A4_J2_Jp3.json").read_bytes()
    assert calls == [candidates(s, {3})]


def test_paranoid_springer_checks_the_partners_that_the_block_pass_read(system, monkeypatch,
                                                                       capsys):
    # at the least x with two matched pairs a-b and c-d of checked elements
    # outside Z_x, all four in P_x minus Q_x (or in Q_x minus P_x), the
    # block pass's reader crosses them to a-d and c-b: P_x, Q_x and Z_x are
    # still preserved and the cells keep their partners, so only the
    # comparison of that reader with the oracle sees it
    s = system("A3")
    real = cells.slice_partner_arrays
    planted = []

    def faulty(system, x, y, table):
        m = real(system, x, y, table)
        for base in sorted(set(x.tolist())):
            at = np.flatnonzero(x == base).tolist()
            pos = dict(zip(y[at].tolist(), at))
            _, p, q = map(set, rows_at(s, {2}, {3}, base))
            for side in (p - q, q - p):
                lows = sorted(a for a in side if a < m[pos[a]])
                if len(lows) >= 2:
                    planted.append((base, *cross(m, pos, *lows[:2])))
                    return m
        return m

    monkeypatch.setattr(springer, "slice_partner_arrays", faulty)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: s)
    argv = ["springer", "--group", "A3", "--J", "{2}", "--Jprime", "{3}", "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(" certificate=True\n")
    assert main([*argv, "--paranoid"]) == 3
    out = capsys.readouterr()
    (x, a, b, _, d), = set(planted)
    name = s.word_str
    assert (name(x), name(a)) == ("2", "1.2")
    assert out.out == "" and out.err == (
        f"FALSIFIED: slice matching of [{name(x)}, {name(s.w0)}] in the springer pair poset "
        f"(J=[2], J'=[3]) disagrees with the full-interval oracle at {name(a)}: partner "
        f"{name(d)} against {name(b)}\n")


def test_paranoid_springer_names_the_first_cell_whose_partners_differ(system, monkeypatch,
                                                                     capsys):
    # the block pass's matched pairs a-b and c-d are planted as a-d and c-b
    s = system("A3")
    real = springer.build_springer_poset
    crossed = []

    def planted(*args):
        sp = real(*args)
        partner = list(sp.partner)
        (a, b), (c, d) = Matching(sp.poset, sp.partner).pairs[:2]
        partner[a], partner[b], partner[c], partner[d] = d, c, b, a
        crossed.append((sp.poset.names, a, b, d))
        return dataclasses.replace(sp, partner=tuple(partner))

    monkeypatch.setattr(cli, "build_springer_poset", planted)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", "--paranoid")
    (names, a, b, d), = crossed
    assert (code, err) == (3, f"FALSIFIED: the matching of the springer pair poset (J=[1], "
                              f"J'=[3]) disagrees with the full-interval oracle at {names[a]}: "
                              f"partner {names[d]} against {names[b]}\n")


def test_a_row_of_pads_at_a_cell_is_named_by_the_arrays(system, monkeypatch, capsys):
    # y, the end of a cell, has no edge in the table: the least v whose
    # slice checks y names it
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    y = min(w for v, w in sp.members if v == slice_bases(sp)[0])
    # the block pass checks P_x and Q_x at x
    first = min(x for x in slice_bases(sp) if y in {*rows_at(s, {1}, {3}, x)[1],
                                                     *rows_at(s, {1}, {3}, x)[2]})
    pad_the_row(monkeypatch, y)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}")
    assert (code, err) == (3, f"FALSIFIED: isolated element {s.word_str(y)} in the Hasse diagram "
                              f"of [{s.word_str(first)}, {s.word_str(s.w0)}]\n")


def test_paranoid_springer_names_an_element_that_the_reader_leaves_isolated(system, monkeypatch,
                                                                            capsys):
    # --paranoid runs the block pass's reader on all of [x, w0] before the
    # pass's failure is raised: the least v whose interval holds y names it
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    y = min(w for v, w in sp.members if v == slice_bases(sp)[0])
    first = min(x for x in slice_bases(sp) if s.bruhat_leq(x, y))
    pad_the_row(monkeypatch, y)
    code, err = run_springer_on(monkeypatch, capsys, s, "{1}", "{3}", "--paranoid")
    assert (code, err) == (3, f"FALSIFIED: isolated element {s.word_str(y)} in the Hasse diagram "
                              f"of [{s.word_str(first)}, {s.word_str(s.w0)}]\n")


def pad_the_row(monkeypatch, y):
    """Give row y of the block pass's partner tables only pads."""
    real = partner_table

    def padded(system, order):
        table = real(system, order)
        table[y] = system.size
        return table

    monkeypatch.setattr(springer, "partner_table", padded)


@pytest.mark.parametrize("flags", [(), ("--paranoid",)])
def test_a_dropped_top_cell_is_named_by_its_slice(system, monkeypatch, capsys, flags):
    # Z without a cell of top dim is still a lower set; its slice is not P_v cap Q_v
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    x, y = sp.members[-1]
    assert (x, y) != (sp.apex, sp.apex)
    real = springer._block_pass

    def dropped(*args):
        v, w, mate, failure = real(*args)
        keep = (v != x) | (w != y)
        return v[keep], w[keep], mate[keep], failure

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
        v, w, mate, failure = real(*args)
        at = int(np.searchsorted(v * s.size + w, cell[0] * s.size + cell[1]))
        return (np.insert(v, at, cell[0]), np.insert(w, at, cell[1]),
                np.insert(mate, at, cell[1]), failure)

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
