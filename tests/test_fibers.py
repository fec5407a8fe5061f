"""Projection-fiber posets: Q_K, bounds, four-way equality, certificates."""

import re

import numpy as np
import pytest

from coxmorse import build_system, fibers
from coxmorse.cells import pair_name
from coxmorse.errors import (CorollaryFalsified, LemmaFalsified, NonUniqueMaximum,
                             NotComparable, NotMinimalCosetRep, PropositionFalsified,
                             TheoremFalsified)
from coxmorse.fibers import (
    build_fiber_poset,
    build_qk,
    fiber_matching,
    generalized_quotient,
    verify_convexity,
    z_lower,
    z_upper,
)
from coxmorse.cells import nested_pair_order
from coxmorse.oracles import oracle_bruhat_leq, oracle_convexity, oracle_fiber_members
from helpers import fiber_posets, with_members


def test_qk_empty_k_reduces_to_nested_order(system):
    s = system("A2")
    qk = build_qk(s, set())
    assert len(qk.members) == 19
    v, w = np.asarray(qk.members).T
    assert np.array_equal(qk.leq, nested_pair_order(s, v, w))


def test_qk_full_k_is_a_point(system):
    s = system("A2")
    qk = build_qk(s, {1, 2})
    assert qk.members == ((0, 0),)


def test_qk_members_and_axioms(system):
    s = system("A2")
    qk = build_qk(s, {1})
    min_right = set(s.parabolic({1}).min_right)
    assert len(min_right) == 3
    for v, w in qk.members:
        assert w in min_right and s.bruhat_leq(v, w)
    # relation verified reflexive/antisymmetric/transitive at build time
    assert np.asarray(qk.leq).diagonal().all()


def test_z_lower(system):
    s = system("A2")
    # v = v' gives z = e; v' = e gives z = v when v lies in W_K
    assert z_lower(s, s.simple(1), s.simple(1), {1}) == 0
    assert z_lower(s, 0, s.simple(1), {1}) == s.simple(1)
    # brute-force the minimum over {x' v : x' <= v'^{-1}}
    a3 = system("A3")
    for vp, v in [(a3.parse_word("1"), a3.parse_word("1.2")),
                  (a3.parse_word("2.1"), a3.parse_word("2.1"))]:
        inv_vp = a3.inverse(vp)
        lower = [x for x in range(a3.size) if a3.bruhat_leq(x, inv_vp)]
        candidates = {a3.mul(x, v) for x in lower}
        mins = [c for c in candidates
                if all(a3.bruhat_leq(c, d) for d in candidates)]
        assert len(mins) == 1
        assert a3.circ_l(inv_vp, v) == mins[0]


def test_z_upper(system):
    s = system("A2")
    # w' = w in W^K forces z' = e; K empty likewise
    w = s.parse_word("1.2")
    assert z_upper(s, w, w, {1}) == 0
    assert z_upper(s, s.simple(1), s.w0, set()) == 0
    # brute-force check of the lower-interval shape for minimal representatives
    a3 = system("A3")
    K = {1, 2}
    sub = a3.parabolic(K)
    min_right = set(sub.min_right)
    checked = 0
    for wp, w in a3.comparable_pairs():
        if wp not in min_right:
            continue
        zp = z_upper(a3, wp, w, K)
        hits = {a for a in sub.elements if a3.bruhat_leq(a3.mul(wp, a), w)}
        assert hits == {a for a in sub.elements if a3.bruhat_leq(a, zp)}
        checked += 1
    assert checked > 0
    with pytest.raises(NotComparable):
        z_upper(s, s.parse_word("1.2"), s.simple(2), {1})
    # the minimal-representative hypothesis is necessary, not decorative
    with pytest.raises(NotMinimalCosetRep):
        z_upper(a3, a3.simple(1), a3.parse_word("2.1"), {1, 2})


def test_equal_anchors_singleton(system):
    s = system("A2")
    for K in [set(), {1}, {2}, {1, 2}]:
        qk = build_qk(s, K)
        for p in qk.members:
            fp = build_fiber_poset(qk, p, p)
            assert fp.members == ((0, 0),)
            _, summary = fiber_matching(fp)
            assert summary.certificate


def test_incomparable_anchors_rejected(system):
    s = system("A2")
    qk = build_qk(s, {1})
    i = qk.index[(0, 0)]
    j = qk.index[(0, s.parse_word("1.2"))]
    assert qk.leq[i, j] and not qk.leq[j, i]
    with pytest.raises(NotComparable):
        build_fiber_poset(qk, (0, s.parse_word("1.2")), (0, 0))


def test_nonadditive_diagonal_excluded(system):
    # regression: the cover-restricted description needs the length guard,
    # otherwise (1, 1) sneaks into this fiber even though l(v' a) < l(v') + l(a)
    s = system("A3")
    qk = build_qk(s, {1})
    lower = (s.parse_word("1"), s.parse_word("1.2"))
    upper = (s.parse_word("1"), s.parse_word("2.1.3.2"))
    assert qk.leq_pairs(lower, upper)
    fp = build_fiber_poset(qk, lower, upper)
    s1 = s.simple(1)
    assert (s1, s1) not in set(fp.members)
    assert (0, 0) in set(fp.members)
    _, summary = fiber_matching(fp)
    assert summary.certificate


def test_generalized_quotient(system):
    s = system("A3")
    qk = build_qk(s, {1, 2})
    # v' = e makes the length condition vacuous: quotient is all of [z, z']
    lower = (0, 0)
    upper = max(qk.members, key=lambda p: s.len_of(p[1]) - s.len_of(p[0]))
    fp = build_fiber_poset(qk, lower, upper)
    gq = generalized_quotient(fp)
    expected = sorted(a for a in s.parabolic({1, 2}).elements
                      if s.bruhat_leq(fp.z, a) and s.bruhat_leq(a, fp.z_prime))
    assert sorted(gq.members) == expected
    assert gq.z_tilde == fp.z_prime
    # quotient members are exactly the diagonal of F
    assert sorted(gq.members) == sorted(a for a, b in fp.members if a == b)


def test_convexity_sweep_a2(system):
    s = system("A2")
    for K in [set(), {1}, {2}, {1, 2}]:
        qk = build_qk(s, K)
        n = len(qk.members)
        for i in range(n):
            for j in range(n):
                if qk.leq[i, j]:
                    fp = build_fiber_poset(qk, qk.members[i], qk.members[j])
                    assert verify_convexity(fp)


def test_convexity_routes_agree_on_every_a3_fiber(a3_fibers):
    for fp in a3_fibers:
        assert verify_convexity(fp) and oracle_convexity(fp)


def test_fiber_members_agree_with_the_defining_condition_oracle(system, a3_fibers):
    # every fiber of check_fibers(A3, len_cap=5) and check_fibers(B3, len_cap=4)
    for fibers, count in ((a3_fibers, 6066), (fiber_posets(system("B3"), 4), 5300)):
        assert len(fibers) == count
        for fp in fibers:
            assert oracle_fiber_members(fp.system, fp.K, *fp.anchors) == sorted(fp.members)


def top_cell(fp):
    """The one cell of F above every cell in the nesting order."""
    leq = fp.system.bruhat_leq
    top, = (k for k, (a, b) in enumerate(fp.members)
            if all(leq(a, x) and leq(y, b) for x, y in fp.members))
    return top


def test_both_convexity_routes_catch_every_dropped_cell_but_the_top(a3_fibers):
    # every fiber of check_fibers(A3, len_cap=5), each cell dropped in turn
    drops = 0
    for fp in a3_fibers:
        top = top_cell(fp)
        for k in range(fp.poset.n):
            kept = with_members(fp, fp.members[:k] + fp.members[k + 1:])
            if k == top:
                assert verify_convexity(kept) and oracle_convexity(kept)
                continue
            drops += 1
            dropped = pair_name(fp.system, fp.members[k])
            with pytest.raises(CorollaryFalsified, match=re.escape(f"the lower cover {dropped},")):
                verify_convexity(kept)
            with pytest.raises(CorollaryFalsified, match="convexity fails"):
                oracle_convexity(kept)
    assert drops == 662


def test_both_convexity_routes_catch_an_added_pair_without_its_lower_cover(system):
    s = system("A3")
    K = {1, 2}
    qk = build_qk(s, K)
    fp = build_fiber_poset(qk, (0, 0), (0, s.parse_word("1.2.3")))
    elems = s.parabolic(K).elements
    added = 0
    for a in elems:
        for b in elems:
            if not s.bruhat_leq(a, b) or (a, b) in fp.index:
                continue
            steps = ([(u, b) for u, _ in s.bruhat_covers_up(a)]
                     + [(a, u) for u, _ in s.bruhat_covers_down(b)])
            missing = [p for p in steps if s.bruhat_leq(*p) and p not in fp.index]
            if not missing:
                continue
            added += 1
            grown = with_members(fp, fp.members + ((a, b),))
            message = (f"fiber pair poset is not a lower set of the nesting order: the cell "
                       f"{pair_name(s, (a, b))} has the lower cover {pair_name(s, missing[0])}, "
                       f"which is not a cell")
            with pytest.raises(CorollaryFalsified, match=re.escape(message)):
                verify_convexity(grown)
            with pytest.raises(CorollaryFalsified, match="convexity fails"):
                oracle_convexity(grown)
    assert added > 0


def test_fiber_certificates_a3_spot(system):
    s = system("A3")
    qk = build_qk(s, {1, 2})
    # anchors with a length gap of at least 2
    found = 0
    for j, (v, w) in enumerate(qk.members):
        for i in range(len(qk.members)):
            if not qk.leq[i, j] or i == j:
                continue
            vp, wp = qk.members[i]
            if s.len_of(w) - s.len_of(wp) < 2:
                continue
            fp = build_fiber_poset(qk, (vp, wp), (v, w))
            matching, summary = fiber_matching(fp)
            gq = generalized_quotient(fp)
            assert summary.certificate
            assert [fp.members[k] for k in summary.unmatched] == [(gq.z_tilde, gq.z_tilde)]
            # singleton slice exactly at the quotient top
            for a in gq.members:
                slice_b = [b for x, b in fp.members if x == a]
                assert (slice_b == [a]) == (a == gq.z_tilde)
            found += 1
    assert found > 0


def matmul_order_axioms(leq):
    """Reflexive, antisymmetric and transitive, the last by a float32 matrix
    product (exact: every entry counts at most n < 2^24 paths)."""
    n = leq.shape[0]
    square = (leq.astype(np.float32) @ leq.astype(np.float32)) > 0
    return (bool(leq.diagonal().all())
            and not (leq & leq.T & ~np.eye(n, dtype=bool)).any()
            and not (square & ~leq).any())


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_qk_passes_the_matmul_order_check(system, name):
    s = system(name)
    for r in range(1 << s.rank):
        K = {i + 1 for i in range(s.rank) if r >> i & 1}
        assert matmul_order_axioms(np.asarray(build_qk(s, K).leq)), sorted(K)


def test_qk_order_matches_brute_force_on_a3(system):
    # (v', w') <= (v, w) iff v <= v'u <= w'u <= w for some u in W_K, by the
    # subword oracle; members are the pairs v <= w with w in W^K
    s = system("A3")
    ob = {(x, y): oracle_bruhat_leq(s, x, y) for x in range(s.size) for y in range(s.size)}
    for r in range(1 << s.rank):
        K = {i + 1 for i in range(s.rank) if r >> i & 1}
        qk = build_qk(s, K)
        sub = s.parabolic(K)
        assert set(qk.members) == {(v, w) for (v, w), le in ob.items()
                                   if le and not s.descents(w, "right") & K}
        for i, (vp, wp) in enumerate(qk.members):
            shifted = [(s.mul(vp, u), s.mul(wp, u)) for u in sub.elements]
            for j, (v, w) in enumerate(qk.members):
                want = any(ob[v, a] and ob[a, b] and ob[b, w] for a, b in shifted)
                assert qk.leq[i, j] == want, (sorted(K), qk.members[i], qk.members[j])


def test_fiber_descriptions_disagree_without_one_inversion(monkeypatch):
    # fault injection: N_R(v') loses a reflection, so the inversion-based
    # descriptions (iii) and (iv) admit a pair that (i) and (ii) exclude
    s = build_system("A3")
    qk = build_qk(s, {1})
    lower = (s.parse_word("1"), s.parse_word("1.2"))
    upper = (s.parse_word("1"), s.parse_word("2.1.3.2"))
    build_fiber_poset(qk, lower, upper)
    n_r = s.right_inversion_reflections(lower[0])
    assert n_r == {s.simple(1)}
    monkeypatch.setitem(s._n_r_cache, lower[0], n_r - {s.simple(1)})
    with pytest.raises(PropositionFalsified,
                       match=r"fiber descriptions disagree \(defining vs cover-restricted\): "
                             r"\[\('e', '1'\)\]"):
        build_fiber_poset(qk, lower, upper)


@pytest.mark.parametrize("bound", ["z_lower", "z_upper"])
def test_a_wrong_bound_is_caught_by_the_defining_description(monkeypatch, system, bound):
    # fault injection: z or z' moved to the other end of [z, z'] shrinks the
    # scans of (ii)-(iv) to one pair; (i), which reads neither bound, still
    # scans the whole fiber
    s = system("A3")
    qk = build_qk(s, {1, 2})
    anchors = (0, 0), (0, s.parse_word("1.2.3"))
    fp = build_fiber_poset(qk, *anchors)
    z, zp = fp.z, fp.z_prime
    assert (z, zp) == (0, s.parse_word("1.2")) and len(fp.members) == 9
    monkeypatch.setattr(fibers, bound, lambda *args: zp if bound == "z_lower" else z)
    with pytest.raises(PropositionFalsified,
                       match=r"fiber descriptions disagree \(defining vs cover-restricted\)"):
        build_fiber_poset(qk, *anchors)


def test_z_upper_reads_the_callers_hits_and_names_a_wrong_shape(system):
    # fault injection through the hits a caller passes: a longest hit that
    # is not above every hit, and one that is but has more below it
    s = system("A3")
    K = frozenset({1, 2})
    s1, s2, s12 = s.simple(1), s.simple(2), s.parse_word("1.2")
    for wp, w in [(0, s.w0), (0, s12), (s.parse_word("3"), s.parse_word("3.1.2"))]:
        hits = [a for a in s.parabolic(K).elements if s.bruhat_leq(s.mul(wp, a), w)]
        assert z_upper(s, wp, w, K, hits) == z_upper(s, wp, w, K)
    cases = [([], "upper-bound set does not even contain e"),
             (sorted([0, s1, s2]), r"upper-bound set has 2 maximal elements: \['1', '2'\]"),
             (sorted([0, s1, s12]), r"upper-bound set is not the full lower interval \[e, z'\]")]
    for hits, message in cases:
        with pytest.raises(LemmaFalsified, match=message):
            z_upper(s, 0, s.w0, K, hits)


def test_generalized_quotient_names_a_wrong_shape(monkeypatch):
    # fault injection: on a fresh system, v'a is misread as w0 for the a of
    # [z, z'] = [e, 1.2] outside a chosen set, so the length test keeps only
    # that set, and F is given it as its diagonal: {e, 1, 2} has two maximal
    # members, and {e, 1.2} no cover step from e toward its top
    s = build_system("A3")
    qk = build_qk(s, {1, 2})
    fp = build_fiber_poset(qk, (0, 0), (0, s.parse_word("1.2.3")))
    s1, s2, s12 = s.simple(1), s.simple(2), s.parse_word("1.2")
    assert (fp.vprime, fp.z, fp.z_prime) == (0, 0, s12)
    cases = [({0, s1, s2}, NonUniqueMaximum,
              r"generalized quotient has 2 maximal elements: \['1', '2'\]"),
             ({0, s12}, TheoremFalsified, "no quotient cover step above e toward z~")]
    mul = s.mul
    for quotient, error, message in cases:
        monkeypatch.setattr(s, "mul", lambda x, a: mul(x, a) if a in quotient else s.w0)
        with pytest.raises(error, match=message):
            generalized_quotient(with_members(fp, tuple((a, a) for a in sorted(quotient))))
