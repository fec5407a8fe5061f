"""Generic poset machinery: intervals, chains, thinness, labeled chains."""

import random
import re
import tracemalloc

import numpy as np
import pytest

from coxmorse import cli, posets
from coxmorse.cells import graded_covers, pair_name, pair_poset
from coxmorse.errors import (ELViolation, IntervalTooLarge, NotComparable, NotPure,
                             OrderTooLarge, TheoremFalsified)
from coxmorse.fibers import build_fiber_poset, build_qk
from coxmorse.matchings import labeled_interval
from coxmorse.oracles import oracle_bruhat_leq
from coxmorse.posets import (
    PackedOrder,
    all_maximal_chains,
    check_el_labeling,
    euler_characteristic,
    is_pure,
    is_thin,
    poset_to_dot,
)
from coxmorse.reflection_orders import order_from_reduced_word
from coxmorse.springer import build_springer_poset, springer_matching
from coxmorse.verify import disjoint_pairs
from helpers import (b3_with_a_cover_across_dims, closed_order, closure_route_covers,
                     packed_from_dense, poset_from_covers)


def chain_poset(n):
    """0 < 1 < ... < n-1."""
    return poset_from_covers([str(i) for i in range(n)], list(range(n)),
                             [(i, i + 1, None) for i in range(n - 1)])


def boolean_2():
    """Four-element diamond."""
    return poset_from_covers(["0", "a", "b", "1"], [0, 1, 1, 2],
                             [(0, 1, None), (0, 2, None), (1, 3, None), (2, 3, None)])


def test_closure_reduction_roundtrip():
    p = boolean_2()
    leq = closed_order(p)
    q = poset_from_covers(p.names, p.dims, graded_covers(leq, p.dims, "diamond"))
    assert q.covers == tuple((lo, hi, None) for lo, hi, _ in p.covers)
    assert np.array_equal(closed_order(q), leq)


def test_interval_basics(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.w0)
    assert li.poset.n == 6 and len(li.poset.covers) == 8


def test_fixture_interval_size(system):
    s = system("A3")
    li = labeled_interval(s, s.parse_word("2"), s.parse_word("2.3.1.2"))
    assert li.poset.n == 10 and len(li.poset.covers) == 16


def test_maximal_chains(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.w0)
    chains = all_maximal_chains(li.poset, li.index[0], li.index[s.w0])
    assert len(chains) == 4
    for ch in chains:
        assert len(ch.elements) == 4
        # bottom-up label word multiplies to v w^{-1}
        prod = 0
        for lab in ch.labels_up:
            prod = s.mul(prod, lab)
        assert prod == s.mul(0, s.inverse(s.w0))
    single = all_maximal_chains(li.poset, li.index[0], li.index[s.simple(1)])
    assert len(single) == 1


def test_chain_label_products(system):
    s = system("A3")
    for v, w in s.comparable_pairs(strict=True):
        if s.len_of(w) - s.len_of(v) > 5:
            continue
        li = labeled_interval(s, v, w)
        want = s.mul(v, s.inverse(w))
        for ch in all_maximal_chains(li.poset, li.index[v], li.index[w]):
            prod = 0
            for lab in ch.labels_up:
                prod = s.mul(prod, lab)
            assert prod == want


def chain_count_by_covers(poset, x, y):
    """The maximal chains of [x, y], counted by dynamic programming up the
    covers taken by increasing dim: chains[z] counts those of [x, z]."""
    chains = {x: 1}
    for lo, hi, _ in sorted(poset.covers, key=lambda cover: poset.dims[cover[0]]):
        if lo in chains:
            chains[hi] = chains.get(hi, 0) + chains[lo]
    return chains.get(y, 0)


@pytest.mark.parametrize("name,v,w", [("A3", "e", None), ("B3", "2", "1.2.3.2.1")])
def test_chains_between_any_two_comparable_elements_match_a_count_over_the_covers(
        system, name, v, w):
    s = system(name)
    li = labeled_interval(s, s.parse_word(v), s.w0 if w is None else s.parse_word(w))
    pairs = 0
    for x, a in enumerate(li.ids):
        for y, b in enumerate(li.ids):
            if s.bruhat_leq(a, b):
                chains = all_maximal_chains(li.poset, x, y)
                assert len(chains) == chain_count_by_covers(li.poset, x, y), (x, y)
                assert all(ch.elements[0] == y and ch.elements[-1] == x for ch in chains)
                pairs += 1
    assert pairs > 2 * li.poset.n


def test_chains_between_two_atoms_are_not_comparable(system):
    s = system("A3")
    li = labeled_interval(s, 0, s.w0)
    (_, a), (_, b) = li.atoms[:2]
    assert a != b
    with pytest.raises(NotComparable, match=re.escape(
            f"{li.poset.names[a]} is not <= {li.poset.names[b]}")):
        all_maximal_chains(li.poset, a, b)


def test_purity_and_thinness():
    assert is_pure(chain_poset(3))
    assert not is_thin(chain_poset(3))
    assert is_thin(boolean_2())
    assert is_pure(toy_posets()["long chain"])
    uneven = poset_from_covers(["x", "m", "y"], [0, 1, 2], [(0, 1, None), (1, 2, None)])
    assert np.array_equal(closed_order(uneven), np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool))
    # x < m < y and the direct relation x < y: still pure (chains equal)
    assert is_pure(uneven)


def swept_is_pure(poset):
    """The reference for :func:`is_pure`: True iff within every interval
    all maximal chains have equal length, read from the covers alone,
    which must increase ``dims``.  For each bottom x, the longest and
    shortest chain lengths to every z >= x are computed by one
    dimension-ordered sweep, and must agree."""
    n = poset.n
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for lo, hi, _ in poset.covers:
        up[lo].append(hi)
        down[hi].append(lo)
    by_dim = sorted(range(n), key=poset.dims.__getitem__)
    for x in range(n):
        above, todo = {x}, [x]
        while todo:
            for y in up[todo.pop()]:
                if y not in above:
                    above.add(y)
                    todo.append(y)
        longest = {x: 0}
        shortest = {x: 0}
        for z in by_dim:
            if z == x or z not in above:
                continue
            preds = [lo for lo in down[z] if lo in above]
            if not preds:
                return False
            longest[z] = 1 + max(longest[p] for p in preds)
            shortest[z] = 1 + min(shortest[p] for p in preds)
            if longest[z] != shortest[z]:
                return False
    return True


def toy_posets():
    """Every toy poset of this module: pure ones, and one with a cover
    that skips a dim."""
    return {
        "chain": chain_poset(3),
        "diamond": boolean_2(),
        "long chain": poset_from_covers(["a", "b", "c", "d"], [0, 1, 2, 3],
                                        [(0, 1, None), (1, 2, None), (2, 3, None)]),
        "point": poset_from_covers(["pt"], [0], []),
        # chains a-b-c-e and a-d-e have different lengths
        "impure": poset_from_covers(
            ["a", "b", "c", "d", "e"], [0, 1, 2, 1, 3],
            [(0, 1, None), (1, 2, None), (2, 4, None), (0, 3, None), (3, 4, None)]),
    }


def test_purity_from_gradedness_agrees_with_the_chain_sweep(system):
    cases = list(toy_posets().items())
    for name in ("A3", "B3"):
        s = system(name)
        cases += [((name, v, w), labeled_interval(s, v, w).poset)
                  for v, w in s.comparable_pairs()]
    h3 = system("H3")
    cases.append(("H3", labeled_interval(h3, 0, h3.w0).poset))
    planted = b3_with_a_cover_across_dims()
    cases.append(("planted B3", labeled_interval(planted, 0, planted.w0).poset))
    verdicts = {}
    for name, poset in cases:
        assert is_pure(poset) == swept_is_pure(poset), name
        verdicts[name] = is_pure(poset)
    assert not verdicts["impure"] and not verdicts["planted B3"]
    assert sum(verdicts.values()) == len(verdicts) - 2


def test_bruhat_interval_thin(system):
    s = system("A3")
    li = labeled_interval(s, 0, s.w0)
    assert is_pure(li.poset)
    assert is_thin(li.poset)


def test_not_pure_raises():
    impure = toy_posets()["impure"]
    assert not is_pure(impure)
    with pytest.raises(NotPure):
        is_thin(impure)


def test_euler_characteristic(system):
    point = poset_from_covers(["pt"], [0], [])
    assert euler_characteristic(point) == 1
    s = system("A2")
    pairs = s.comparable_pairs()
    pp = pair_poset(s, pairs)
    assert pp.n == 19
    assert euler_characteristic(pp) == 1
    li = labeled_interval(s, 0, s.w0)
    assert euler_characteristic(li.poset) == 0   # balanced interval


def test_el_labeling_a2(system):
    s = system("A2")
    order = order_from_reduced_word(s, [1, 2, 1])
    li = labeled_interval(s, 0, s.w0)
    report = check_el_labeling(li.poset, order.rank, li.index[0], li.index[s.w0])
    assert report.chain_count == 4
    # the increasing chain passes through s1 and s1s2
    ids = [li.ids[i] for i in report.increasing_chain.elements]
    assert ids == [s.w0, s.parse_word("1.2"), s.parse_word("1"), 0]
    # rank-1 interval is trivially fine
    tiny = labeled_interval(s, 0, s.simple(1))
    tiny_report = check_el_labeling(tiny.poset, order.rank, tiny.index[0],
                                    tiny.index[s.simple(1)])
    assert tiny_report.chain_count == 1


def test_chain_enumeration_stops_at_the_cap(system, monkeypatch):
    s = system("A2")
    order = order_from_reduced_word(s, [1, 2, 1])
    li = labeled_interval(s, 0, s.w0)
    bot, top = li.index[0], li.index[s.w0]
    assert len(all_maximal_chains(li.poset, bot, top)) == 4
    monkeypatch.setattr(posets, "CHAIN_CAP_DEFAULT", 3)
    with pytest.raises(IntervalTooLarge, match="more than 3 maximal chains"):
        check_el_labeling(li.poset, order.rank, bot, top)
    monkeypatch.setattr(posets, "CHAIN_CAP_DEFAULT", 4)
    assert check_el_labeling(li.poset, order.rank, bot, top).chain_count == 4


@pytest.mark.parametrize("v, w, ranking, failed, witness", [
    ("2", "2.1.3.2", ["2", "1", "2.3.2", "1.2.1", "3", "1.2.3.2.1"],
     "the increasing word is not lexicographically least", (9, 5, 1, 0)),
    ("3", "2.1.3.2", ["1", "1.2.3.2.1", "2", "1.2.1", "3", "2.3.2"],
     "the decreasing word is not lexicographically greatest", (7, 6, 2, 0)),
])
def test_el_violation_names_the_interval_property_and_witness(system, v, w, ranking,
                                                              failed, witness):
    # rankings of T that are no reflection orders, on A3 intervals of rank 3
    s = system("A3")
    li = labeled_interval(s, s.parse_word(v), s.parse_word(w))
    rank = {s.parse_word(t): k for k, t in enumerate(ranking)}
    chains = all_maximal_chains(li.poset, 0, li.poset.n - 1)
    assert witness in [ch.elements for ch in chains]
    message = (f"EL property failed on [{li.poset.names[0]}, {li.poset.names[-1]}]: "
               f"{failed}; witness chain {witness}")
    with pytest.raises(ELViolation, match=re.escape(message)):
        check_el_labeling(li.poset, rank, 0, li.poset.n - 1)


def test_el_labeling_violation_on_bad_ranks(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.w0)
    # ranking that inverts the dihedral middle: 1.2.1 before 1 and after 2
    bad = {s.parse_word("1.2.1"): 0, s.parse_word("1"): 1, s.parse_word("2"): 2}
    with pytest.raises(ELViolation):
        check_el_labeling(li.poset, bad, li.index[0], li.index[s.w0])


def test_dot_output(system):
    s = system("A2")
    li = labeled_interval(s, 0, s.w0)
    dot = poset_to_dot(li.poset, [(0, 2)], {t: s.word_str(t) for t in s.reflections})
    assert dot.startswith("graph poset {")
    assert "color=red penwidth=2" in dot
    assert dot.count("--") == 8


def test_el_labeling_b3_samples(system):
    # sampled orders on a bigger group, intervals of modest rank
    from coxmorse.verify import check_el_properties, sampled_orders

    s = system("B3")
    rep = check_el_properties(s, sampled_orders(s, 3), max_rank=3)
    assert rep.ok and rep.instances > 0


def test_fixture_bottom_is_not_below_all_figure_elements(system):
    # the 10-element interval of the fixture only exists over bottom 2:
    # over bottom 1 the interval misses 3.2.3 and friends and has 8 elements
    s = system("A3")
    w = s.parse_word("2.3.1.2")
    assert not s.bruhat_leq(s.parse_word("1"), s.parse_word("3.2.3"))
    li = labeled_interval(s, s.parse_word("1"), w)
    assert li.poset.n == 8


def test_order_check_names_the_failed_axiom():
    # x < m < y by dims 0, 1, 2; each matrix breaks one axiom
    dims = [0, 1, 2]
    chain = packed_from_dense([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    assert graded_covers(chain, dims, "chain") == ((0, 1, None), (1, 2, None))
    broken = {
        "not transitive": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        "not graded by dimension": [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        "not reflexive": [[1, 1, 1], [0, 0, 1], [0, 0, 1]],
        "not antisymmetric": [[1, 1, 1], [1, 1, 1], [0, 0, 1]],
    }
    for axiom, rows in broken.items():
        with pytest.raises(TheoremFalsified, match=f"chain is {axiom}"):
            graded_covers(packed_from_dense(rows), dims, "chain")
    # transitive, but x < y skips dim 1: the only relation is not a cover step
    with pytest.raises(TheoremFalsified, match="not graded by dimension"):
        graded_covers(packed_from_dense([[1, 1], [0, 1]]), [0, 2], "gap")


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_pair_order_guard_fires_before_allocating(system, monkeypatch, name):
    s = system(name)
    n = len(s.comparable_pairs())     # cells of both posets below
    need = n * ((n + 7) // 8)
    # numpy's scratch for one row scan (an unpackbits iterator, about 5.4 KB)
    # exceeds A3's packed order of 5751 bytes, so the bound has a 32 KiB floor
    bound = max(need, 32 * 1024)
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", need - 1)
    builds = [("springer pair poset", lambda: build_springer_poset(s, set(), set())),
              ("q_k relation", lambda: build_qk(s, set()))]
    for what, build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge, match=f"{what} on {n} elements"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{what} allocated {peak} bytes before the guard"
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", need)
    assert len(build_qk(s, set()).members) == n


def test_a4_springer_poset_fits_a_budget_below_its_dense_size(system, monkeypatch):
    s = system("A4")
    n = 3781
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 2 * n * ((n + 7) // 8))
    assert posets.MAX_ORDER_BYTES < n * n
    sp = build_springer_poset(s, set(), set())
    assert sp.poset.n == n and sp.poset.leq is None
    _, summary = springer_matching(sp)
    assert summary.certificate


def a3_springer_order(system):
    """The A3 Springer poset for J = J' = {} and its packed order, built by
    the pair-poset route from the same cells."""
    s = system("A3")
    sp = build_springer_poset(s, set(), set())
    leq = pair_poset(s, sp.members, "springer pair poset").leq
    return sp, leq, lambda k: pair_name(s, sp.members[k])


def test_flipped_bit_in_a_packed_pair_order_names_the_axiom_and_cells(system):
    sp, leq, name = a3_springer_order(system)
    dims = sp.poset.dims
    # drop a relation two dims apart: the covers still imply it
    i, j = next((i, j) for i, j in zip(*leq.nonzero()) if dims[j] == dims[i] + 2)
    leq.packed[i, j >> 3] ^= 1 << (j & 7)
    with pytest.raises(TheoremFalsified,
                       match=re.escape(f"springer pair poset is not transitive: {name(i)} <= "
                                       f"{name(j)} follows from the covers")):
        graded_covers(leq, dims, "springer pair poset", name)


def order_check_outcome(route, leq, dims, name):
    """The covers that ``route`` finds in ``leq``, or the message of the
    :class:`TheoremFalsified` it raises."""
    try:
        return route(leq, dims, "q_k relation", name)
    except TheoremFalsified as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["A3", "B3", "B4"])
def test_row_check_agrees_with_the_closure_route_on_edited_orders(system, monkeypatch, name):
    # fault injection: seeded single-bit edits of the packed Q_K orders of
    # every K of A3 and B3, and of B4's K = {1,2} (a missing relation set,
    # a present one cleared, a padding bit set) give the closure route's
    # outcome, its message or, for an edit that leaves an order closed from
    # its covers, its covers; some dim of B4's Q_K holds more rows than one
    # row block of the layer kernel
    s = system(name)
    blocks, kernel = [], PackedOrder._layer_blocks

    def recorded(*args):
        for rows, col, block in kernel(*args):
            blocks.append(rows)
            yield rows, col, block

    monkeypatch.setattr(PackedOrder, "_layer_blocks", staticmethod(recorded))
    if name == "B4":
        Ks = [{1, 2}]
    else:
        Ks = [{i + 1 for i in range(s.rank) if r >> i & 1} for r in range(1 << s.rank)]
    spanned = False
    for K in Ks:
        qk = build_qk(s, K)
        leq, dims = qk.leq, qk.poset.dims
        n, width = leq.packed.shape
        label = lambda k: pair_name(s, qk.members[k])   # noqa: E731
        blocks.clear()
        want = closure_route_covers(leq, dims, "q_k relation", label)
        assert graded_covers(leq, dims, "q_k relation", label) == want == qk.poset.covers
        block_dims = [dims[rows[0]] for rows in blocks]
        spanned |= len(block_dims) > len(set(block_dims))
        rng = random.Random(f"{name} {sorted(K)}")
        dense = np.asarray(leq)
        kinds = ["set", "clear", "pad"] if n % 8 else ["set", "clear"]
        if dense.all():
            kinds.remove("set")
        for k in range(21):
            kind = kinds[k % len(kinds)]
            if kind == "set":
                i, j = rng.randrange(n), rng.randrange(n)
                while dense[i, j]:
                    i, j = rng.randrange(n), rng.randrange(n)
            elif kind == "clear":
                i = rng.randrange(n)
                j = rng.choice(np.flatnonzero(dense[i]).tolist())
            else:
                i, j = rng.randrange(n), rng.randrange(n, 8 * width)
            edited = PackedOrder(n, leq.packed.copy())
            edited.packed[i, j >> 3] ^= 1 << (j & 7)
            assert (order_check_outcome(graded_covers, edited, dims, label)
                    == order_check_outcome(closure_route_covers, edited, dims, label)), \
                (sorted(K), kind, i, j)
    assert spanned or name != "B4"


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "G2"])
def test_a_bruhat_order_is_the_closure_of_its_covers_until_one_bit_is_edited(system, name):
    s = system(name)
    covers = s._up_start, s._up_ids, s._length_start
    assert s.bruhat.is_closure_of(*covers)
    n, width, w0 = s.size, s.bruhat.packed.shape[1], s.w0   # id 0 is the identity e
    assert w0 >> 3 > 0, "(w0, e) must lie below the top layer's first byte"
    edits = [(w0, 0),    # a relation set before the top layer's byte column: only the zero test
             (w0, w0),   # a diagonal bit cleared
             (0, w0)]    # the relation e <= w0 cleared
    if n % 8:
        edits.append((0, 8 * width - 1))   # a padding bit set
    for i, j in edits:
        edited = PackedOrder(n, s.bruhat.packed.copy())
        edited.packed[i, j >> 3] ^= 1 << (j & 7)
        assert not edited.is_closure_of(*covers), (i, j)


def test_the_order_check_of_a_large_qk_holds_no_full_size_copy(system):
    qk = build_qk(system("B4"), {1})
    leq = qk.leq
    assert leq.nbytes > 32 << 20
    tracemalloc.start()
    try:
        covers = graded_covers(leq, qk.poset.dims, "q_k relation")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert covers == qk.poset.covers
    assert peak < leq.nbytes / 2, f"{peak} bytes to check a {leq.nbytes}-byte order"


def test_padding_bit_in_a_packed_pair_order_is_falsified(system):
    sp, leq, name = a3_springer_order(system)
    n = leq.size
    assert n % 8, "the order needs padding bits past column n"
    leq.packed[0, -1] |= 0x80   # column 8 * ceil(n/8) - 1 >= n
    with pytest.raises(TheoremFalsified, match="past its last cell"):
        graded_covers(leq, sp.poset.dims, "springer pair poset", name)


def test_springer_pair_order_guard_fires_before_storing_members(system, monkeypatch):
    s = system("A4")
    s.bruhat
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 1)
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge, match="springer pair poset on 3781 elements"):
            build_springer_poset(s, set(), set())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 3781, f"{peak} bytes allocated for 3781 members before the guard"


def test_springer_member_blocks_are_counted_before_they_are_stored(system, monkeypatch,
                                                                   capsys):
    s = system("B3")
    s.bruhat
    pairs = len(s.comparable_pairs())
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 1)
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge, match=f"springer pair poset on {pairs} elements"):
            build_springer_poset(s, set(), set())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (v, w) index arrays of the members alone take two int64 per pair
    assert peak < 16 * pairs, f"{peak} bytes allocated for {pairs} members before the guard"
    monkeypatch.setattr(cli, "_system_from_args", lambda args: s)   # its order is closed
    assert cli.main(["springer", "--group", "B3", "--J", "{}", "--Jprime", "{}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: springer pair poset on {pairs} elements")


def test_qk_guard_fires_before_pair_arrays(system, monkeypatch):
    s = system("B3")
    s.bruhat
    s.parabolic(set())
    pairs = len(s.comparable_pairs())
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 1)
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge, match=f"q_k relation on {pairs} elements"):
            build_qk(s, set())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # np.nonzero over the Bruhat matrix alone takes two int64 indices per pair
    assert peak < 16 * pairs, f"{peak} bytes allocated for {pairs} pairs before the guard"


def oracle_nested_order(bru, members):
    """[i, j] iff v_j <= v_i <= w_i <= w_j in the Bruhat matrix ``bru``."""
    v, w = np.asarray(members).T
    return bru[v][:, v].T & bru[v, w][:, None] & bru[w][:, w]


def test_springer_and_fiber_orders_match_the_oracle_nesting(system):
    s = system("A3")
    bru = np.array([[oracle_bruhat_leq(s, x, y) for y in range(s.size)]
                    for x in range(s.size)])
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        assert sp.poset.leq is None
        assert np.array_equal(closed_order(sp.poset), oracle_nested_order(bru, sp.members)), \
            (J, Jp)
    for r in range(1 << s.rank):
        K = {i + 1 for i in range(s.rank) if r >> i & 1}
        qk = build_qk(s, K)
        lo, hi = np.nonzero(qk.leq)
        for k in random.Random(r).choices(range(len(lo)), k=30):
            fp = build_fiber_poset(qk, qk.members[lo[k]], qk.members[hi[k]])
            assert fp.poset.leq is None
            assert np.array_equal(closed_order(fp.poset), oracle_nested_order(bru, fp.members)), K
