"""Pair posets as lower sets of the nesting order: the single-step builder,
its local lower-set check, and agreement with the packed pair-poset route."""

import re

import numpy as np
import pytest

from coxmorse import cells, fibers, springer
from coxmorse.cells import check_against_pair_poset, ideal_poset, pair_name, pair_poset
from coxmorse.cli import main
from coxmorse.errors import Falsification, TheoremFalsified
from coxmorse.fibers import build_fiber_poset, build_qk
from coxmorse.posets import FinitePoset
from coxmorse.springer import build_springer_poset
from coxmorse.verify import disjoint_pairs
from helpers import closed_order


def assert_same_route(system, poset, what):
    oracle = pair_poset(system, poset.payload, what)
    assert oracle.payload == poset.payload
    assert list(oracle.dims) == list(poset.dims)
    assert all(map(np.array_equal, oracle.cover_arrays, poset.cover_arrays))
    assert oracle.covers == poset.covers


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4"])
def test_springer_ideal_route_matches_pair_poset(system, name):
    s = system(name)
    for J, Jp in disjoint_pairs(s.rank):
        sp = build_springer_poset(s, J, Jp)
        assert_same_route(s, sp.poset, "springer pair poset")
        check_against_pair_poset(s, sp.poset, "springer pair poset")


def test_fiber_ideal_route_matches_pair_poset(system, a3_fibers):
    s = system("A3")
    for fp in a3_fibers:
        assert_same_route(s, fp.poset, "fiber pair poset")
        check_against_pair_poset(s, fp.poset, "fiber pair poset")
    assert len(a3_fibers) > 1000


def test_the_closure_of_the_single_steps_is_the_pair_order(system):
    s = system("A3")
    sp = build_springer_poset(s, set(), set())
    assert sp.poset.leq is None
    oracle = pair_poset(s, sp.members, "springer pair poset")
    assert np.array_equal(closed_order(sp.poset).packed, oracle.leq.packed)


def a3_springer_drop(s):
    """The error naming the first cell above the non-apex cell (e, e) of
    the A3 Springer poset for J = J' = {}, once (e, e) is dropped."""
    sp = build_springer_poset(s, set(), set())
    drop = 0
    assert sp.members[drop] == (0, 0) != (sp.apex, sp.apex)
    hi = min(h for lo, h, _ in sp.poset.covers if lo == drop)
    return (f"springer pair poset is not a lower set of the nesting order: the cell "
            f"{sp.poset.names[hi]} has the lower cover {sp.poset.names[drop]}, "
            f"which is not a cell")


def drop_e_e_from_the_block_pass(monkeypatch):
    real = springer._block_pass

    def dropped(*args):
        v, w, mate, failure = real(*args)
        keep = (v != 0) | (w != 0)
        return v[keep], w[keep], mate[keep], failure

    monkeypatch.setattr(springer, "_block_pass", dropped)


def test_a_dropped_springer_cell_is_named(system, monkeypatch):
    s = system("A3")
    message = a3_springer_drop(s)
    drop_e_e_from_the_block_pass(monkeypatch)
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        build_springer_poset(s, set(), set())


def test_cli_exits_as_falsification_on_a_dropped_springer_cell(system, monkeypatch, capsys):
    message = a3_springer_drop(system("A3"))
    drop_e_e_from_the_block_pass(monkeypatch)
    code = main(["springer", "--group", "A3", "--J", "{}", "--Jprime", "{}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err == f"FALSIFIED: {message}\n"


def test_a_cell_that_the_array_step_rule_misses_is_named_by_it(system, monkeypatch, capsys):
    # the array step rule looks the lower covers up among the cells but
    # (e, e), and names the first cell above it, as for a dropped cell
    s = system("A3")
    message = a3_springer_drop(s)
    real = cells.step_cover_arrays

    def dropped(system, v, w, what):
        keep = (v != 0) | (w != 0)
        return real(system, v[keep], w[keep], what)

    monkeypatch.setattr(springer, "step_cover_arrays", dropped)
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        build_springer_poset(s, set(), set())
    code = main(["springer", "--group", "A3", "--J", "{}", "--Jprime", "{}"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err == f"FALSIFIED: {message}\n"


def missing_lower_cover(s, pair, cells_of):
    """The first single-step lower cover of ``pair`` in the nesting order,
    in the order the builder visits them, that is not in ``cells_of``."""
    a, b = pair
    lows = ([(u, b) for u, _ in s.bruhat_covers_up(a)]
            + [(a, u) for u, _ in s.bruhat_covers_down(b)])
    return next((low for low in lows if s.bruhat_leq(*low) and low not in cells_of), None)


def test_an_added_fiber_pair_without_its_lower_cover_is_named(system, monkeypatch):
    s = system("A3")
    K = {1, 2}
    lower, upper = (0, 0), (0, s.parse_word("1.2.3"))
    qk = build_qk(s, K)
    fp = build_fiber_poset(qk, lower, upper)
    elems = s.parabolic(K).elements
    extra, missing = next(
        ((a, b), low) for a in elems for b in elems
        if s.bruhat_leq(a, b) and (a, b) not in fp.index
        for low in [missing_lower_cover(s, (a, b), fp.index)] if low is not None)
    real = fibers.ideal_poset
    monkeypatch.setattr(fibers, "ideal_poset",
                        lambda system, pairs, what: real(system, [*pairs, extra], what))
    message = (f"fiber pair poset is not a lower set of the nesting order: the cell "
               f"{pair_name(s, extra)} has the lower cover {pair_name(s, missing)}, "
               f"which is not a cell")
    with pytest.raises(TheoremFalsified, match=re.escape(message)):
        build_fiber_poset(qk, lower, upper)


def test_a_pair_whose_ends_are_not_comparable_is_named(system):
    s = system("A3")
    x, y = s.parse_word("1"), s.parse_word("2")
    with pytest.raises(TheoremFalsified, match=re.escape("has a cell (1,2) whose ends")):
        ideal_poset(s, [(x, y)], "pair poset")


def test_oracle_mismatch_names_the_first_differing_cover(system):
    s = system("A3")
    sp = build_springer_poset(s, {1}, {3})
    poset = sp.poset
    lo, hi, _ = poset.covers[0]
    broken = FinitePoset(poset.dims, None, poset.covers[1:], poset.payload, poset.index,
                         poset.name_of)
    message = (f"springer pair poset disagrees with the pair-poset oracle at the cover "
               f"{poset.names[lo]} < {poset.names[hi]} (only in the oracle)")
    with pytest.raises(Falsification, match=re.escape(message)):
        check_against_pair_poset(s, broken, "springer pair poset")
    last = poset.n - 1
    dims = poset.dims.copy()
    dims[-1] += 1
    regraded = FinitePoset(dims, None, poset.covers, poset.payload, poset.index, poset.name_of)
    with pytest.raises(Falsification, match=re.escape(
            f"numbers or grades its cells unlike the pair-poset oracle at {poset.names[last]}")):
        check_against_pair_poset(s, regraded, "springer pair poset")


@pytest.mark.parametrize("command", [
    ["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"],
    ["fiber", "--group", "A3", "--K", "{1,2}", "--anchors", "e:e:e:1.2.3"],
])
def test_paranoid_exits_as_falsification_when_the_routes_differ(monkeypatch, capsys, command):
    real = cells.pair_poset

    def dropped_cover(system, pairs, what="pair poset", K=frozenset()):
        poset = real(system, pairs, what, K)
        return FinitePoset(poset.dims, poset.leq, poset.covers[1:], poset.payload,
                           poset.index, poset.name_of)

    assert main(command + ["--paranoid"]) == 0
    clean = capsys.readouterr().out
    assert main(command) == 0 and capsys.readouterr().out == clean
    # Q_K is built through the fibers module's binding, which keeps every cover
    monkeypatch.setattr(cells, "pair_poset", dropped_cover)
    code = main(command + ["--paranoid"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert "disagrees with the pair-poset oracle at the cover" in out.err
    assert "(only in the ideal route)" in out.err
