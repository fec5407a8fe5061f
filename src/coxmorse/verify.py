"""Batch verification sweeps over whole groups.

Each sweep runs one structural claim across an exhaustive desk-scale
instance family and returns a :class:`CheckReport`; a nonempty failure
list (or an unexpected exception, which is converted into a failure)
means a falsified instance.  The CLI suite command and the acceptance
test module both drive these functions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from .coxeter import CoxeterSystem, build_system
from .errors import CoxmorseError
from .fibers import build_fiber_poset, build_qk, fiber_matching
from .matchings import (build_matching, is_acyclic, labeled_interval, sweep_failures,
                        verify_shelling_subsets)
from .oracles import oracle_demazure, oracle_reflection_orders
from .posets import all_maximal_chains, check_el_chains, is_pure, is_thin
from .reflection_orders import (ReflectionOrder, opposite, order_for_fiber, order_for_springer,
                                order_from_reduced_word, shortlex_order, validate)
from .springer import build_springer_poset, springer_matching


@dataclass
class CheckReport:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        out = f"{verdict} {self.name}: {self.instances} instances"
        if self.failures:
            out += f"; {len(self.failures)} failures, first: {self.failures[0]}"
        return out


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckReport:
        t0 = time.perf_counter()
        report: CheckReport = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - t0
        return report

    return wrapper


def all_orders(system: CoxeterSystem) -> list[ReflectionOrder]:
    """Every reflection order of the system; the word-to-order map is a
    bijection, so enumerating reduced words of w0 enumerates orders."""
    from .oracles import oracle_reduced_words

    return [order_from_reduced_word(system, word)
            for word in oracle_reduced_words(system, system.w0)]


def sampled_orders(system: CoxeterSystem, k: int = 5) -> list[ReflectionOrder]:
    """k deterministic reflection orders for groups whose full order set is
    too large to enumerate."""
    out: list[ReflectionOrder] = []
    seen: set[tuple[int, ...]] = set()

    def push(order: ReflectionOrder) -> None:
        if order.sequence not in seen:
            seen.add(order.sequence)
            out.append(order)

    push(shortlex_order(system))
    push(opposite(out[0]))
    if system.rank >= 2:
        push(order_for_springer(system, {1}, {system.rank}))
        push(order_for_springer(system, {system.rank}, {1}))
    half = frozenset(range(1, system.rank // 2 + 2)) & frozenset(range(1, system.rank + 1))
    push(order_for_fiber(system, system.longest(half)))
    vp = 0
    while len(out) < k and vp < system.size:
        push(order_for_fiber(system, vp))
        vp += 1
    return out[:k]


@_timed
def check_golden_fixture(system: CoxeterSystem) -> CheckReport:
    """The rank-3 fixture: the interval [2, 2.1.3.2] under the six-term
    order built from the word 1.2.3.1.2.1 must match exactly five fixed
    pairs, and the matching must not be a special matching."""
    report = CheckReport("golden fixture (rank-3 interval, six-term order)")
    order = order_from_reduced_word(system, [1, 2, 3, 1, 2, 1])
    expected_seq = [system.parse_word(t)
                    for t in ("1", "1.2.1", "1.2.3.2.1", "2", "2.3.2", "3")]
    if list(order.sequence) != expected_seq:
        report.failures.append("constructed order differs from the six-term listing")
        return report
    v, w = system.parse_word("2"), system.parse_word("2.3.1.2")
    li = labeled_interval(system, v, w)
    m = build_matching(li, order)
    got = {frozenset((li.ids[a], li.ids[b])) for a, b in m.pairs}
    expected_pairs = {
        frozenset((system.parse_word(a), system.parse_word(b)))
        for a, b in [("2.3.1.2", "2.1.2"), ("3.2.3", "2.3"), ("3.1.2", "1.2"),
                     ("2.1.3", "2.1"), ("3.2", "2")]
    }
    report.instances = 1
    if li.poset.n != 10:
        report.failures.append(f"interval has {li.poset.n} elements, expected 10")
    if got != expected_pairs:
        report.failures.append(f"matched pairs differ: {sorted(map(sorted, got))}")
    if not is_acyclic(li.poset, m).acyclic:
        report.failures.append("fixture matching is not acyclic")
    partner = {li.ids[i]: li.ids[p] for i, p in enumerate(m.partner)}
    s323, s23 = system.parse_word("3.2.3"), system.parse_word("2.3")
    if partner[s323] != s23:
        report.failures.append("M(3.2.3) != 2.3")
    if system.bruhat_leq(s23, partner[w]):
        report.failures.append("expected M(3.2.3) not<= M(top): special-matching witness lost")
    return report


@_timed
def check_matchings(system: CoxeterSystem, orders: list[ReflectionOrder]) -> CheckReport:
    """Complete acyclic matchings on every nontrivial interval, every order.

    All instances are swept in whole-array steps (:func:`sweep_failures`).
    Each failing one is re-run through the per-interval route, which names
    the failure; an instance that only the sweep fails is a failure too."""
    report = CheckReport(f"interval matchings on {system.matrix.label}")
    li = None
    for v, w, k in sweep_failures(system, orders):
        if li is None or (li.v, li.w) != (v, w):
            li = labeled_interval(system, v, w)
        try:
            acyc = is_acyclic(li.poset, build_matching(li, orders[k]))
        except CoxmorseError as exc:
            report.failures.append(str(exc))
            continue
        where = f"[{system.word_str(v)}, {system.word_str(w)}]"
        if acyc.acyclic:
            report.failures.append(
                f"the array sweep fails {where} under {orders[k]!r}, "
                f"but the per-interval route passes it"
            )
        else:
            report.failures.append(f"cycle in {where}: {acyc.cycle}")
    report.instances = (system.bruhat.count() - system.size) * len(orders)
    return report


@_timed
def check_shelling(system: CoxeterSystem, orders: list[ReflectionOrder]) -> CheckReport:
    """Prefix unions of coatom/atom intervals are preserved; the complement
    of the coatom unions is [M(w), w]."""
    report = CheckReport(f"shelling subsets on {system.matrix.label}")
    for v, w in system.comparable_pairs(strict=True):
        li = labeled_interval(system, v, w)
        for order in orders:
            report.instances += 1
            try:
                verify_shelling_subsets(li, order)
            except CoxmorseError as exc:
                report.failures.append(str(exc))
    return report


@_timed
def check_el_properties(system: CoxeterSystem, orders: list[ReflectionOrder],
                        max_rank: int = 5) -> CheckReport:
    """Unique increasing (lex-least) and decreasing (lex-greatest) chains
    plus atom/coatom extremality on every interval of bounded rank, on
    chains enumerated once per interval; a failed enumeration fails each order."""
    report = CheckReport(f"edge-label chain structure on {system.matrix.label}")
    for v, w in system.comparable_pairs(strict=True):
        if system.len_of(w) - system.len_of(v) > max_rank:
            continue
        li = labeled_interval(system, v, w)
        bot, top = li.index[v], li.index[w]
        report.instances += len(orders)
        try:
            chains = all_maximal_chains(li.poset, bot, top)
        except CoxmorseError as exc:
            report.failures += [str(exc)] * len(orders)
            continue
        for order in orders:
            try:
                check_el_chains(li.poset, chains, order.rank, bot, top)
            except CoxmorseError as exc:
                report.failures.append(str(exc))
    return report


def disjoint_pairs(rank: int):
    for assign in itertools.product(range(3), repeat=rank):
        J = frozenset(i + 1 for i in range(rank) if assign[i] == 1)
        Jp = frozenset(i + 1 for i in range(rank) if assign[i] == 2)
        yield J, Jp


@_timed
def check_springer(system: CoxeterSystem) -> CheckReport:
    """Certificates for every disjoint (J, J'): acyclic matching, unique
    unmatched apex, unmatched counts (1, 0, ...), Euler characteristic 1;
    :func:`springer_matching` raises unless all hold (its apex has dim 0)."""
    report = CheckReport(f"springer certificates on {system.matrix.label}")
    for J, Jp in disjoint_pairs(system.rank):
        report.instances += 1
        try:
            springer_matching(build_springer_poset(system, J, Jp))
        except CoxmorseError as exc:
            report.failures.append(f"J={sorted(J)}, J'={sorted(Jp)}: {exc}")
    return report


@_timed
def check_fibers(system: CoxeterSystem, len_cap: int | None = None) -> CheckReport:
    """For every K and every comparable anchor pair (outer length capped):
    the four fiber descriptions agree, the fiber is order convex, and the
    matching certifies with unique unmatched (z~, z~); the build (whose step
    rule is the convexity) and :func:`fiber_matching` raise otherwise."""
    report = CheckReport(f"fiber certificates on {system.matrix.label}")
    cap = len_cap if len_cap is not None else system.len_of(system.w0)
    for r in range(1 << system.rank):
        K = frozenset(i + 1 for i in range(system.rank) if r >> i & 1)
        qk = build_qk(system, K)
        top_ok = [k for k, (_, w) in enumerate(qk.members) if system.len_of(w) <= cap]
        for j in top_ok:
            for i in qk.leq[:, j].nonzero()[0].tolist():
                report.instances += 1
                tag = f"K={sorted(K)}, anchors {qk.members[i]} <= {qk.members[j]}"
                try:
                    fiber_matching(build_fiber_poset(qk, qk.members[i], qk.members[j]))
                except CoxmorseError as exc:
                    report.failures.append(f"{tag}: {exc}")
    return report


@_timed
def check_demazure(system: CoxeterSystem) -> CheckReport:
    """Fold implementations of the three Demazure-type operations agree with
    literal optimization over lower sets, on every pair of elements."""
    report = CheckReport(f"demazure operations on {system.matrix.label}")
    ops = [("star", system.demazure_star), ("circ_l", system.circ_l),
           ("circ_r", system.circ_r)]
    for x in range(system.size):
        for y in range(system.size):
            for op, fn in ops:
                report.instances += 1
                try:
                    want = oracle_demazure(system, x, y, op)
                except CoxmorseError as exc:
                    report.failures.append(str(exc))
                    continue
                got = fn(x, y)
                if got != want:
                    report.failures.append(
                        f"{op}({system.word_str(x)}, {system.word_str(y)}) = "
                        f"{system.word_str(got)}, oracle says {system.word_str(want)}"
                    )
    return report


@_timed
def check_reflection_orders(system: CoxeterSystem,
                            expected_count: int | None = None) -> CheckReport:
    """Constrained order constructions satisfy their segment inequalities
    and the dihedral condition; optionally the census count is pinned."""
    report = CheckReport(f"reflection orders on {system.matrix.label}")
    t_set = set(system.reflections)
    for J, Jp in disjoint_pairs(system.rank):
        report.instances += 1
        try:
            order = order_for_springer(system, Jp, J)
            rank = order.rank
            t_jp = {t for t in t_set if system.in_parabolic(t, Jp)}
            t_j = {t for t in t_set if system.in_parabolic(t, J)}
            if t_jp and t_set - t_jp:
                if max(rank[t] for t in t_jp) >= min(rank[t] for t in t_set - t_jp):
                    report.failures.append(f"initial segment violated for J'={sorted(Jp)}")
            if t_j and t_set - t_j:
                if max(rank[t] for t in t_set - t_j) >= min(rank[t] for t in t_j):
                    report.failures.append(f"final segment violated for J={sorted(J)}")
            if not validate(system, order.sequence).ok:
                report.failures.append(f"dihedral condition failed for ({sorted(Jp)}, {sorted(J)})")
        except CoxmorseError as exc:
            report.failures.append(f"J={sorted(J)}, J'={sorted(Jp)}: {exc}")
    for vp in range(system.size):
        report.instances += 1
        try:
            order = order_for_fiber(system, vp)
            rank = order.rank
            n_r = system.right_inversion_reflections(vp)
            rest = t_set - n_r
            if n_r and rest and max(rank[t] for t in n_r) >= min(rank[t] for t in rest):
                report.failures.append(f"inversion segment violated for v'={system.word_str(vp)}")
            if not validate(system, order.sequence).ok:
                report.failures.append(f"dihedral condition failed for v'={system.word_str(vp)}")
        except CoxmorseError as exc:
            report.failures.append(f"v'={system.word_str(vp)}: {exc}")
    if expected_count is not None:
        report.instances += 1
        census = len(oracle_reflection_orders(system))
        if census != expected_count:
            report.failures.append(f"order census {census} != expected {expected_count}")
    return report


@_timed
def check_thinness(system: CoxeterSystem) -> CheckReport:
    """Every length-2 interval has exactly 4 elements; every interval pure.
    Thinness is only read on a pure order."""
    report = CheckReport(f"thinness and purity on {system.matrix.label}")
    full = labeled_interval(system, 0, system.w0).poset
    report.instances += 1
    if not is_pure(full):
        report.failures.append("full group order is not pure")
    elif not is_thin(full):
        report.failures.append("a length-2 interval without exactly 4 elements exists")
    return report


# -- suite assembly ---------------------------------------------------------


def run_level(level: str) -> list[CheckReport]:
    return list(iter_level(level))


def iter_level(level: str) -> Iterator[CheckReport]:
    """The level's checks, run in turn: each report is yielded as soon as
    its check ends."""
    if level == "quick":
        tasks = _quick_tasks()
    elif level == "full":
        tasks = _full_tasks()
    else:
        raise CoxmorseError(f"unknown suite level {level!r}")
    for fn in tasks:
        yield fn()


def _quick_tasks():
    a2 = build_system("A2")
    a3 = build_system("A3")
    orders2 = all_orders(a2)
    return [
        lambda: check_golden_fixture(a3),
        lambda: check_matchings(a2, orders2),
        lambda: check_shelling(a2, orders2),
        lambda: check_el_properties(a2, orders2),
        lambda: check_springer(a2),
        lambda: check_fibers(a2),
        lambda: check_demazure(a2),
        lambda: check_reflection_orders(a2, expected_count=2),
        lambda: check_thinness(a2),
    ]


def _full_tasks():
    a2 = build_system("A2")
    a3 = build_system("A3")
    b2 = build_system("B2")
    b3 = build_system("B3")
    h3 = build_system("H3")
    orders2 = all_orders(a2)
    orders3 = all_orders(a3)
    return [
        lambda: check_golden_fixture(a3),
        lambda: check_matchings(a2, orders2),
        lambda: check_matchings(a3, orders3),
        lambda: check_matchings(b3, sampled_orders(b3)),
        lambda: check_matchings(h3, sampled_orders(h3)),
        lambda: check_shelling(a2, orders2),
        lambda: check_shelling(a3, orders3),
        lambda: check_el_properties(a3, orders3),
        lambda: check_springer(a2),
        lambda: check_springer(a3),
        lambda: check_springer(b3),
        lambda: check_fibers(a2),
        lambda: check_fibers(a3, len_cap=5),
        lambda: check_demazure(a3),
        lambda: check_demazure(b2),
        lambda: check_reflection_orders(a2, expected_count=2),
        lambda: check_reflection_orders(a3, expected_count=16),
        lambda: check_thinness(a3),
        lambda: check_thinness(b3),
        lambda: check_thinness(h3),
    ]
