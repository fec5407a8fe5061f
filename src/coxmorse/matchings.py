"""The reflection-order matching on Bruhat intervals, and matching checks.

For an interval [v, w] with every Hasse edge {w1 < w2} labeled by the
reflection w1 w2^{-1}, each element x selects its incident edge with the
largest label under a fixed reflection order; the union of the selected
edges is returned.  That this union is a complete matching, and acyclic
once matched edges are reversed against the downward Hasse orientation,
is asserted at runtime rather than assumed: a violation raises a
falsification error carrying the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .coxeter import CoxeterSystem
from .errors import (
    CyclicMatching,
    EmptyInterval,
    InvalidSubset,
    NotAMatching,
    NotComparable,
    TheoremFalsified,
)
from .posets import FinitePoset, euler_characteristic
from .reflection_orders import ReflectionOrder


@dataclass(frozen=True)
class LabeledInterval:
    """A Bruhat interval with its reflection-labeled Hasse diagram.

    ``poset`` indices are interval-local; ``ids`` maps them to group
    element ids (also stored as the poset payload), and ``index`` back.
    Dimensions are lengths relative to the bottom element.
    """

    system: CoxeterSystem
    v: int
    w: int
    ids: tuple[int, ...]
    index: dict[int, int]
    poset: FinitePoset

    @property
    def rank(self) -> int:
        return self.system.len_of(self.w) - self.system.len_of(self.v)


def labeled_interval(system: CoxeterSystem, v: int, w: int) -> LabeledInterval:
    if not system.bruhat_leq(v, w):
        raise NotComparable(f"{system.word_str(v)} is not <= {system.word_str(w)}")
    ids = tuple(system.interval_ids(v, w))
    index = {x: k for k, x in enumerate(ids)}
    base = system.len_of(v)
    covers = []
    for x in ids:
        for lo, t in system.bruhat_covers_down(x):
            if lo in index:
                covers.append((index[lo], index[x], t))
    covers.sort()
    dims = tuple(system.len_of(x) - base for x in ids)
    sub = system.bruhat[np.ix_(ids, ids)]
    poset = FinitePoset(dims, sub, tuple(covers), ids, system.word_str)
    return LabeledInterval(system, v, w, ids, index, poset)


@dataclass(frozen=True)
class Matching:
    """An involution whose non-fixed orbits are cover edges of ``poset``."""

    poset: FinitePoset
    partner: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, p) for i, p in enumerate(self.partner) if p > i
        )

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.partner) if p == i)

    def is_complete(self) -> bool:
        return not self.fixed

    def matched_edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(p) for p in self.pairs)


def matching_from_pairs(poset: FinitePoset, pairs: Iterable[tuple[int, int]]) -> Matching:
    cover_set = {frozenset((lo, hi)) for lo, hi, _ in poset.covers}
    partner = list(range(poset.n))
    for a, b in pairs:
        if frozenset((a, b)) not in cover_set:
            raise NotAMatching(f"pair ({poset.names[a]}, {poset.names[b]}) is not a cover edge")
        if partner[a] != a or partner[b] != b:
            raise NotAMatching(f"element {poset.names[a]} or {poset.names[b]} matched twice")
        partner[a], partner[b] = b, a
    return Matching(poset, tuple(partner))


def build_matching(li: LabeledInterval, order: ReflectionOrder) -> Matching:
    """Select each element's largest-label incident edge; assert the union
    is a complete matching (otherwise the construction itself is falsified)."""
    if li.rank < 1:
        raise EmptyInterval("matching needs a nontrivial interval")
    poset = li.poset
    rank = order.rank
    n = poset.n
    best_rank = [-1] * n
    best_mate = [-1] * n
    for lo, hi, t in poset.covers:
        r = rank[t]
        if r > best_rank[lo]:
            best_rank[lo], best_mate[lo] = r, hi
        if r > best_rank[hi]:
            best_rank[hi], best_mate[hi] = r, lo
    for x in range(n):
        mate = best_mate[x]
        if mate < 0:
            raise NotAMatching(f"isolated element {poset.names[x]} in the Hasse diagram")
        if best_mate[mate] != x:
            raise NotAMatching(
                f"edge selection is not an involution at {poset.names[x]}: "
                f"{poset.names[x]} -> {poset.names[mate]} -> {poset.names[best_mate[mate]]}"
            )
    return Matching(poset, tuple(best_mate))


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    cycle: tuple[int, ...] | None = None


def is_acyclic(poset: FinitePoset, matching: Matching) -> AcyclicityReport:
    """Orient unmatched covers downward and matched covers upward; report
    whether the resulting digraph has a directed cycle (with witness).

    Every cover must join adjacent dims.  Then no two up-steps are
    consecutive and a cycle has as many up- as down-steps, so it alternates
    x0 -> M(x0) -> x1 -> M(x1) -> ... between two adjacent dims (Forman's
    V-paths): x_{i+1} is a lower cover of M(x_i) other than x_i, itself
    matched upward.  Only that graph on up-matched elements is searched.
    """
    partner, dims = matching.partner, poset.dims
    below: list[list[int]] = [[] for _ in range(poset.n)]
    state: dict[int, int] = {}  # up-matched elements: 0 new, 1 on path, 2 done
    for lo, hi, _ in poset.covers:
        if dims[hi] != dims[lo] + 1:
            raise InvalidSubset(
                f"cover {poset.names[lo]} < {poset.names[hi]} does not join adjacent dims"
            )
        below[hi].append(lo)
        if partner[lo] == hi:
            state[lo] = 0
    for root in state:
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        todo = [iter(below[partner[root]])]
        while todo:
            y = next(todo[-1], None)
            if y is None:
                state[path.pop()] = 2
                todo.pop()
            elif y != path[-1] and y in state:
                if state[y] == 1:
                    cyc = path[path.index(y):]
                    walk = tuple(z for x in cyc for z in (x, partner[x]))
                    return AcyclicityReport(False, walk + (y,))
                if state[y] == 0:
                    state[y] = 1
                    path.append(y)
                    todo.append(iter(below[partner[y]]))
    return AcyclicityReport(True)


def is_M_subset(matching: Matching, subset: Iterable[int]) -> bool:
    """True iff the matching restricts to an involution of ``subset``."""
    sub = set(subset)
    return all(matching.partner[x] in sub for x in sub)


def restrict_matching(matching: Matching, subset: Iterable[int]) -> dict[int, int]:
    """Partner map of the restriction; requires ``subset`` to be an M-subset."""
    sub = set(subset)
    if not is_M_subset(matching, sub):
        raise NotAMatching("subset is not preserved by the matching")
    return {x: matching.partner[x] for x in sub}


@dataclass(frozen=True)
class MorseSummary:
    """Unmatched-cell counts by dimension; (1, 0, ..., 0) certifies that the
    complex realizing the face poset is contractible."""

    counts: dict[int, int]
    unmatched: tuple[int, ...]
    acyclic: bool

    @property
    def certificate(self) -> bool:
        return (self.acyclic and self.counts.get(0, 0) == 1
                and all(c == 0 for d, c in self.counts.items() if d != 0))


def morse_counts(poset: FinitePoset, matching: Matching) -> MorseSummary:
    report = is_acyclic(poset, matching)
    if not report.acyclic:
        raise CyclicMatching(f"matching has a directed cycle: {report.cycle}")
    counts: dict[int, int] = {}
    fixed = matching.fixed
    for x in fixed:
        counts[poset.dims[x]] = counts.get(poset.dims[x], 0) + 1
    summary = MorseSummary(counts, fixed, True)
    assert sum(counts.values()) == len(fixed)
    assert sum((-1) ** d * c for d, c in counts.items()) == euler_characteristic(poset)
    return summary


@dataclass(frozen=True)
class ShellingReport:
    coatom_prefixes: int
    atom_prefixes: int
    partition_ok: bool


def verify_shelling_subsets(li: LabeledInterval, order: ReflectionOrder,
                            matching: Matching | None = None) -> ShellingReport:
    """Check the prefix-union structure of the matching.

    With coatoms w_1, ..., w_n of [v, w] ordered by increasing edge label,
    every union of the first k-1 lower intervals [v, w_i] must be preserved
    by the matching, and the complement of the union over i < n must be
    exactly [M(w), w]; dually for atoms and upper intervals."""
    poset = li.poset
    if matching is None:
        matching = build_matching(li, order)
    rank = order.rank
    top = li.index[li.w]
    bot = li.index[li.v]
    leq = poset.leq
    partner = np.asarray(matching.partner)
    coatoms = sorted((rank[t], lo) for lo, hi, t in poset.covers if hi == top)
    atoms = sorted((rank[t], hi) for lo, hi, t in poset.covers if lo == bot)

    def falsified(what: str) -> TheoremFalsified:
        system = li.system
        return TheoremFalsified(f"{what} in [{system.word_str(li.v)}, {system.word_str(li.w)}]")

    # unions of the first k lower intervals [v, w_i], k = 1 .. n-1, must be
    # preserved by the matching (the empty union trivially is); the
    # complement of the (n-1)-union is [M(w), w]
    union = np.zeros(poset.n, dtype=bool)
    for k, (_, x) in enumerate(coatoms[:-1], 1):
        union |= leq[:, x]
        if not union[partner[union]].all():
            raise falsified(f"coatom prefix union of {k} intervals is not an M-subset")
    if not np.array_equal(~union, leq[partner[top], :]):
        raise falsified("complement of the coatom prefix unions is not [M(w), w]")

    union = np.zeros(poset.n, dtype=bool)
    for k, (_, x) in enumerate(atoms[:-1], 1):
        union |= leq[x, :]
        if not union[partner[union]].all():
            raise falsified(f"atom prefix union of {k} intervals is not an M-subset")
    return ShellingReport(len(coatoms), len(atoms), True)
