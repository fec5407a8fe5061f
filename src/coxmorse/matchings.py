"""The reflection-order matching on Bruhat intervals, and matching checks.

For an interval [v, w] with every Hasse edge {w1 < w2} labeled by the
reflection w1 w2^{-1}, each element x selects its incident edge with the
largest label under a fixed reflection order; the union of the selected
edges is returned.  That this union is a complete matching, and acyclic
once matched edges are reversed against the downward Hasse orientation,
is asserted at runtime rather than assumed: a violation raises a
falsification error carrying the witness.

An interval is extracted once and may be matched under many orders.  What
does not depend on the order is built once per interval, when first read,
and shared by every order: on its :class:`FinitePoset` the graded
adjacency and the Euler characteristic, and on :class:`LabeledInterval`
the labeled atoms and coatoms and the lower and upper set of every
element as bit masks, the one form of its order.  Per order, only edge
selection, the acyclicity search and one sweep per side of the shelling
check run.

A whole group's intervals are matched in whole-array steps by
:func:`sweep_failures`; the per-interval route above is its oracle and
names what it finds.  The sweep, the Springer block pass and the fiber
slices read partners from a :func:`partner_table` by one reader
(:func:`first_inside`).  The sweep and the matching of a Springer poset
Z share one V-path peel (:func:`peel`): Z's verdict and cycle witness
come from :func:`v_path_cycle`, the array route of :func:`is_acyclic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .coxeter import CoxeterSystem, _flat
from .errors import (
    CyclicMatching,
    EmptyInterval,
    NotAMatching,
    NotComparable,
    TheoremFalsified,
)
from .posets import FinitePoset, PackedOrder, euler_characteristic
from .reflection_orders import ReflectionOrder


@dataclass(frozen=True)
class LabeledInterval:
    """A Bruhat interval with its reflection-labeled Hasse diagram.

    ``poset`` indices are interval-local; ``ids`` maps them to group
    element ids (the poset payload), and ``index`` back (the poset's
    index).  Dimensions are lengths relative to the bottom element.  Ids
    ascend by length and covers are sorted by (lo, hi), so every cover has
    lo < hi and the bottom and top are the first and last index.
    """

    system: CoxeterSystem
    v: int
    w: int
    poset: FinitePoset

    @property
    def ids(self) -> tuple[int, ...]:
        return self.poset.payload

    @property
    def index(self) -> Mapping[int, int]:
        return self.poset.index

    @property
    def rank(self) -> int:
        return self.system.len_of(self.w) - self.system.len_of(self.v)

    @cached_property
    def lower_sets(self) -> tuple[int, ...]:
        """Each [v, x] as a bit mask, bit y set iff y <= x, closed in one
        sweep: the covers come sorted by lo, with lo < hi, so the lower set
        of lo is complete before the cover (lo, hi) reads it."""
        sets = [1 << x for x in range(self.poset.n)]
        for lo, hi, _ in self.poset.covers:
            sets[hi] |= sets[lo]
        return tuple(sets)

    @cached_property
    def upper_sets(self) -> tuple[int, ...]:
        """Each [x, w] as a bit mask, bit y set iff x <= y, closed by the
        same sweep run backwards."""
        sets = [1 << x for x in range(self.poset.n)]
        for lo, hi, _ in reversed(self.poset.covers):
            sets[lo] |= sets[hi]
        return tuple(sets)

    @cached_property
    def coatoms(self) -> tuple[tuple[int, int], ...]:
        """(label, x) of each coatom x."""
        top = self.index[self.w]
        return tuple((t, lo) for lo, hi, t in self.poset.covers if hi == top)

    @cached_property
    def atoms(self) -> tuple[tuple[int, int], ...]:
        """(label, x) of each atom x."""
        bot = self.index[self.v]
        return tuple((t, hi) for lo, hi, t in self.poset.covers if lo == bot)


def labeled_interval(system: CoxeterSystem, v: int, w: int) -> LabeledInterval:
    """[v, w] with its labeled covers, which give its poset alone (its
    ``leq`` is None)."""
    if not system.bruhat_leq(v, w):
        raise NotComparable(f"{system.word_str(v)} is not <= {system.word_str(w)}")
    ids = tuple(system.interval_ids(v, w))
    index = dict(zip(ids, range(len(ids))))
    length, base = system._length, system.len_of(v)
    start, ups, labels = map(_flat, (system._up_start, system._up_ids, system._up_labels))
    local, covers = index.get, []
    # sorted by (lo, hi) as they come: ids ascend, and so does each row of the arrays
    for lo, x in enumerate(ids):
        for k in range(start[x], start[x + 1]):
            hi = local(ups[k])
            if hi is not None:
                covers.append((lo, hi, labels[k]))
    dims = tuple([length[x] - base for x in ids])
    poset = FinitePoset(dims, None, tuple(covers), ids, index, system.word_str)
    return LabeledInterval(system, v, w, poset)


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
    matched upward.  Only that graph on up-matched elements is searched,
    from roots taken in the order of their matched covers.  The adjacency
    is the poset's, built once (:attr:`FinitePoset.graded_adjacency`).
    """
    partner = matching.partner
    below = poset.graded_adjacency[0]
    roots = [lo for lo, hi, _ in poset.covers if partner[lo] == hi]
    state = [3] * poset.n   # 0 new, 1 on path, 2 done, 3 not matched upward
    for x in roots:
        state[x] = 0
    for root in roots:
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        todo = [iter(below[partner[root]])]
        while todo:
            for y in todo[-1]:   # the next lower cover of M(path[-1]) to step to
                if state[y] < 2 and y != path[-1]:
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
                continue
            if state[y] == 1:
                cyc = path[path.index(y):]
                walk = tuple(z for x in cyc for z in (x, partner[x]))
                return AcyclicityReport(False, walk + (y,))
            state[y] = 1
            path.append(y)
            todo.append(iter(below[partner[y]]))
    return AcyclicityReport(True)


# the intervals of one block of :func:`sweep_failures`: their member masks,
# one byte per (interval, element), take about this many bytes
SWEEP_BLOCK_BYTES = 1 << 14


def partner_table(system: CoxeterSystem, order: ReflectionOrder) -> np.ndarray:
    """Row x lists the other ends of the covers at x, up and down, by
    decreasing rank of their labels under ``order``; shorter rows are
    padded with ``system.size``, the end of a dummy cover.  Built from
    the up-cover arrays with one stable argsort of a key that orders the
    rows by x and each row by decreasing rank.  In any interval that
    holds x, the partner of x is the first entry of row x inside the
    interval; every route reads it so, through :func:`first_inside`."""
    start, ids, labels = system._up_start, system._up_ids, system._up_labels
    n, m = system.size, len(order.sequence)
    rank = np.full(n, -1, dtype=np.intp)
    rank[list(order.sequence)] = np.arange(m)
    lows = np.repeat(np.arange(n), np.diff(start))
    at = np.concatenate((lows, ids))
    ranks = rank[labels]
    # ranks lie in -1 .. m - 1, so the keys of row x lie in
    # x (m + 1) - m + 1 .. x (m + 1) + 1, below those of row x + 1
    o = np.argsort(at * (m + 1) - np.concatenate((ranks, ranks)), kind="stable")
    at = at[o]
    degree = np.bincount(at, minlength=n)
    slot = np.arange(len(at)) - (np.cumsum(degree) - degree)[at]
    table = np.full((n, int(degree.max(initial=0))), n, dtype=np.intp)
    table[at, slot] = np.concatenate((ids, lows))[o]
    return table


def interval_members(bruhat: PackedOrder, v: np.ndarray, w) -> np.ndarray:
    """Row k: [v[k], w[k]] as row v[k] of ``bruhat`` ANDed with column
    w[k] (``w`` may be one top), and a last, pad column that is unset."""
    packed, n, w = bruhat.packed, bruhat.size, np.asarray(w)
    member = np.zeros((len(v), n + 1), dtype=bool)
    member[:, :n] = np.unpackbits(packed[v], axis=1, count=n, bitorder="little")
    member[:, :n] &= ((packed[:, w >> 3] >> (w & 7).astype(np.uint8)) & 1).T.view(bool)
    return member


def first_inside(table: np.ndarray, member: np.ndarray, element: np.ndarray,
                 base: np.ndarray) -> np.ndarray:
    """For each position k, the first entry u of row element[k] of
    ``table`` (:func:`partner_table`) with member[base[k] + u] set: the
    partner of element[k] in the interval set in the flat ``member`` from
    base[k] on, whose pad column is never set; -1 where there is none.
    Read a column at a time, at the positions without a partner yet."""
    mate = np.full(len(element), -1, dtype=np.intp)
    todo = np.arange(len(element))
    for column in table.T:
        if not todo.size:
            break
        u = column[element[todo]]
        hit = member[base[todo] + u]
        mate[todo[hit]] = u[hit]
        todo = todo[~hit]
    return mate


def sweep_failures(system: CoxeterSystem,
                   orders: Sequence[ReflectionOrder]) -> list[tuple[int, int, int]]:
    """(v, w, k) for each nontrivial interval [v, w] and order index k on
    which the reflection-order matching is not complete and acyclic, in the
    order of :meth:`CoxeterSystem.comparable_pairs` and then of ``orders``.

    The route of :func:`build_matching` and :func:`is_acyclic` in whole-array
    steps, over blocks of intervals at once (:func:`_block_failures`), each
    order read from its :func:`partner_table`.  The peeling there reads
    every cover as one step of length, so that is checked once for the
    whole group: an interval that holds a cover skipping a length fails
    under every order.  Only the failing instances are returned;
    :func:`verify.check_matchings` re-runs them through the per-interval
    route, which names what went wrong."""
    bruhat, length, n = system.bruhat, system.length, system.size
    vs, ws = bruhat.nonzero()
    strict = vs != ws
    vs, ws = vs[strict], ws[strict]
    start, ups = system._up_start, system._up_ids
    lows = np.repeat(np.arange(n), np.diff(start))
    skips = length[ups] != length[lows] + 1
    skip_lo, skip_hi = lows[skips], ups[skips]
    # row x: the up-covers of x, padded with n
    above = np.full((n, int(np.diff(start).max(initial=0))), n, dtype=np.intp)
    above[lows, np.arange(len(ups)) - start[lows]] = ups
    tables = [partner_table(system, order) for order in orders]
    failing: list[tuple[int, int, int]] = []
    step = max(1, SWEEP_BLOCK_BYTES // (n + 1))
    for a in range(0, len(vs), step):
        v, w = vs[a:a + step], ws[a:a + step]
        member = interval_members(bruhat, v, w)
        bad = _block_failures(member, above, tables, length)
        bad |= (member[:, skip_lo] & member[:, skip_hi]).any(axis=1)
        i, k = np.nonzero(bad.T)
        failing += zip(vs[a + i].tolist(), ws[a + i].tolist(), k.tolist())
    return failing


def _block_failures(member: np.ndarray, above: np.ndarray, tables: list[np.ndarray],
                    length: np.ndarray) -> np.ndarray:
    """bad[k, i]: the matching of interval i, whose elements are row i of
    ``member``, is not complete and acyclic under ``tables[k]``.

    A position is an (interval, element) pair with the element in the
    interval, kept as its index into ``member``, flattened.  The inside
    covers y < h are read once from ``above``.  Then, per order:

    - the partner of each position is the first entry of its table row
      inside the interval (:func:`first_inside`); a position with none,
      or whose partner's partner is another position, fails its interval;
    - the V-path edges x -> y (see :func:`is_acyclic`) are the inside
      covers y < h with M(y) above y and M(h) = x != y below h, peeled
      by :func:`peel`; every interval that still holds an edge has a
      cycle."""
    size, width = member.shape
    member = member.reshape(-1)
    flat = np.flatnonzero(member)
    count = len(flat)
    interval, element = np.divmod(flat, width)
    base = flat - element
    position = np.zeros(len(member), dtype=np.intp)
    position[flat] = np.arange(count)
    ups = above[element] + base[:, None]
    y, j = np.nonzero(member[ups])
    h = position[ups[y, j]]
    bad = np.zeros((len(tables), size), dtype=bool)
    for table, failed in zip(tables, bad):
        # the partner's index into member; a position with none keeps its own
        mate = first_inside(table, member, element, base)
        none = mate < 0
        spot = np.where(none, flat, base + mate)
        partner = position[spot]
        failed[interval[none]] = True
        failed[interval[partner[partner] != np.arange(count)]] = True
        raised = length[spot - base] > length[element]
        keep = raised[y] & ~raised[h] & (partner[h] != y) & ~failed[interval[y]]
        src, _ = peel(partner[h[keep]], y[keep], count)
        failed[interval[src]] = True
    return bad


def peel(src: np.ndarray, dst: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges src[k] -> dst[k] between nodes 0 .. count - 1 that are
    left once no source remains to peel.  As in Kahn's topological sort,
    each round removes the edges whose source has no in-edge, until a
    round removes none.  An edge on a directed cycle is never removed,
    and each source of what is left has an in-edge that is left, so what
    is left is empty iff the edges have no directed cycle."""
    while src.size:
        held = np.bincount(dst, minlength=count)[src] > 0
        if held.all():
            break
        src, dst = src[held], dst[held]
    return src, dst


def v_path_cycle(dims: np.ndarray, partner: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[int, ...] | None:
    """A directed cycle of the Hasse digraph on the covers lo[k] < hi[k],
    with the pairs of ``partner`` (matched covers, or fixed points)
    oriented up and all other covers down, or None if there is none.

    The route of :func:`is_acyclic` in whole arrays: the V-path edges
    x -> y are the covers y < h with y matched up and h matched down to
    x = M(h) != y, and they are peeled by :func:`peel`.  Each cover reads
    only the per-cell masks ``raised`` and ``lowered`` (one byte a cover),
    and M(h) is gathered only at the candidate covers they leave.  If
    edges are left, walking back from the source of the first one along
    the first in-edge left at each node comes back to a node it passed;
    that cycle x0 -> x1 -> ..., from its least node, is the closed walk
    x0, M(x0), x1, M(x1), ..., x0."""
    mate_dims = dims[partner]
    raised, lowered = mate_dims > dims, mate_dims < dims
    at = np.flatnonzero(raised[lo] & lowered[hi])   # candidate covers, in cover order
    y, x = lo[at], partner[hi[at]]
    keep = x != y
    src, dst = peel(x[keep], y[keep], len(partner))
    if not src.size:
        return None
    into = dict(zip(dst.tolist()[::-1], src.tolist()[::-1]))   # the first in-edge wins
    walked, x = {}, int(src[0])
    while x not in walked:
        walked[x] = len(walked)
        x = into[x]
    cycle = list(walked)[walked[x]:][::-1]
    first = cycle.index(min(cycle))
    cycle = cycle[first:] + cycle[:first]
    return tuple(z for x in cycle for z in (x, int(partner[x]))) + (cycle[0],)


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
    return unmatched_summary(poset, fixed, counts)


def unmatched_summary(poset: FinitePoset, fixed: tuple[int, ...],
                      counts: dict[int, int]) -> MorseSummary:
    """The summary of an acyclic matching of ``poset`` whose unmatched
    cells ``fixed`` are ``counts[d]`` of each dim d, once their
    alternating sum is checked to be the Euler characteristic."""
    euler = euler_characteristic(poset)
    if sum((-1) ** d * c for d, c in counts.items()) != euler:
        raise TheoremFalsified(
            f"unmatched cells {[poset.names[x] for x in fixed]} (counts {counts}) disagree "
            f"with the Euler characteristic {euler}"
        )
    return MorseSummary(counts, fixed, True)


@dataclass(frozen=True)
class ShellingReport:
    coatom_prefixes: int
    atom_prefixes: int


# the set bits of each byte value, to read the elements of a mask a byte at a time
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _first_unpreserved_prefix(sets: Sequence[int], generators: Sequence[tuple[int, int]],
                              partner: Sequence[int]) -> tuple[int, int]:
    """(k, union) for the prefix unions U_k of the masks ``sets[x]`` over
    the first k (label, x) of ``generators``, k = 1 .. len - 1: k is the
    least one with U_k not closed under ``partner`` (0 if there is none),
    and union is the last U_k.  Each element is visited once, to record
    the first k whose U_k holds it; U_k is closed iff no z has
    first[z] <= k < first[partner[z]], so k is the least first[z] below
    first[partner[z]]."""
    last = len(generators)   # past every prefix
    first = [last] * len(partner)
    union = 0
    for k, (_, x) in enumerate(generators[:-1], 1):
        new = sets[x] & ~union
        union |= new
        base = 0
        for byte in new.to_bytes((new.bit_length() + 7) >> 3, "little"):
            for i in _BYTE_BITS[byte]:
                first[base + i] = k
            base += 8
    bad = [f for f, g in zip(first, map(first.__getitem__, partner)) if g > f]
    return min(bad, default=0), union


def verify_shelling_subsets(li: LabeledInterval, order: ReflectionOrder,
                            matching: Matching | None = None) -> ShellingReport:
    """Check the prefix-union structure of the matching.

    With coatoms w_1, ..., w_n of [v, w] ordered by increasing edge label,
    every union of the first k-1 lower intervals [v, w_i] must be preserved
    by the matching, and the complement of the union over i < n must be
    exactly [M(w), w]; dually for atoms and upper intervals.  The unions
    are read from the interval's lower and upper set masks, one sweep per
    side (:func:`_first_unpreserved_prefix`);
    :func:`oracles.oracle_shelling_subsets` is the prefix-by-prefix route."""
    if matching is None:
        matching = build_matching(li, order)
    rank, partner = order.rank, matching.partner
    coatoms = sorted(li.coatoms, key=lambda c: rank[c[0]])
    atoms = sorted(li.atoms, key=lambda a: rank[a[0]])

    def falsified(what: str) -> TheoremFalsified:
        system = li.system
        return TheoremFalsified(f"{what} in [{system.word_str(li.v)}, {system.word_str(li.w)}]")

    # unions of the first k lower intervals [v, w_i], k = 1 .. n-1, must be
    # preserved by the matching (the empty union trivially is); the
    # complement of the (n-1)-union is [M(w), w]
    k, union = _first_unpreserved_prefix(li.lower_sets, coatoms, partner)
    if k:
        raise falsified(f"coatom prefix union of {k} intervals is not an M-subset")
    if union ^ ((1 << li.poset.n) - 1) != li.upper_sets[partner[li.index[li.w]]]:
        raise falsified("complement of the coatom prefix unions is not [M(w), w]")
    k, _ = _first_unpreserved_prefix(li.upper_sets, atoms, partner)
    if k:
        raise falsified(f"atom prefix union of {k} intervals is not an M-subset")
    return ShellingReport(len(coatoms), len(atoms))
