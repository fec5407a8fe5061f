"""Face posets of totally nonnegative Springer fibers and their matchings.

For disjoint generator subsets J, J' the poset Z collects pairs (v, w) with
v <= w, every i in J a left descent of w with v not below s_i w, and every
j in J' a left ascent of v with s_j v not below w.  A reflection order with
T cap W_J' first and T cap W_J last induces, slice by slice in v, a
matching on Z whose only unmatched element is (w_J' w0, w_J' w0); counting
unmatched cells then certifies contractibility of the realizing complex.
The matching of [v, w0] is read only on the slice Z_v = P_v cap Q_v and
on the supersets P_v and Q_v that it must preserve.

One pass over blocks of rows of the candidate v (:func:`_block_pass`)
gives the rows of P_v, Q_v and Z_v (:func:`build_slices`, their one
definition) and, on the same rows in whole arrays, the cells of Z and
each cell's partner in its slice, read and checked to preserve P_v, Q_v
and Z_v and to be an involution by the one slice check, which fibers and
``--paranoid`` share (:func:`cells.slice_mates`).  As Z packs no order,
the pass prices its cells at ``CELL_BYTES`` and refuses Z (exit 2) at
the first block past ``posets.MAX_ORDER_BYTES``.  Z
is a lower set of the nesting poset of pairs (the totally nonnegative
Springer fiber is a closed union of cells): its covers are the single
steps between cells, found and checked by the step rule in whole arrays
(:func:`cells.step_cover_arrays`), which proves that lower-set property;
each joins adjacent dims, so a cover across slices fixes w and moves v
by one length.  Z keeps them as sorted int arrays, and its dims as an
int array (:class:`posets.CoverArrayPoset`); its cover
tuples, cell tuples and cell index are built only for what reads them.
The matching is checked on those arrays, as :func:`cells.checked_matching`
checks a fiber's, in the same order and words: the matched pairs must be
covers, the V-path peel (:func:`matchings.v_path_cycle`, which the
interval sweep shares) must leave no cycle, and the apex must be the
only unmatched cell (:func:`springer_matching`).  This is the only
route: each array test names its own first failure, worded as for
fibers, and a failure of the slices waits in
:attr:`SpringerPoset.failure` for :func:`springer_matching`.
:func:`cells.check_against_pair_poset` rebuilds Z by
:func:`cells.pair_poset` as an oracle route.  ``springer --paranoid``
also runs the slice check on this module's table on all of each
[v, w0] against :func:`oracles.oracle_slice_partners`, and the peel's
verdict against :func:`oracles.oracle_directed_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import cells, posets
from .cells import _not_a_cover, _not_only_the_apex, pair_name, step_cover_arrays
from .cells import pair_poset  # noqa: F401  (perfbench patches springer.pair_poset)
from .coxeter import CoxeterSystem
from .errors import CoxmorseError, CyclicMatching, OrderTooLarge, OverlappingSubsets, TheoremFalsified
from .matchings import Matching, MorseSummary, partner_table, unmatched_summary, v_path_cycle
from .posets import CoverArrayPoset, FinitePoset
from .reflection_orders import order_for_springer

# Peak RSS a cell of Z costs, build and matching, over the RSS before the
# build, for J = J' = {} unless named: 289-297 B on A5 (98407 cells), 356 B
# on F4 (396809) and 315-316 B on H4 J = {3}, J' = {4} (1147017), the
# largest H4 pair the budget admits at this price; the maximum, rounded up
# to 50 B (tracemalloc: 240 B on A5, 273 B on F4)
CELL_BYTES = 400


@dataclass(frozen=True)
class SpringerPoset:
    system: CoxeterSystem
    J: frozenset[int]
    Jprime: frozenset[int]
    poset: FinitePoset   # its payload: the pairs (v, w)
    # the cell (w_J' w0, w_J' w0), or None if it is missing
    apex_cell: int | None
    # the partner of each cell in the matching, as the block pass read it,
    # or None where a test of the slices failed, and then that failure,
    # which springer_matching raises
    partner: np.ndarray | None = field(compare=False, repr=False)
    failure: CoxmorseError | None = field(compare=False, repr=False)

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        return self.poset.payload

    @property
    def index(self) -> Mapping[tuple[int, int], int]:
        return self.poset.index

    @property
    def apex(self) -> int:
        """Element id of w_J' w0."""
        return _apex(self.system, self.Jprime)

    @property
    def what(self) -> str:
        return _what(self.J, self.Jprime)


def _apex(system: CoxeterSystem, Jprime) -> int:
    return system.mul(system.longest(Jprime), system.w0)


def build_slices(system: CoxeterSystem, J, Jprime,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, z): row k of the boolean arrays p, q and z over all of W is
    P_v, Q_v and Z_v = P_v cap Q_v for v = v[k], a v with every j in J'
    a left ascent.  P_v is [v, w0] without the w with s_j v <= w for a j
    in J', Q_v is [v, w0] without the w with v <= s_i w for an i in J
    (which leaves only w with every i in J a left descent).  Without
    conditions, P_v or Q_v is the row of [v, w0] itself, and then z is
    the other."""
    b, left = system.bruhat, system.left
    above = b.rows(v)                                   # [k, w]: v_k <= w
    p = above.copy() if Jprime else above
    for j in Jprime:
        np.greater(p, b.rows(left[v, j - 1]), out=p)    # and not s_j v_k <= w
    q = above.copy() if J else above
    for i in J:
        np.greater(q, above[:, left[:, i - 1]], out=q)  # and not v_k <= s_i w
    return p, q, (p & q if J and Jprime else q if J else p)


def _block_pass(system: CoxeterSystem, J, Jprime, what: str):
    """(v, w, mate, failure): the cells (v, w) of Z sorted by (v, w), the
    partner (v, mate) of each in its slice's matching ((v, w) itself for
    the apex cell, and past a failure), and the first failure of an array
    test of the slices, or None.

    The candidate v, those with every j in J' a left ascent, are taken in
    blocks of at most 1 MiB of unpacked rows, each block's rows of P_v,
    Q_v and Z_v from one :func:`build_slices` call.  The running count of
    cells is priced at ``CELL_BYTES`` a cell, and the first block past
    ``posets.MAX_ORDER_BYTES`` raises :class:`OrderTooLarge` before its
    cells are kept.  Until a block fails, the partners of a block are read
    and checked on P_v (unless J' is empty), Q_v (unless J is empty) and
    Z_v by the slice check that fibers share (:func:`cells.slice_mates`),
    from the :func:`matchings.partner_table` of
    :func:`reflection_orders.order_for_springer`, built at the first
    block.  The apex slice is not matched: a second cell there is left
    unmatched, which :func:`springer_matching` refuses."""
    n, apex, left, length = system.size, _apex(system, Jprime), system.left, system.length
    v_ok = np.ones(n, dtype=bool)
    for j in Jprime:
        v_ok &= length[left[:, j - 1]] > length
    candidates = np.flatnonzero(v_ok)                        # e is always one
    step = max(1, (1 << 20) // n)
    table, failure, count, kept = None, None, 0, []
    for start in range(0, len(candidates), step):
        v = candidates[start:start + step]
        p, q, z = build_slices(system, J, Jprime, v)
        count += int(np.count_nonzero(z))
        if count * CELL_BYTES > posets.MAX_ORDER_BYTES:
            raise OrderTooLarge(
                f"springer pair poset has {count} cells up to v={system.word_str(int(v[-1]))}, "
                f"which at {CELL_BYTES} B a cell need {count * CELL_BYTES / 2**20:.0f} MiB, "
                f"above the limit of {posets.MAX_ORDER_BYTES / 2**20:.0f} MiB")
        k, w = np.divmod(np.flatnonzero(z), n)               # 2-D nonzero is slow
        mate = w
        if failure is None:
            if table is None:
                table = partner_table(system, order_for_springer(system, Jprime, J))
            checked = [(label, rows) for label, rows, conditions
                       in (("P_v", p, Jprime), ("Q_v", q, J), ("slice", z, True)) if conditions]
            r, y, m, failure = cells.slice_mates(system, v, system.w0, checked, table, what, apex)
            if failure is None:
                mate, off = w.copy(), v[k] != apex
                mate[off] = m[np.searchsorted(r * n + y, k[off] * n + w[off])]
        kept.append((v[k], w, mate))
    v, w, mate = (np.concatenate(part) for part in zip(*kept))
    return v, w, mate, failure


def build_springer_poset(system: CoxeterSystem, J, Jprime) -> SpringerPoset:
    """Z from one block pass (:func:`_block_pass`): its cells numbered by
    (dimension l(w) - l(v), v, w) and its covers the single steps between
    them (:func:`cells.step_cover_arrays`), each checked to join adjacent
    dims, kept as arrays.  Both ends of each cell are checked to lie in
    W^{J'}.  The first failure of the slices is kept for
    :func:`springer_matching`: at the least v, a cell whose partner
    (v, mate) is no cell, else the block pass's.  Without one, the
    partner of each cell is the number of its (v, mate)."""
    J = system.check_subset(J)
    Jprime = system.check_subset(Jprime)
    if J & Jprime:
        raise OverlappingSubsets(f"J and J' overlap: {sorted(J & Jprime)}")
    what = _what(J, Jprime)
    v, w, mate, failure = _block_pass(system, J, Jprime, what)
    n, length = system.size, system.length
    key, dims = v * n + w, length[w] - length[v]             # key ascending
    by = np.argsort(dims, kind="stable")                     # (dim, v, w)
    v, w, mate, dims = v[by], w[by], mate[by], dims[by]
    lo, hi = step_cover_arrays(system, v, w, "springer pair poset")
    # raises at a cover that skips a dim
    poset = CoverArrayPoset(dims, None, lo, hi,
                                          lambda: tuple(zip(v.tolist(), w.tolist())),
                                          lambda pair: pair_name(system, pair))
    _check_membership_invariants(system, Jprime, v, w)
    apex = _apex(system, Jprime)
    at_apex = np.flatnonzero((v == apex) & (w == apex))
    apex_cell = int(at_apex[0]) if at_apex.size else None
    to = np.searchsorted(key, v * n + mate)
    lost = v[key.take(to, mode="clip") != v * n + mate]      # (v, mate) is no cell
    if lost.size:   # so the cells at v are not the slice Z_v
        failure = TheoremFalsified(f"slice Z_v at v={system.word_str(int(lost.min()))} is not "
                                   f"the intersection of P_v and Q_v (J={sorted(J)}, "
                                   f"J'={sorted(Jprime)})")
    if failure is not None:
        return SpringerPoset(system, J, Jprime, poset, apex_cell, None, failure)
    rank = np.empty_like(by)
    rank[by] = np.arange(len(by))
    return SpringerPoset(system, J, Jprime, poset, apex_cell, rank[to], None)


def _what(J, Jprime) -> str:
    return f"springer pair poset (J={sorted(J)}, J'={sorted(Jprime)})"


def _check_membership_invariants(system: CoxeterSystem, Jprime, v: np.ndarray,
                                 w: np.ndarray) -> None:
    """Both ends of every cell (v[k], w[k]) lie in W^{J'}, the minimal
    left coset representatives of J' (the lifting property): neither has
    a left descent in J'.  The covers need no check here: the step rule
    makes only covers that fix w or fix v, each proved to join adjacent
    dims, so a cover across slices fixes w and moves v by one length."""
    bits = system.left_descent_bits
    mask = sum(1 << (j - 1) for j in Jprime)
    bad = np.flatnonzero((bits[v] | bits[w]) & mask)
    if bad.size:
        x, y = int(v[bad[0]]), int(w[bad[0]])
        raise TheoremFalsified(
            f"member ({system.word_str(x)}, {system.word_str(y)}) leaves the "
            f"minimal coset representatives of J'={sorted(Jprime)}"
        )


def _check_matched_covers(poset: CoverArrayPoset, partner: np.ndarray, what: str) -> None:
    """Every matched pair i < partner[i] is a cover of ``poset``: its key
    i n + partner[i] is found among the cover keys lo n + hi, which
    ascend with the covers.  The keys are built in place and dropped on
    return, before :func:`matchings.v_path_cycle` allocates its own."""
    n = poset.n
    lo, hi = poset.cover_arrays
    # cells are numbered by dim, so a cover lo < hi has lo < hi as numbers
    i = np.flatnonzero(partner > np.arange(n))
    pairs = i * n + partner[i]
    covers = lo * n
    covers += hi
    bad = np.flatnonzero(covers.take(np.searchsorted(covers, pairs), mode="clip") != pairs)
    if bad.size:
        raise _not_a_cover(poset, int(i[bad[0]]), int(partner[i[bad[0]]]), what)


def springer_matching(sp: SpringerPoset) -> tuple[Matching, MorseSummary]:
    """The matching on Z with the partners of the block pass
    (:attr:`SpringerPoset.partner`), checked as
    :func:`cells.checked_matching` checks the matching of a fiber, in the
    same order and words, but in whole arrays on Z's cover arrays: every
    matched pair is a cover, the matching is acyclic (the V-path peel of
    :func:`matchings.v_path_cycle`), the unmatched cells agree with the
    Euler characteristic, and the apex is the only one, so the apex slice
    is {w_J' w0}.  Where a test of the slices failed, that failure
    (:attr:`SpringerPoset.failure`) is raised instead."""
    if sp.failure is not None:
        raise sp.failure
    if sp.apex_cell is None:
        raise TheoremFalsified("apex pair is missing from the pair poset")
    poset, partner, apex = sp.poset, np.asarray(sp.partner), sp.apex_cell
    n, dims = poset.n, poset.dims
    _check_matched_covers(poset, partner, sp.what)
    cycle = v_path_cycle(dims, partner, *poset.cover_arrays)
    if cycle is not None:
        raise CyclicMatching(f"matching has a directed cycle: {cycle}")
    fixed = np.flatnonzero(partner == np.arange(n))
    counts = {d: c for d, c in enumerate(np.bincount(dims[fixed]).tolist()) if c}
    summary = unmatched_summary(poset, tuple(fixed.tolist()), counts)
    if summary.unmatched != (apex,):
        raise _not_only_the_apex(poset, summary.unmatched, apex, sp.what)
    return Matching(poset, tuple(partner.tolist())), summary
