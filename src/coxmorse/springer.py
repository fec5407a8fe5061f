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
each cell's partner in its slice (:func:`cells.slice_partner_arrays`),
checked there to preserve P_v, Q_v and Z_v and to be an involution.  Z
is a lower set of the nesting poset of pairs (the totally nonnegative
Springer fiber is a closed union of cells): its covers are the single
steps between cells, found and checked by the step rule in whole arrays
(:func:`cells.step_cover_arrays`), which proves that lower-set property;
each joins adjacent dims, so a cover across slices fixes w and moves v
by one length.  The matched pairs must be covers and the apex the only
unmatched cell (:func:`cells.checked_matching`).  This is the only
route: each array test names its own first failure, worded as for
fibers, and a failure of the slices waits in
:attr:`SpringerPoset.failure` for :func:`springer_matching`.
:func:`cells.check_against_pair_poset` rebuilds Z by
:func:`cells.pair_poset` as an oracle route, and ``springer --paranoid``
runs this module's reader on all of each [v, w0] against the matching of
the whole interval (:func:`oracles.oracle_slice_partners`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

import numpy as np

from . import posets
from .cells import (_isolated, _not_an_involution, _not_preserved, checked_matching, pair_name,
                    slice_partner_arrays, step_cover_arrays)
from .cells import pair_poset  # noqa: F401  (perfbench patches springer.pair_poset)
from .coxeter import CoxeterSystem
from .errors import CoxmorseError, OverlappingSubsets, TheoremFalsified
from .matchings import Matching, MorseSummary, partner_table
from .posets import FinitePoset
from .reflection_orders import order_for_springer


@dataclass(frozen=True)
class SpringerPoset:
    system: CoxeterSystem
    J: frozenset[int]
    Jprime: frozenset[int]
    poset: FinitePoset   # its payload: the pairs (v, w)
    # the partner of each cell in the matching, as the block pass read it,
    # or None where a test of the slices failed, and then that failure,
    # which springer_matching raises
    partner: tuple[int, ...] | None = field(compare=False, repr=False)
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
    Q_v and Z_v from one :func:`build_slices` call.  The cells of a block
    are counted first and kept only while n packed rows, the order that
    the ``--paranoid`` oracle :func:`cells.check_against_pair_poset`
    packs, fit ``posets.MAX_ORDER_BYTES``.  The partners of a kept block
    are read from the :func:`matchings.partner_table` of
    :func:`reflection_orders.order_for_springer`, built at the first kept
    block (:func:`_block_mates`), until a block fails."""
    n, apex, left, length = system.size, _apex(system, Jprime), system.left, system.length
    v_ok = np.ones(n, dtype=bool)
    for j in Jprime:
        v_ok &= length[left[:, j - 1]] > length
    candidates = np.flatnonzero(v_ok)
    step = max(1, (1 << 20) // n)
    table, failure, count, kept = None, None, 0, []
    for start in range(0, len(candidates), step):
        v = candidates[start:start + step]
        p, q, z = build_slices(system, J, Jprime, v)
        count += int(np.count_nonzero(z))
        if count * ((count + 7) // 8) > posets.MAX_ORDER_BYTES:
            continue
        k, w = np.divmod(np.flatnonzero(z), n)               # 2-D nonzero is slow
        mate = w
        if failure is None:
            if table is None:
                table = partner_table(system, order_for_springer(system, Jprime, J))
            checked = [(label, rows) for label, rows, conditions
                       in (("P_v", p, Jprime), ("Q_v", q, J), ("slice", z, True)) if conditions]
            mate, failure = _block_mates(system, v, checked, table, apex, k, w, what)
        kept.append((v[k], w, mate))
    posets.check_order_size(count, "springer pair poset")
    if not kept:
        return (np.zeros(0, dtype=np.intp),) * 3 + (failure,)
    v, w, mate = (np.concatenate(part) for part in zip(*kept))
    return v, w, mate, failure


def _block_mates(system: CoxeterSystem, v: np.ndarray, checked: list[tuple[str, np.ndarray]],
                 table: np.ndarray, apex: int, k: np.ndarray, w: np.ndarray, what: str):
    """(mate, None): the partner of each cell (v[k], w) of one block in
    the matching of [v, w0] (:func:`cells.slice_partner_arrays`), w
    itself at the apex; or (w, failure) at the least v where an array
    test of the slices fails.  At that v an isolated element comes
    first, then the first checked set that the matching does not
    preserve, then a break of the involution, each at its least y, in the
    order :func:`cells.slice_matching` checks a fiber's slice.
    ``checked`` holds the block's labeled rows of P_v (unless J' is
    empty), Q_v (unless J is empty) and Z_v.  Each checked y of each v
    but the apex gets its partner M(y).  As for fibers, only the v with a
    nonempty slice are matched; a second cell of the apex slice is left
    unmatched, which :func:`springer_matching` refuses."""
    n, w0 = system.size, system.w0
    sets = [rows for _, rows in checked]
    # Z_v lies in P_v and in Q_v, so the first two sets hold every checked y
    union = sets[0] | sets[1] if len(sets) == 3 else sets[0]
    r, y = np.divmod(np.flatnonzero(union), n)
    matched = (sets[-1].any(axis=1) & (v != apex))[r]      # the apex slice is not matched
    r, y = r[matched], y[matched]
    m = slice_partner_arrays(system, v[r], y, table)
    key = r * n + y
    # where the sets are preserved, M(y) is checked too and found among the keys
    back = m.take(np.searchsorted(key, r * n + m), mode="clip")
    tests = [m < 0, *(rows[r, y] & ~rows[r, m] for rows in sets), back != y]
    failed = [(r[at], t, at) for t, bad in enumerate(tests) for at in np.flatnonzero(bad)[:1]]
    if not failed:
        at_apex = v[k] == apex
        mate = w.copy()
        mate[~at_apex] = m[np.searchsorted(key, k[~at_apex] * n + w[~at_apex])]
        return mate, None
    row, t, at = min(failed)                                # least v, then the test order
    x = int(v[row])
    if t == 0:
        return w, _isolated(system, x, w0, int(y[at]))
    if t <= len(sets):
        return w, _not_preserved(system, x, w0, checked[t - 1][0], what)
    return w, _not_an_involution(system, x, w0, (int(y[at]), int(m[at]), int(back[at])), what)


def build_springer_poset(system: CoxeterSystem, J, Jprime) -> SpringerPoset:
    """Z from one block pass (:func:`_block_pass`): its cells numbered by
    (dimension l(w) - l(v), v, w) and its covers the single steps between
    them (:func:`cells.step_cover_arrays`), each checked to join adjacent
    dims.  Both ends of each cell are checked to lie in W^{J'}.  The
    first failure of the slices is kept for :func:`springer_matching`: at
    the least v, a cell whose partner (v, mate) is no cell, else the
    block pass's.  Without one, the partner of each cell is the number
    of its (v, mate)."""
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
    members = tuple(zip(v.tolist(), w.tolist()))
    ids = np.arange(len(v)).astype(object)   # one int object per cell, shared by the covers
    poset = FinitePoset(tuple(dims.tolist()), None,
                        tuple(zip(ids[lo].tolist(), ids[hi].tolist(), repeat(None))),
                        members, dict(zip(members, ids.tolist())),
                        lambda pair: pair_name(system, pair))
    poset.graded_adjacency   # raises at a cover that skips a dim
    _check_membership_invariants(system, Jprime, v, w)
    to = np.searchsorted(key, v * n + mate)
    lost = v[key.take(to, mode="clip") != v * n + mate]      # (v, mate) is no cell
    if lost.size:   # so the cells at v are not the slice Z_v
        failure = TheoremFalsified(f"slice Z_v at v={system.word_str(int(lost.min()))} is not "
                                   f"the intersection of P_v and Q_v (J={sorted(J)}, "
                                   f"J'={sorted(Jprime)})")
    if failure is not None:
        return SpringerPoset(system, J, Jprime, poset, None, failure)
    rank = np.empty_like(by)
    rank[by] = np.arange(len(by))
    return SpringerPoset(system, J, Jprime, poset, tuple(rank[to].tolist()), None)


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


def springer_matching(sp: SpringerPoset) -> tuple[Matching, MorseSummary]:
    """The matching on Z with the partners of the block pass
    (:attr:`SpringerPoset.partner`), checked by
    :func:`cells.checked_matching` as the matching of a fiber is: the
    apex is the only unmatched cell, so the apex slice is {w_J' w0}.
    Where a test of the slices failed, that failure
    (:attr:`SpringerPoset.failure`) is raised instead."""
    if sp.failure is not None:
        raise sp.failure
    if (sp.apex, sp.apex) not in sp.index:
        raise TheoremFalsified("apex pair is missing from the pair poset")
    return checked_matching(sp.poset, sp.partner, sp.index[(sp.apex, sp.apex)], sp.what)
