"""Face posets of totally nonnegative Springer fibers and their matchings.

For disjoint generator subsets J, J' the poset Z collects pairs (v, w) with
v <= w, every i in J a left descent of w with v not below s_i w, and every
j in J' a left ascent of v with s_j v not below w.  A reflection order with
T cap W_J' first and T cap W_J last induces, slice by slice in v, a
matching on Z whose only unmatched element is (w_J' w0, w_J' w0); counting
unmatched cells then certifies contractibility of the realizing complex.
The matching of [v, w0] is read only on the slice Z_v = P_v cap Q_v and
on the supersets P_v and Q_v that it must preserve.

One pass over blocks of rows of the candidate v (:func:`_slice_rows`)
gives the rows of P_v, Q_v and Z_v, and on the same rows, in whole
arrays (:func:`_block_pass`), the cells of Z and each cell's partner in
its slice (:func:`cells.slice_partner_arrays`), whose preservation of
P_v, Q_v and Z_v and involution are checked there.  Z is a lower set of
the nesting poset of pairs (the totally nonnegative Springer fiber is a
closed union of cells): its covers are the single steps between cells,
found and checked by the step rule in whole arrays
(:func:`cells.step_cover_arrays`), which proves that lower-set property
and that every cover joins adjacent dims, so a cover across slices fixes
w and moves v by one length.  The matched pairs must be covers and the
apex the only unmatched cell.  Where an array test fails, the per-cell
route (:func:`cells.ideal_poset`) and the per-slice route
(:func:`springer_slices`, :func:`build_slices`,
:func:`cells.slice_matching`) run on the same cells and name the
failure.  :func:`cells.check_against_pair_poset` rebuilds Z by
:func:`cells.pair_poset` as an oracle route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Mapping

import numpy as np

from . import posets
from .cells import (ideal_poset, pair_name, slice_matching, slice_partner_arrays,
                    step_cover_arrays)
from .cells import pair_poset  # noqa: F401  (perfbench patches springer.pair_poset)
from .coxeter import CoxeterSystem
from .errors import Falsification, NotMinimalCosetRep, OverlappingSubsets, TheoremFalsified
from .matchings import Matching, MorseSummary, morse_counts, partner_table
from .posets import FinitePoset
from .reflection_orders import ReflectionOrder, order_for_springer


@dataclass(frozen=True)
class SpringerPoset:
    system: CoxeterSystem
    J: frozenset[int]
    Jprime: frozenset[int]
    poset: FinitePoset   # its payload: the pairs (v, w)
    # the partner of each cell in the matching, as the block pass read it,
    # or None where an array test of the slices failed
    partner: tuple[int, ...] | None = field(compare=False, repr=False)

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
        return f"springer pair poset (J={sorted(self.J)}, J'={sorted(self.Jprime)})"

    @cached_property
    def slice_members(self) -> dict[int, list[int]]:
        """The slice Z_v = {w : (v, w) in Z} of each v, ascending."""
        out: dict[int, list[int]] = {}
        for v, w in self.members:
            out.setdefault(v, []).append(w)
        for ws in out.values():
            ws.sort()
        return out


def _apex(system: CoxeterSystem, Jprime) -> int:
    return system.mul(system.longest(Jprime), system.w0)


def _slice_rows(system: CoxeterSystem, J, Jprime):
    """(v, p, q, z) for blocks of the candidate v, those with every j in
    J' a left ascent, of at most 1 MiB of unpacked rows each: row k of
    the boolean arrays p, q and z over all of W is P_v, Q_v and
    Z_v = P_v cap Q_v for v = v[k].  P_v is [v, w0] without the w with
    s_j v <= w for a j in J', Q_v is [v, w0] without the w with
    v <= s_i w for an i in J (which leaves only w with every i in J a
    left descent).  Without conditions, P_v or Q_v is the row of
    [v, w0] itself, and then z is the other."""
    b, left, length = system.bruhat, system.left, system.length
    v_ok = np.ones(system.size, dtype=bool)
    for j in Jprime:
        v_ok &= length[left[:, j - 1]] > length
    candidates = np.flatnonzero(v_ok)
    step = max(1, (1 << 20) // system.size)
    for start in range(0, len(candidates), step):
        v = candidates[start:start + step]
        above = b.rows(v)                                   # [k, w]: v_k <= w
        p = above.copy() if Jprime else above
        for j in Jprime:
            np.greater(p, b.rows(left[v, j - 1]), out=p)    # and not s_j v_k <= w
        q = above.copy() if J else above
        for i in J:
            np.greater(q, above[:, left[:, i - 1]], out=q)  # and not v_k <= s_i w
        yield v, p, q, (p & q if J and Jprime else q if J else p)


def _block_pass(system: CoxeterSystem, J, Jprime):
    """(v, w, mate, sliced): the cells (v, w) of Z sorted by (v, w), the
    partner (v, mate) of each in its slice's matching ((v, w) itself for
    the apex cell), and whether every array test of the slices held.

    The cells of each block of :func:`_slice_rows` are counted first and
    kept only while n packed rows, the order that the ``--paranoid``
    oracle :func:`cells.check_against_pair_poset` packs, fit
    ``posets.MAX_ORDER_BYTES``.  The partners of a kept block are read
    from the :func:`matchings.partner_table` of
    :func:`reflection_orders.order_for_springer`, built at the first kept
    block (:func:`_block_mates`)."""
    n, apex = system.size, _apex(system, Jprime)
    table, sliced, count, kept = None, True, 0, []
    for v, p, q, z in _slice_rows(system, J, Jprime):
        count += int(np.count_nonzero(z))
        if count * ((count + 7) // 8) > posets.MAX_ORDER_BYTES:
            continue
        k, w = np.divmod(np.flatnonzero(z), n)               # 2-D nonzero is slow
        mate = None
        if sliced:
            if table is None:
                table = partner_table(system, order_for_springer(system, Jprime, J))
            checked = [rows for rows, conditions in ((p, Jprime), (q, J)) if conditions]
            mate = _block_mates(system, v, [*checked, z], table, apex, k, w)
            sliced = mate is not None
        kept.append((v[k], w, w if mate is None else mate))
    posets.check_order_size(count, "springer pair poset")
    if not kept:
        return (np.zeros(0, dtype=np.intp),) * 3 + (sliced,)
    v, w, mate = (np.concatenate(part) for part in zip(*kept))
    return v, w, mate, sliced


def _block_mates(system: CoxeterSystem, v: np.ndarray, checked: list[np.ndarray],
                 table: np.ndarray, apex: int, k: np.ndarray, w: np.ndarray):
    """The partner of each cell (v[k], w) of one block, in the matching of
    [v, w0] (:func:`cells.slice_partner_arrays`), w itself at the apex, or
    None where an array test of the slices fails.  ``checked`` holds the
    block's rows of P_v (unless J' is empty), Q_v (unless J is empty) and
    Z_v.  Each checked y of each v but the apex gets its partner M(y); M
    must preserve each checked set and be an involution there.  As in
    :func:`springer_slices`, only the v with a nonempty slice are
    matched; a second cell of the apex slice is left unmatched, which
    :func:`_checked_partners` refuses."""
    n = system.size
    # Z_v lies in P_v and in Q_v, so the first two sets hold every checked y
    union = checked[0] | checked[1] if len(checked) == 3 else checked[0]
    r, y = np.divmod(np.flatnonzero(union), n)
    matched = (checked[-1].any(axis=1) & (v != apex))[r]   # the apex slice is not matched
    r, y = r[matched], y[matched]
    m = slice_partner_arrays(system, v[r], y, table)
    if (m < 0).any():
        return None
    for rows in checked:
        inside = rows[r, y]
        if not rows[r[inside], m[inside]].all():
            return None
    # M(y) is checked too, so it is found among the ascending keys
    key = r * n + y
    if (m[np.searchsorted(key, r * n + m)] != y).any():
        return None
    at_apex = v[k] == apex
    mate = w.copy()
    mate[~at_apex] = m[np.searchsorted(key, k[~at_apex] * n + w[~at_apex])]
    return mate


def build_springer_poset(system: CoxeterSystem, J, Jprime) -> SpringerPoset:
    """Z from one block pass (:func:`_block_pass`): its cells numbered by
    (dimension l(w) - l(v), v, w) and its covers the single steps between
    them (:func:`cells.step_cover_arrays`).  Where the arrays refuse the
    cells, the per-cell route :func:`cells.ideal_poset` names why, and
    if it passes them, :class:`Falsification` names both routes.  Both
    ends of each cell are checked to lie in W^{J'}, and the matching's
    partners to join covers with only the apex cell left unmatched."""
    J = system.check_subset(J)
    Jprime = system.check_subset(Jprime)
    if J & Jprime:
        raise OverlappingSubsets(f"J and J' overlap: {sorted(J & Jprime)}")
    what = "springer pair poset"
    v, w, mate, sliced = _block_pass(system, J, Jprime)
    n, length = system.size, system.length
    key, dims = v * n + w, length[w] - length[v]             # key ascending
    by = np.argsort(dims, kind="stable")                     # (dim, v, w)
    v, w, mate, dims = v[by], w[by], mate[by], dims[by]
    steps = step_cover_arrays(system, v, w)
    if steps is None:
        ideal_poset(system, list(zip(v.tolist(), w.tolist())), what)
        raise Falsification(f"the array step rule refuses the {what} (J={sorted(J)}, "
                            f"J'={sorted(Jprime)}), but the per-cell route passes it")
    lo, hi = steps
    members = tuple(zip(v.tolist(), w.tolist()))
    ids = np.arange(len(v)).astype(object)   # one int object per cell, shared by the covers
    poset = FinitePoset(tuple(dims.tolist()), None,
                        tuple(zip(ids[lo].tolist(), ids[hi].tolist(), repeat(None))),
                        members, dict(zip(members, ids.tolist())),
                        lambda pair: pair_name(system, pair))
    _check_membership_invariants(system, Jprime, v, w)
    partner = None
    to = np.searchsorted(key, v * n + mate)
    if sliced and (key.take(to, mode="clip") == v * n + mate).all():   # (v, mate) are cells
        rank = np.empty_like(by)
        rank[by] = np.arange(len(by))
        partner = _checked_partners(poset, rank[to], lo, hi, _apex(system, Jprime))
    return SpringerPoset(system, J, Jprime, poset, partner)


def _checked_partners(poset: FinitePoset, partner: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, apex: int) -> tuple[int, ...] | None:
    """``partner`` as a tuple if each matched pair is a cover (lo, hi) of
    ``poset`` and the apex cell is the only one matched to itself, else
    None.  A matched pair lies in one slice, so its lower end has the
    lower dim and the smaller number."""
    cell = np.arange(poset.n)
    a, b = np.minimum(cell, partner), np.maximum(cell, partner)
    matched = a < b
    pairs = a[matched] * poset.n + b[matched]
    # the keys lo n + hi of the covers, ascending, then one past every pair
    covers = np.append(lo * poset.n + hi, poset.n ** 2)
    if (covers[np.searchsorted(covers, pairs)] != pairs).any():
        return None
    if np.flatnonzero(~matched).tolist() != [poset.index.get((apex, apex))]:
        return None
    return tuple(partner.tolist())


def _check_membership_invariants(system: CoxeterSystem, Jprime, v: np.ndarray,
                                 w: np.ndarray) -> None:
    """Both ends of every cell (v[k], w[k]) lie in W^{J'}, the minimal
    left coset representatives of J' (the lifting property): neither has
    a left descent in J'.  The covers need no check here: the step rule
    makes only covers that fix w or fix v, and has proved that each
    joins adjacent dims, so a cover across slices fixes w and moves v by
    one length."""
    bits = system.left_descent_bits
    mask = sum(1 << (j - 1) for j in Jprime)
    bad = np.flatnonzero((bits[v] | bits[w]) & mask)
    if bad.size:
        x, y = int(v[bad[0]]), int(w[bad[0]])
        raise TheoremFalsified(
            f"member ({system.word_str(x)}, {system.word_str(y)}) leaves the "
            f"minimal coset representatives of J'={sorted(Jprime)}"
        )


def build_slices(sp: SpringerPoset, v: int) -> tuple[list[int], list[int], list[int]]:
    """The slice Z_v = {w : (v, w) in Z} together with the supersets
    P_v (ascent conditions for J') and Q_v (descent conditions for J);
    Z_v = P_v cap Q_v is checked.  P_v (for J' empty) and Q_v (for J
    empty) are all of [v, w0], as they start from it and no condition
    removes an element."""
    system = sp.system
    if system.descents(v, "left") & sp.Jprime:
        raise NotMinimalCosetRep(
            f"{system.word_str(v)} has a left descent in J'={sorted(sp.Jprime)}"
        )
    b, left = system.bruhat, system.left
    above = b.rows(v)
    p_v = above.copy() if sp.Jprime else above
    for j in sp.Jprime:
        np.greater(p_v, b.rows(left[v, j - 1]), out=p_v)   # and not s_j v <= w
    q_v = above.copy() if sp.J else above
    for i in sp.J:
        np.greater(q_v, above[left[:, i - 1]], out=q_v)    # and not v <= s_i w
    z_v = sp.slice_members.get(v, [])
    if z_v != (p_v & q_v).nonzero()[0].tolist():
        raise TheoremFalsified(
            f"slice Z_v at v={system.word_str(v)} is not the intersection of P_v and Q_v "
            f"(J={sorted(sp.J)}, J'={sorted(sp.Jprime)})"
        )
    return z_v, p_v.nonzero()[0].tolist(), q_v.nonzero()[0].tolist()


def springer_slices(sp: SpringerPoset) -> tuple[list[tuple], ReflectionOrder, int, str]:
    """What :func:`cells.slice_matching` assembles the matching on Z from:
    the slices, the reflection order, the apex cell and the poset's name.

    Each v with a nonempty slice, except the apex, gives the slice
    (v, w0, subsets, Z_v) of [v, w0], under a reflection order with
    T cap W_J' first and T cap W_J last
    (:func:`reflection_orders.order_for_springer`).  The subsets are P_v
    unless J' is empty and Q_v unless J is empty: the other is all of
    [v, w0] (:func:`build_slices`).  The apex slice must be the singleton
    {w_J' w0}."""
    system = sp.system
    order = order_for_springer(system, sp.Jprime, sp.J)
    apex = sp.apex
    if (apex, apex) not in sp.index:
        raise TheoremFalsified("apex pair is missing from the pair poset")
    slices = []
    for v in sorted(sp.slice_members):
        z_v, p_v, q_v = build_slices(sp, v)
        if v != apex:
            subsets = [(label, subset) for label, subset, conditions
                       in (("P_v", p_v, sp.Jprime), ("Q_v", q_v, sp.J)) if conditions]
            slices.append((v, system.w0, subsets, z_v))
        elif z_v != [apex]:
            raise TheoremFalsified(
                f"apex slice is not a singleton: {[system.word_str(w) for w in z_v]}"
            )
    return slices, order, sp.index[(apex, apex)], sp.what


def springer_matching(sp: SpringerPoset) -> tuple[Matching, MorseSummary]:
    """The matching on Z with the partners of the block pass
    (:attr:`SpringerPoset.partner`), checked acyclic with the Euler
    characteristic by :func:`matchings.morse_counts`.  Where an array
    test of the slices failed, the per-slice route assembles it instead
    from the matchings of [v, w0] read on P_v, Q_v and Z_v
    (:func:`springer_slices`, :func:`cells.slice_matching`) to name the
    failure, and if it passes, :class:`Falsification` names both
    routes."""
    if sp.partner is None:
        slice_matching(sp.system, sp.poset, *springer_slices(sp))
        raise Falsification(f"the array route fails the slices of the {sp.what}, "
                            f"but the per-slice route passes them")
    matching = Matching(sp.poset, sp.partner)
    return matching, morse_counts(sp.poset, matching)
