"""Face posets of totally nonnegative Springer fibers and their matchings.

For disjoint generator subsets J, J' the poset Z collects pairs (v, w) with
v <= w, every i in J a left descent of w with v not below s_i w, and every
j in J' a left ascent of v with s_j v not below w.  A reflection order with
T cap W_J' first and T cap W_J last induces, slice by slice in v, a
matching on Z whose only unmatched element is (w_J' w0, w_J' w0); counting
unmatched cells then certifies contractibility of the realizing complex.
Z is a lower set of the nesting poset of pairs (the totally nonnegative
Springer fiber is a closed union of cells), so it is built from single
steps by :func:`cells.ideal_poset`; :func:`cells.check_against_pair_poset`
rebuilds it by :func:`cells.pair_poset` as an oracle route.  Every
structural step is asserted and failures raise with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import posets
from .cells import ideal_poset, slice_matching
from .cells import pair_poset  # noqa: F401  (perfbench patches springer.pair_poset)
from .coxeter import CoxeterSystem
from .errors import NotMinimalCosetRep, OverlappingSubsets, TheoremFalsified
from .matchings import Matching, MorseSummary
from .posets import FinitePoset
from .reflection_orders import order_for_springer


@dataclass(frozen=True)
class SpringerPoset:
    system: CoxeterSystem
    J: frozenset[int]
    Jprime: frozenset[int]
    poset: FinitePoset   # its payload: the pairs (v, w)

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        return self.poset.payload

    @property
    def index(self) -> Mapping[tuple[int, int], int]:
        return self.poset.index

    @property
    def apex(self) -> int:
        """Element id of w_J' w0."""
        return self.system.mul(self.system.longest(self.Jprime), self.system.w0)


def _members(system: CoxeterSystem, J, Jprime) -> list[tuple[int, int]]:
    """Pairs (v, w) of Z, unsorted; one row operation per v selects its w:
    v <= w, each i in J a left descent of w with v not <= s_i w, and (for
    a v with every j in J' a left ascent) s_j v not <= w.  Rows are kept
    only while n packed rows, the order that :attr:`FinitePoset.leq`
    would close, fit ``posets.MAX_ORDER_BYTES``."""
    b, left, length = system.bruhat, system.left, system.length
    w_ok = np.ones(system.size, dtype=bool)
    for i in J:
        w_ok &= length[left[:, i - 1]] < length
    vs, ws, count = [], [], 0
    for v in range(system.size):
        if any(length[left[v, j - 1]] < length[v] for j in Jprime):
            continue
        above = b.rows(v)
        row = above & w_ok
        for i in J:
            row &= ~above[left[:, i - 1]]
        for j in Jprime:
            row &= ~b.rows(left[v, j - 1])
        hits = np.flatnonzero(row)
        count += len(hits)
        if count * ((count + 7) // 8) <= posets.MAX_ORDER_BYTES:
            vs.append(np.full(len(hits), v))
            ws.append(hits)
    posets.check_order_size(count, "springer pair poset")
    return list(zip(np.concatenate(vs).tolist(), np.concatenate(ws).tolist()))


def build_springer_poset(system: CoxeterSystem, J, Jprime) -> SpringerPoset:
    J = system.check_subset(J)
    Jprime = system.check_subset(Jprime)
    if J & Jprime:
        raise OverlappingSubsets(f"J and J' overlap: {sorted(J & Jprime)}")
    poset = ideal_poset(system, _members(system, J, Jprime), "springer pair poset")
    sp = SpringerPoset(system, J, Jprime, poset)
    _check_membership_invariants(sp)
    return sp


def _check_membership_invariants(sp: SpringerPoset) -> None:
    system, members = sp.system, sp.members
    min_left = set(system.parabolic(sp.Jprime).min_left)
    for v, w in members:
        if v not in min_left or w not in min_left:
            raise TheoremFalsified(
                f"member ({system.word_str(v)}, {system.word_str(w)}) leaves the "
                f"minimal coset representatives of J'={sorted(sp.Jprime)}"
            )
    # Hasse edges crossing slices must fix w and move v by one cover
    for lo, hi, _ in sp.poset.covers:
        (v1, w1), (v2, w2) = members[lo], members[hi]
        if v1 != v2:
            if w1 != w2 or system.len_of(v1) != system.len_of(v2) + 1:
                raise TheoremFalsified(
                    f"cross-slice cover {sp.poset.names[lo]} < {sp.poset.names[hi]} "
                    f"is not a single v-step"
                )


def build_slices(sp: SpringerPoset, v: int) -> tuple[list[int], list[int], list[int]]:
    """The slice Z_v = {w : (v, w) in Z} together with the supersets
    P_v (ascent conditions for J') and Q_v (descent conditions for J);
    Z_v = P_v cap Q_v is checked."""
    system = sp.system
    if system.descents(v, "left") & sp.Jprime:
        raise NotMinimalCosetRep(
            f"{system.word_str(v)} has a left descent in J'={sorted(sp.Jprime)}"
        )
    b, left = system.bruhat, system.left
    above = b.rows(v)
    p_v = above.copy()
    for j in sp.Jprime:
        p_v &= ~b.rows(left[v, j - 1])
    q_v = above.copy()
    for i in sp.J:
        q_v &= ~above[left[:, i - 1]]
    above, p_v, q_v = (np.flatnonzero(x).tolist() for x in (above, p_v, q_v))
    index = sp.index
    z_v = [w for w in above if (v, w) in index]
    if z_v != sorted(set(p_v) & set(q_v)):
        raise TheoremFalsified(
            f"slice Z_v at v={system.word_str(v)} is not the intersection of P_v and Q_v "
            f"(J={sorted(sp.J)}, J'={sorted(sp.Jprime)})"
        )
    return z_v, p_v, q_v


def springer_matching(sp: SpringerPoset) -> tuple[Matching, MorseSummary]:
    """Assemble the matching on Z from per-slice interval matchings.

    For each v with a nonempty slice (except the apex), the matching of
    [v, w0] under a reflection order with T cap W_J' first and T cap W_J
    last (:func:`reflection_orders.order_for_springer`) must preserve P_v,
    Q_v and the slice Z_v (:func:`cells.slice_matching`).  The apex slice
    must be the singleton {w_J' w0}, and the apex pair the unique
    unmatched element."""
    system = sp.system
    order = order_for_springer(system, sp.Jprime, sp.J)
    apex = sp.apex
    if (apex, apex) not in sp.index:
        raise TheoremFalsified("apex pair is missing from the pair poset")
    slices = []
    for v in sorted({v for v, _ in sp.members}):
        z_v, p_v, q_v = build_slices(sp, v)
        if v != apex:
            slices.append((v, system.w0, (("P_v", p_v), ("Q_v", q_v)), z_v))
        elif z_v != [apex]:
            raise TheoremFalsified(
                f"apex slice is not a singleton: {[system.word_str(w) for w in z_v]}"
            )
    what = f"springer pair poset (J={sorted(sp.J)}, J'={sorted(sp.Jprime)})"
    return slice_matching(system, sp.poset, slices, order, sp.index[(apex, apex)], what)
