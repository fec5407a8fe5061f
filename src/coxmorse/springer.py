"""Face posets of totally nonnegative Springer fibers and their matchings.

For disjoint generator subsets J, J' the poset Z collects pairs (v, w) with
v <= w, every i in J a left descent of w with v not below s_i w, and every
j in J' a left ascent of v with s_j v not below w.  A reflection order with
T cap W_J' first and T cap W_J last induces, slice by slice in v, a
matching on Z whose only unmatched element is (w_J' w0, w_J' w0); counting
unmatched cells then certifies contractibility of the realizing complex.
The matching of [v, w0] is read only on the slice Z_v and on the
supersets P_v and Q_v that it must preserve (:func:`cells.slice_matching`).
Z is a lower set of the nesting poset of pairs (the totally nonnegative
Springer fiber is a closed union of cells), so it is built from single
steps by :func:`cells.ideal_poset`; :func:`cells.check_against_pair_poset`
rebuilds it by :func:`cells.pair_poset` as an oracle route.  Every
structural step is asserted and failures raise with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import posets
from .cells import ideal_poset, slice_matching
from .cells import pair_poset  # noqa: F401  (perfbench patches springer.pair_poset)
from .coxeter import CoxeterSystem
from .errors import NotMinimalCosetRep, OverlappingSubsets, TheoremFalsified
from .matchings import Matching, MorseSummary
from .posets import FinitePoset
from .reflection_orders import ReflectionOrder, order_for_springer


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

    @cached_property
    def slice_members(self) -> dict[int, list[int]]:
        """The slice Z_v = {w : (v, w) in Z} of each v, ascending."""
        out: dict[int, list[int]] = {}
        for v, w in self.members:
            out.setdefault(v, []).append(w)
        for ws in out.values():
            ws.sort()
        return out


def _members(system: CoxeterSystem, J, Jprime) -> list[tuple[int, int]]:
    """Pairs (v, w) of Z, sorted by (v, w).  Only the v with every j in J'
    a left ascent are candidates, and only the w with every i in J a left
    descent.  Whole-array steps over blocks of at most 1 MiB of unpacked
    rows of the Bruhat order select the pairs: v <= w, v not <= s_i w for
    each i in J, and s_j v not <= w for each j in J'.  Each block's pairs
    are counted first and kept only while n packed rows, the order that
    the ``--paranoid`` oracle :func:`cells.check_against_pair_poset`
    packs, fit ``posets.MAX_ORDER_BYTES``."""
    b, left, length = system.bruhat, system.left, system.length
    w_ok = np.ones(system.size, dtype=bool)
    for i in J:
        w_ok &= length[left[:, i - 1]] < length
    v_ok = np.ones(system.size, dtype=bool)
    for j in Jprime:
        v_ok &= length[left[:, j - 1]] > length
    ws = np.flatnonzero(w_ok)
    candidates = np.flatnonzero(v_ok)
    step = max(1, (1 << 20) // system.size)
    v_hits, w_hits, count = [], [], 0
    for start in range(0, len(candidates), step):
        v = candidates[start:start + step]
        above = b.rows(v)                               # [k, w]: v_k <= w
        row = above[:, ws] if J else above              # without J, every w
        for i in J:
            np.greater(row, above[:, left[ws, i - 1]], out=row)     # and not v_k <= s_i w
        for j in Jprime:
            below = b.rows(left[v, j - 1])
            np.greater(row, below[:, ws] if J else below, out=row)  # and not s_j v_k <= w
        count += int(np.count_nonzero(row))
        if count * ((count + 7) // 8) <= posets.MAX_ORDER_BYTES:
            k, m = np.divmod(np.flatnonzero(row), row.shape[1])   # 2-D nonzero is slow
            v_hits.append(v[k])
            w_hits.append(ws[m])
    posets.check_order_size(count, "springer pair poset")
    return list(zip(np.concatenate(v_hits).tolist(), np.concatenate(w_hits).tolist()))


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
    Z_v = P_v cap Q_v is checked, and so is that P_v (for J' empty) and
    Q_v (for J empty) are all of [v, w0]."""
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
    for label, subset, conditions in (("P_v", p_v, sp.Jprime), ("Q_v", q_v, sp.J)):
        if not conditions and (subset != above).any():
            raise TheoremFalsified(
                f"{label} at v={system.word_str(v)} has no conditions but is not "
                f"[v, w0]"
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
    what = f"springer pair poset (J={sorted(sp.J)}, J'={sorted(sp.Jprime)})"
    return slices, order, sp.index[(apex, apex)], what


def springer_matching(sp: SpringerPoset) -> tuple[Matching, MorseSummary]:
    """The matching on Z, assembled slice by slice from the matchings of
    [v, w0] read on P_v, Q_v and Z_v (:func:`springer_slices`,
    :func:`cells.slice_matching`); the apex pair must be the unique
    unmatched element."""
    return slice_matching(sp.system, sp.poset, *springer_slices(sp))
