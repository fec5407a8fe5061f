"""Posets of element pairs (x, y), x <= y, with cell dimension l(y) - l(x).

These appear as face posets of unions of cells: the order nests intervals,
(x', y') <= (x, y) iff x <= x' <= y' <= y (a larger pair is a larger cell),
in Q_K after shifting (x', y') on the right by some u in W_K.  Every such
poset is built by :func:`pair_poset`.  Covers are the dimension-gap-one
comparable pairs; that they generate the whole order (gradedness of the
face poset) is asserted, not assumed; the order is packed like every
other (:class:`posets.PackedOrder`).  Such a poset is matched slice by
slice (:func:`slice_matching`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .coxeter import CoxeterSystem
from .errors import TheoremFalsified
from .matchings import (Matching, MorseSummary, build_matching, is_M_subset,
                        labeled_interval, morse_counts)
from .posets import FinitePoset, PackedOrder, check_order_size
from .reflection_orders import ReflectionOrder


def graded_covers(leq: PackedOrder, dims: Sequence[int], what: str,
                  name: Callable[[int], str] = str) -> tuple[tuple[int, int, None], ...]:
    """The covers of the order ``leq``, checked to be graded by ``dims``.

    The comparable pairs whose dims differ by one, read in row blocks, are
    taken as covers and closed; the closure must equal ``leq`` byte for
    byte.  Equality makes ``leq`` reflexive, antisymmetric and transitive,
    every cover a step of one dim, and the padding bits zero.  Otherwise
    :class:`TheoremFalsified` names the first disagreeing entry (``name``
    formats an index) and what it breaks.  Covers come sorted by (lo, hi).
    """
    dim_arr = np.asarray(dims)
    up: list[list[int]] = [[] for _ in dims]
    for start, block in leq.blocks():
        block &= dim_arr[start:start + len(block), None] + 1 == dim_arr
        for k in np.flatnonzero(block).tolist():
            lo, hi = divmod(k, len(up))
            up[start + lo].append(hi)
    diff = PackedOrder.closure(up, sorted(range(len(up)), key=dims.__getitem__,
                                          reverse=True)).packed
    diff ^= leq.packed
    if np.count_nonzero(diff):
        i = int(diff.any(axis=1).argmax())
        j = int(np.unpackbits(diff[i], bitorder="little").argmax())
        if j >= leq.size:
            raise TheoremFalsified(f"{what} has a relation past its last cell at {name(i)}")
        if i == j:
            raise TheoremFalsified(f"{what} is not reflexive at {name(i)}")
        if not leq.leq(i, j):
            raise TheoremFalsified(
                f"{what} is not transitive: {name(i)} <= {name(j)} follows from the covers "
                f"but is missing"
            )
        if leq.leq(j, i):
            raise TheoremFalsified(f"{what} is not antisymmetric at {name(i)}, {name(j)}")
        raise TheoremFalsified(
            f"{what} is not graded by dimension: relation between {name(i)} and "
            f"{name(j)} disagrees with the cover closure"
        )
    return tuple((lo, hi, None) for lo, ups in enumerate(up) for hi in ups)


def nested_pair_order(system: CoxeterSystem, v: np.ndarray, w: np.ndarray,
                      shifts: Iterable[int] = (0,)) -> PackedOrder:
    """Order of the cells (v_i, w_i): entry [i, j] iff
    v_j <= v_i u <= w_i u <= w_j for some u in ``shifts``."""
    b = system.bruhat
    # |W| x n column tables packed along the cells, row x holding the cells
    # j with v_j <= x and with x <= w_j: each order row ANDs two of them
    below_v = np.packbits(b.rows(v).T, axis=1, bitorder="little")
    above_w = np.packbits(b[:, w], axis=1, bitorder="little")
    leq = None
    for u in shifts:
        vu, wu = v, w
        for g in system.letters(u):
            vu, wu = system.right[vu, g], system.right[wu, g]
        shifted = below_v[vu]
        shifted &= above_w[wu]
        shifted[~b[vu, wu]] = 0
        leq = shifted if leq is None else np.bitwise_or(leq, shifted, out=leq)
    return PackedOrder(len(v), leq)


def pair_name(system: CoxeterSystem, pair: tuple[int, int]) -> str:
    return f"({system.word_str(pair[0])},{system.word_str(pair[1])})"


def pair_poset(system: CoxeterSystem, pairs, what: str = "pair poset",
               shifts: Iterable[int] = (0,)) -> FinitePoset:
    """The poset of the cells (v, w) in ``pairs`` (a sequence of pairs or an
    n x 2 array), ordered by :func:`nested_pair_order` under ``shifts``.

    Cells are numbered by (dimension l(w) - l(v), v, w).  The size guard
    runs before the packed order is allocated, and the order is checked by
    :func:`graded_covers`, whose covers the poset keeps."""
    v, w = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    check_order_size(len(v), what)
    dims = system.length[w] - system.length[v]
    order = np.lexsort((w, v, dims))
    v, w, dims = v[order], w[order], tuple(dims[order].tolist())
    members = tuple(zip(v.tolist(), w.tolist()))
    leq = nested_pair_order(system, v, w, shifts)
    covers = graded_covers(leq, dims, what, lambda k: pair_name(system, members[k]))
    return FinitePoset(dims, leq, covers, members, lambda p: pair_name(system, p))


def slice_matching(system: CoxeterSystem, poset: FinitePoset,
                   index: dict[tuple[int, int], int], slices: Iterable[tuple],
                   order: ReflectionOrder, apex: int,
                   what: str) -> tuple[Matching, MorseSummary]:
    """Glue the interval matchings of the slices into one matching of a
    pair poset.

    A slice (x, top, subsets, z_x) has base x, the slice z_x = {y : (x, y)
    in the poset} inside [x, top], and (label, elements) subsets of
    [x, top].  The matching M of [x, top] under ``order`` must preserve
    every subset and z_x; then (x, y) and (x, M(y)) are matched for y in
    z_x.  Postconditions: every matched pair is a cover, the matching is
    acyclic (checked by :func:`morse_counts`), and the cell ``apex`` is
    the only unmatched one.  ``index`` maps a pair to its cell; ``what``
    names the poset in errors.
    """
    partner = list(range(poset.n))
    for x, top, subsets, z_x in slices:
        li = labeled_interval(system, x, top)
        m = build_matching(li, order)
        for label, subset in (*subsets, ("slice", z_x)):
            if not is_M_subset(m, (li.index[y] for y in subset)):
                raise TheoremFalsified(
                    f"{label} at {system.word_str(x)} is not preserved by the matching "
                    f"of [{system.word_str(x)}, {system.word_str(top)}] in the {what}"
                )
        for y in z_x:
            a = li.index[y]
            b = m.partner[a]
            if a < b:
                i, j = index[(x, y)], index[(x, li.ids[b])]
                partner[i], partner[j] = j, i
    matching = Matching(poset, tuple(partner))
    cover_set = {frozenset((lo, hi)) for lo, hi, _ in poset.covers}
    for i, j in matching.pairs:
        if frozenset((i, j)) not in cover_set:
            raise TheoremFalsified(
                f"matched pair {poset.names[i]} -- {poset.names[j]} is not a cover "
                f"of the {what}"
            )
    summary = morse_counts(poset, matching)
    if summary.unmatched != (apex,):
        raise TheoremFalsified(
            f"unmatched cells of the {what} are "
            f"{[poset.names[i] for i in summary.unmatched]}, expected only {poset.names[apex]}"
        )
    return matching, summary
