"""Posets of element pairs (x, y), x <= y, with cell dimension l(y) - l(x).

These appear as face posets of unions of cells.  The nesting poset P of
all pairs orders them by (x', y') <= (x, y) iff x <= x' <= y' <= y (a
larger pair is a larger cell); it is the closure order of totally
nonnegative cells (Rietsch, Math. Res. Lett. 2006).  The covers below
(x, y) are the single steps (u, y) for u covering x and (x, u) for u
covered by y, whenever u <= y, resp. x <= u.

The Springer poset Z and the fiber poset F are lower sets of P, built by
:func:`ideal_poset` from single steps alone: that every single-step lower
cover of a cell is a cell is checked, not assumed (:func:`step_covers`,
the one statement of the step rule), and so is that every cover joins
adjacent dims; together they make the covers between cells the whole
Hasse diagram, so Z and F carry no order.  Q_K shifts
(x', y') on the right by some u in W_K, which is not a restriction of P;
it is built by :func:`pair_poset`, whose covers are the dimension-gap-one
comparable pairs of a packed order (:class:`posets.PackedOrder`),
checked to be its closure by the layer kernel that closes the Bruhat
order (:meth:`posets.PackedOrder.is_closure_of`, one layer per
dimension).  :func:`pair_poset` on the cells of Z or F is
their independent oracle route (:func:`check_against_pair_poset`).  Such a
poset is matched slice by slice (:func:`slice_matching`): the matching of
a slice's interval is read only on the slice and its checked subsets,
each element's partner the first entry of its row of the partner table
inside the interval (:func:`slice_partners`; the table is the interval
sweep's, :func:`matchings.partner_table`), so a slice costs what it
holds, not its interval.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .coxeter import CoxeterSystem
from .errors import Falsification, NotAMatching, TheoremFalsified
from .matchings import Matching, MorseSummary, morse_counts, partner_table
from .posets import FinitePoset, PackedOrder, check_order_size
from .reflection_orders import ReflectionOrder


def graded_covers(leq: PackedOrder, dims: Sequence[int], what: str,
                  name: Callable[[int], str] = str) -> tuple[tuple[int, int, None], ...]:
    """The covers of the order ``leq``, checked to be graded by ``dims``
    (ascending, as every caller numbers its cells by dim).

    The comparable pairs whose dims differ by one are taken as covers,
    read from the nonzero bytes of blocks of rows of one dim over the
    columns of the next.  ``leq`` must be the closure of these covers,
    byte for byte, with one layer per dim
    (:meth:`PackedOrder.is_closure_of`: each row x is bit x ORed with
    the rows of the covers above x, and zero below its dim).  Equality
    makes ``leq`` reflexive, antisymmetric and transitive, every cover a
    step of one dim, and the padding bits zero.  Otherwise the covers are
    closed (:meth:`PackedOrder.layered_closure`) and
    :class:`TheoremFalsified` names the first entry that disagrees with
    ``leq`` (``name`` formats an index) and what it breaks.  Covers come
    sorted by (lo, hi)."""
    dim_arr = np.asarray(dims)
    if (dim_arr[1:] < dim_arr[:-1]).any():
        raise ValueError("graded_covers needs its elements numbered by ascending dim")
    packed = leq.packed
    # elements of dim d are the range first[d - dims[0]] .. first[d - dims[0] + 1]
    first = np.searchsorted(dim_arr, np.arange(dim_arr[0], dim_arr[-1] + 3)).tolist()
    los, his = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for r0, c0, c1 in zip(first, first[1:], first[2:]):
        b0, b1 = c0 >> 3, (c1 + 7) >> 3
        step = max(1, (1 << 20) // max(1, b1 - b0))
        for i in range(r0, c0, step):
            block = packed[i:min(i + step, c0), b0:b1]
            row, byte = np.divmod(np.flatnonzero(block), b1 - b0)   # 2-D nonzero is slow
            k, bit = np.nonzero(np.unpackbits(block[row, byte][:, None], axis=1,
                                              bitorder="little"))
            col = (byte[k] + b0) * 8 + bit
            keep = (c0 <= col) & (col < c1)
            los.append(row[k][keep] + i)
            his.append(col[keep])
    lo, hi = np.concatenate(los), np.concatenate(his)
    start = np.zeros(leq.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(lo, minlength=leq.size), out=start[1:])
    layers = np.asarray(first[:-1])
    if not leq.is_closure_of(start, hi, layers):
        _name_the_first_bad_entry(leq, start, hi, layers, what, name)
    ids = np.arange(leq.size).astype(object)   # one int object per element, shared by the covers
    return tuple(zip(ids[lo].tolist(), ids[hi].tolist(), repeat(None)))


def _name_the_first_bad_entry(leq: PackedOrder, start: np.ndarray, up: np.ndarray,
                              layers: np.ndarray, what: str, name: Callable[[int], str]) -> None:
    """Raise :class:`TheoremFalsified` at the first entry where ``leq``
    differs from the closure of its covers, naming what it breaks.  The
    covers, as in :meth:`PackedOrder.is_closure_of`, are closed by
    :meth:`PackedOrder.layered_closure`."""
    diff = PackedOrder.layered_closure(start, up, layers).packed
    diff ^= leq.packed
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


def nested_pair_order(system: CoxeterSystem, v: np.ndarray, w: np.ndarray,
                      K: Iterable[int] = frozenset()) -> PackedOrder:
    """Order of the cells (v_i, w_i): entry [i, j] iff
    v_j <= v_i u <= w_i u <= w_j for some u in W_K.  The shifted ends
    v u and w u come from one walk over W_K (:attr:`ParabolicSubset.steps`),
    and the rows are ORed over the shifts in blocks of about 1 MiB, so no
    shifted copy of the whole order is made."""
    b, right = system.bruhat, system.right
    # |W| x n column tables packed along the cells, row x holding the cells
    # j with v_j <= x and with x <= w_j: each order row ANDs two of them
    below_v = np.packbits(b.rows(v).T, axis=1, bitorder="little")
    above_w = np.packbits(b[:, w], axis=1, bitorder="little")
    vs, ws = [v], [w]
    for p, g in system.parabolic(K).steps:
        vs.append(right[vs[p], g])
        ws.append(right[ws[p], g])
    order = PackedOrder(len(v))
    step = max(1, (1 << 20) // order.packed.shape[1])   # rows per block of about 1 MiB
    for i in range(0, len(v), step):
        block = order.packed[i:i + step]
        for vu, wu in zip(vs, ws):
            vu, wu = vu[i:i + step], wu[i:i + step]
            shifted = below_v[vu]
            shifted &= above_w[wu]
            shifted[~b[vu, wu]] = 0
            block |= shifted
    return order


def pair_name(system: CoxeterSystem, pair: tuple[int, int]) -> str:
    return f"({system.word_str(pair[0])},{system.word_str(pair[1])})"


def pair_poset(system: CoxeterSystem, pairs, what: str = "pair poset",
               K: Iterable[int] = frozenset()) -> FinitePoset:
    """The poset of the cells (v, w) in ``pairs`` (a sequence of pairs or an
    n x 2 array), ordered by :func:`nested_pair_order` with shifts in W_K.

    Cells are numbered by (dimension l(w) - l(v), v, w).  The size guard
    runs before the packed order is allocated, and the order is checked by
    :func:`graded_covers`, whose covers the poset keeps."""
    v, w = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    check_order_size(len(v), what)
    dims = system.length[w] - system.length[v]
    order = np.lexsort((w, v, dims))
    v, w, dims = v[order], w[order], tuple(dims[order].tolist())
    members = tuple(zip(v.tolist(), w.tolist()))
    leq = nested_pair_order(system, v, w, K)
    covers = graded_covers(leq, dims, what, lambda k: pair_name(system, members[k]))
    return FinitePoset(dims, leq, covers, members, {p: k for k, p in enumerate(members)},
                       lambda p: pair_name(system, p))


def step_covers(system: CoxeterSystem, members: Sequence[tuple[int, int]],
                what: str) -> list[list[int]]:
    """The single steps of the nesting poset P between the cells
    ``members``, checked to leave no lower cover out: ups[j] lists, in
    increasing k, the cells k covering cell j.

    The step rule: the single-step lower covers of a cell (v, w) in P are
    (u, w) for u covering v and (v, u) for u covered by w, whenever the
    ends are comparable.  Each cell must have v <= w and each of its
    single-step lower covers must be a cell; otherwise
    :class:`TheoremFalsified` names the cell and the missing one.  By
    induction down P the cells are then a lower set of P.  A pair (v, w)
    is looked up by the int key v |W| + w."""
    leq, size = system.bruhat.leq, system.size
    up, down = system.bruhat_covers_up, system.bruhat_covers_down
    cell = {x * size + y: k for k, (x, y) in enumerate(members)}.get
    ups: list[list[int]] = [[] for _ in members]
    for k, (x, y) in enumerate(members):
        if not leq(x, y):
            raise TheoremFalsified(f"{what} has a cell {pair_name(system, (x, y))} "
                                   f"whose ends are not comparable")
        for u, _ in up(x):
            j = cell(u * size + y)
            if j is not None:
                ups[j].append(k)
            elif leq(u, y):
                raise _missing_step(system, what, (x, y), (u, y))
        for u, _ in down(y):
            j = cell(x * size + u)
            if j is not None:
                ups[j].append(k)
            elif leq(x, u):
                raise _missing_step(system, what, (x, y), (x, u))
    return ups


def _missing_step(system: CoxeterSystem, what: str, pair: tuple[int, int],
                  lower: tuple[int, int]) -> TheoremFalsified:
    return TheoremFalsified(
        f"{what} is not a lower set of the nesting order: the cell "
        f"{pair_name(system, pair)} has the lower cover {pair_name(system, lower)}, "
        f"which is not a cell"
    )


def ideal_poset(system: CoxeterSystem, pairs: Sequence[tuple[int, int]],
                what: str = "pair poset") -> FinitePoset:
    """The poset of the cells (v, w) in ``pairs``, checked to be a lower
    set of the nesting poset P by :func:`step_covers`.

    Cells are numbered by (dimension l(w) - l(v), v, w), as in
    :func:`pair_poset`.  A lower set's order is P restricted, graded by
    dimension, and its covers are the single steps between cells, sorted
    by (lo, hi); each must join adjacent dims
    (:attr:`FinitePoset.graded_adjacency`, cached for the matching).  The
    poset is given by them alone: its ``leq`` is None, as no certificate
    reads an order.  The size guard runs first; it bounds the cells to
    what the oracle route (:func:`check_against_pair_poset`) can pack."""
    check_order_size(len(pairs), what)
    length = system.len_of
    cells = sorted([(length(w) - length(v), v, w) for v, w in pairs])
    members = tuple([(v, w) for _, v, w in cells])
    index = {p: k for k, p in enumerate(members)}
    ups = step_covers(system, members, what)
    covers = tuple([(lo, hi, None) for lo, his in enumerate(ups) for hi in his])
    poset = FinitePoset(tuple([d for d, _, _ in cells]), None, covers, members, index,
                        lambda p: pair_name(system, p))
    poset.graded_adjacency   # raises at a cover that skips a dim
    return poset


def check_against_pair_poset(system: CoxeterSystem, poset: FinitePoset, what: str) -> None:
    """The oracle route of a poset built by :func:`ideal_poset`: its cells
    rebuilt by :func:`pair_poset` (a packed nested order checked by
    :func:`graded_covers`) must have the same numbering, dims and covers,
    or :class:`Falsification` names the first cell or cover that differs
    and, for a cover, the route that has it."""
    oracle = pair_poset(system, poset.payload, what)
    cells = list(zip(poset.payload, poset.dims))
    if cells != list(zip(oracle.payload, oracle.dims)):
        k = next(k for k, cell in enumerate(zip(oracle.payload, oracle.dims)) if cell != cells[k])
        raise Falsification(f"{what} numbers or grades its cells unlike the pair-poset "
                            f"oracle at {poset.names[k]}")
    if oracle.covers != poset.covers:
        lo, hi, _ = min(set(oracle.covers) ^ set(poset.covers))
        side = "the oracle" if (lo, hi, None) in oracle.covers else "the ideal route"
        raise Falsification(
            f"{what} disagrees with the pair-poset oracle at the cover "
            f"{poset.names[lo]} < {poset.names[hi]} (only in {side})"
        )


def slice_partners(system: CoxeterSystem, x: int, top: int, ys: Iterable[int],
                   rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """M(y) for each y in ``ys``, M the matching of [x, top] under the
    reflection order of the partner table ``rows``
    (:func:`matchings.partner_table`, as lists): M(y) is the first entry u
    of row y inside [x, top], that is an up-cover (l(u) > l(y), so u > y,
    as ids are sorted by length) with u <= top or a down-cover with
    x <= u.  A row that reaches its pad ``system.size`` first holds no
    edge of [x, top] at y, and raises :class:`NotAMatching`."""
    leq, pad = system.bruhat.leq, system.size
    below_top = top == system.w0   # then every up-cover of y lies below top
    partner = {}
    for y in ys:
        for u in rows[y]:
            if u == pad or ((below_top or leq(u, top)) if u > y else leq(x, u)):
                break
        else:
            u = pad
        if u == pad:
            raise NotAMatching(
                f"isolated element {system.word_str(y)} in the Hasse diagram of "
                f"[{system.word_str(x)}, {system.word_str(top)}]"
            )
        partner[y] = u
    return partner


def slice_matching(system: CoxeterSystem, poset: FinitePoset, slices: Iterable[tuple],
                   order: ReflectionOrder, apex: int,
                   what: str) -> tuple[Matching, MorseSummary]:
    """Glue the interval matchings of the slices into one matching of a
    pair poset.

    A slice (x, top, subsets, z_x) has base x, the slice z_x = {y : (x, y)
    in the poset} inside [x, top], and (label, elements) subsets of
    [x, top]; a subset that is all of [x, top] is preserved by any
    matching of it and is left out by the caller.  The matching M of
    [x, top] under ``order`` is read only on the subsets and z_x
    (:func:`slice_partners`, from the :func:`matchings.partner_table` of
    ``order``, built at the first slice): it must preserve each of them
    and be an involution there; then (x, y) and (x, M(y)) are matched for
    y in z_x.
    Postconditions: every matched pair is a cover, the matching is
    acyclic (checked by :func:`morse_counts`), and the cell ``apex`` is
    the only unmatched one.  ``what`` names the poset in errors.
    :func:`oracles.oracle_slice_partners` matches all of [x, top]
    (``--paranoid``).
    """
    index, name = poset.index, system.word_str
    rows = None
    partner = list(range(poset.n))
    for x, top, subsets, z_x in slices:
        if rows is None:
            rows = partner_table(system, order).tolist()
        checked = [(label, set(subset)) for label, subset in (*subsets, ("slice", z_x))]
        m = slice_partners(system, x, top, set().union(*(s for _, s in checked)), rows)
        for label, inside in checked:
            if not inside.issuperset(map(m.__getitem__, inside)):
                raise TheoremFalsified(
                    f"{label} at {name(x)} is not preserved by the matching of "
                    f"[{name(x)}, {name(top)}] in the {what}"
                )
        for y, mate in m.items():
            if m[mate] != y:
                raise NotAMatching(
                    f"edge selection is not an involution at {name(y)}: {name(y)} -> "
                    f"{name(mate)} -> {name(m[mate])} in [{name(x)}, {name(top)}] "
                    f"in the {what}"
                )
        for y in z_x:
            if y < m[y]:
                i, j = index[(x, y)], index[(x, m[y])]
                partner[i], partner[j] = j, i
    matching = Matching(poset, tuple(partner))
    above = poset.graded_adjacency[1]
    for i, j in matching.pairs:
        if j not in above[i] and i not in above[j]:
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
