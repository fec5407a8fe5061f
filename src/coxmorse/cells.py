"""Posets of element pairs (x, y), x <= y, with cell dimension l(y) - l(x).

These appear as face posets of unions of cells.  The nesting poset P of
all pairs orders them by (x', y') <= (x, y) iff x <= x' <= y' <= y (a
larger pair is a larger cell); it is the closure order of totally
nonnegative cells (Rietsch, Math. Res. Lett. 2006).  The covers below
(x, y) are the single steps (u, y) for u covering x and (x, u) for u
covered by y, whenever u <= y, resp. x <= u.

The Springer poset Z and the fiber poset F are lower sets of P, built
from single steps alone: that every single-step lower cover of a cell is
a cell is checked, not assumed (the step rule), and so is that every
cover joins adjacent dims; together they make the covers between cells
the whole Hasse diagram, so Z and F carry no order.  F is built by
:func:`ideal_poset`, which runs the step rule one cell at a time
(:func:`step_covers`); Z's step rule runs in whole arrays
(:func:`step_cover_arrays`), which name the failure that
:func:`step_covers` meets first, in the same words.  Q_K shifts
(x', y') on the right by some u in W_K, which is not a restriction of P;
it is built by :func:`pair_poset`, whose covers are the dimension-gap-one
comparable pairs of a packed order (:class:`posets.PackedOrder`),
checked to be its closure by the layer kernel that closes the Bruhat
order (:meth:`posets.PackedOrder.is_closure_of`, one layer per
dimension).  Z and Q_K keep their covers as sorted int arrays
(:class:`posets.CoverArrayPoset`), F as tuples, since a
fiber is small.  :func:`pair_poset` on the cells of Z or F is their
independent oracle route (:func:`check_against_pair_poset`, which
compares cover arrays).  Such a
poset is matched slice by slice, each slice's interval matching read
only where needed, by the reader shared with the interval sweep
(:func:`matchings.first_inside`).  F's slices are read at once
(:func:`slice_partners`) and checked by :func:`slice_matching` and
:func:`checked_matching`; Z's in whole arrays (:mod:`springer`), in the
same words, worded once here.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import matchings
from .coxeter import CoxeterSystem, _flat
from .errors import Falsification, NotAMatching, TheoremFalsified
from .matchings import Matching, MorseSummary, morse_counts, partner_table
from .posets import CoverArrayPoset, FinitePoset, PackedOrder, check_order_size
from .reflection_orders import ReflectionOrder


def graded_covers(leq: PackedOrder, dims: Sequence[int], what: str,
                  name: Callable[[int], str] = str) -> tuple[np.ndarray, np.ndarray]:
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
    ``leq`` (``name`` formats an index) and what it breaks.  The covers
    come as int arrays (lo, hi), sorted by (lo, hi)."""
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
    return lo, hi


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
    :func:`graded_covers`, whose cover arrays the poset keeps."""
    v, w = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    check_order_size(len(v), what)
    dims = system.length[w] - system.length[v]
    order = np.lexsort((w, v, dims))
    v, w, dims = v[order], w[order], dims[order]
    leq = nested_pair_order(system, v, w, K)
    lo, hi = graded_covers(leq, dims, what, lambda k: pair_name(system, (int(v[k]), int(w[k]))))
    return CoverArrayPoset(dims, leq, lo, hi,
                                         lambda: tuple(zip(v.tolist(), w.tolist())),
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
    up_start, up, down_start, down = map(_flat, (system._up_start, system._up_ids,
                                                 system._down_start, system._down_ids))
    cell = {x * size + y: k for k, (x, y) in enumerate(members)}.get
    ups: list[list[int]] = [[] for _ in members]
    for k, (x, y) in enumerate(members):
        if not leq(x, y):
            raise _incomparable_ends(system, what, (x, y))
        for u in up[up_start[x]:up_start[x + 1]]:
            j = cell(u * size + y)
            if j is not None:
                ups[j].append(k)
            elif leq(u, y):
                raise _missing_step(system, what, (x, y), (u, y))
        for u in down[down_start[y]:down_start[y + 1]]:
            j = cell(x * size + u)
            if j is not None:
                ups[j].append(k)
            elif leq(x, u):
                raise _missing_step(system, what, (x, y), (x, u))
    return ups


def step_cover_arrays(system: CoxeterSystem, v: np.ndarray, w: np.ndarray,
                      what: str) -> tuple[np.ndarray, np.ndarray]:
    """The step rule of :func:`step_covers` in whole arrays, on the cells
    (v[k], w[k]): (lo, hi), the cells k = hi covering cells j = lo, sorted
    by (lo, hi).  Where the rule fails, :class:`TheoremFalsified` names
    what :func:`step_covers` meets first: the least failing cell k, and in
    it ends that are not comparable, else its first missing up-step, else
    its first missing down-step, in cover-array order.  That the covers
    join adjacent dims is left to :class:`CoverArrayPoset`.

    The cells are sorted by the key v |W| + w.  The up-covers u of each
    v and the down-covers u of each w are expanded from the cover arrays,
    in chunks of cells of about 64k expanded covers, and each (u, w),
    resp. (v, u), is looked up in the sorted keys: a hit is a cover, a
    miss whose ends the Bruhat order compares is a missing step."""
    b, n = system.bruhat, system.size
    key = v * n + w
    by = np.argsort(key)
    keys = key[by]
    # (cell, test, lower cell) at the first failure of each test, tests in
    # the order step_covers runs them
    failures = [(k, 0, None) for k in np.flatnonzero(~b[v, w])[:1].tolist()]
    los, his = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for test, start, ends, moves_v in ((1, system._up_start, system._up_ids, True),
                                       (2, system._down_start, system._down_ids, False)):
        moved = v if moves_v else w
        step = max(1, (1 << 16) // max(1, int(np.diff(start).max(initial=0))))
        for c in range(0, len(v), step):
            x = moved[c:c + step]
            first, degree = start[x], start[x + 1] - start[x]
            cell = np.repeat(np.arange(c, c + len(x)), degree)
            # u runs over ends[first[k] .. first[k] + degree[k]] of each cell k
            u = ends[np.arange(len(cell)) + np.repeat(first - (np.cumsum(degree) - degree),
                                                      degree)]
            lower_v, lower_w = (u, w[cell]) if moves_v else (v[cell], u)
            low = lower_v * n + lower_w
            at = np.minimum(np.searchsorted(keys, low), len(keys) - 1)
            hit = keys[at] == low
            miss = np.flatnonzero(~hit)
            missing = miss[b[lower_v[miss], lower_w[miss]]]
            if missing.size:
                f = missing[0]
                failures.append((int(cell[f]), test, (int(lower_v[f]), int(lower_w[f]))))
                break
            los.append(by[at[hit]])
            his.append(cell[hit])
    if failures:
        k, _, lower = min(failures)
        pair = int(v[k]), int(w[k])
        if lower is None:
            raise _incomparable_ends(system, what, pair)
        raise _missing_step(system, what, pair, lower)
    lo, hi = np.concatenate(los), np.concatenate(his)
    o = np.argsort(lo * len(v) + hi)
    return lo[o], hi[o]


def _incomparable_ends(system: CoxeterSystem, what: str,
                       pair: tuple[int, int]) -> TheoremFalsified:
    return TheoremFalsified(f"{what} has a cell {pair_name(system, pair)} "
                            f"whose ends are not comparable")


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
    """The oracle route of Z (:func:`step_cover_arrays`) and of a poset
    built by :func:`ideal_poset`: its cells rebuilt by :func:`pair_poset`
    (a packed nested order checked by :func:`graded_covers`) must have
    the same numbering, dims and cover arrays, or :class:`Falsification`
    names the first cell or cover that differs and, for a cover, the
    route that has it."""
    oracle = pair_poset(system, poset.payload, what)
    cells = list(zip(poset.payload, poset.dims))
    if cells != list(zip(oracle.payload, oracle.dims)):
        k = next(k for k, cell in enumerate(zip(oracle.payload, oracle.dims)) if cell != cells[k])
        raise Falsification(f"{what} numbers or grades its cells unlike the pair-poset "
                            f"oracle at {poset.names[k]}")
    n = poset.n
    ours, theirs = ((lo * n + hi) for lo, hi in (poset.cover_arrays, oracle.cover_arrays))
    if not np.array_equal(ours, theirs):
        lo, hi = divmod(int(np.setxor1d(ours, theirs)[0]), n)
        side = "the oracle" if lo * n + hi in theirs else "the ideal route"
        raise Falsification(
            f"{what} disagrees with the pair-poset oracle at the cover "
            f"{poset.names[lo]} < {poset.names[hi]} (only in {side})"
        )


def slice_partners(system: CoxeterSystem, slices: Sequence[tuple],
                   table: np.ndarray) -> list[dict[int, int]]:
    """M(y), or -1 for none, for each y of each slice (x, top, ys), M the
    matching of [x, top] under the order of ``table``: one call of
    :func:`matchings.first_inside` on all the [x, top]."""
    x = np.array([s[0] for s in slices], dtype=np.intp)
    top = np.array([s[1] for s in slices], dtype=np.intp)
    sizes = [len(s[2]) for s in slices]
    y = np.fromiter(chain.from_iterable(s[2] for s in slices), dtype=np.intp,
                    count=sum(sizes))
    member = matchings.interval_members(system.bruhat, x, top)
    base = np.repeat(np.arange(len(x)) * member.shape[1], sizes)
    mate = matchings.first_inside(table, member.reshape(-1), y, base).tolist()
    ends = np.cumsum(sizes).tolist()
    return [dict(zip(s[2], mate[end - size:end])) for s, size, end in zip(slices, sizes, ends)]


def slice_matching(system: CoxeterSystem, poset: FinitePoset, slices: Sequence[tuple],
                   order: ReflectionOrder, apex: int,
                   what: str) -> tuple[Matching, MorseSummary]:
    """Glue the interval matchings of the slices into one matching of a
    pair poset.

    A slice (x, top, z_x) has base x and the slice z_x = {y : (x, y) in
    the poset} inside [x, top].  The matching M of [x, top] under
    ``order`` is read only on z_x (:func:`slice_partners`; the
    :func:`matchings.partner_table` is built only if there is a slice):
    each y must have a partner, and M must preserve z_x and be an
    involution there; then (x, y) and (x, M(y)) are matched, and the
    matching is checked by :func:`checked_matching`.  ``what`` names the
    poset in errors.  :func:`oracles.oracle_slice_partners` matches all
    of [x, top] (``fiber --paranoid``).
    """
    index = poset.index
    partner = list(range(poset.n))
    reads = slice_partners(system, slices, partner_table(system, order)) if slices else []
    for (x, top, z_x), m in zip(slices, reads):
        isolated = next((y for y in z_x if m[y] < 0), None)
        if isolated is not None:
            raise _isolated(system, x, top, isolated)
        if not set(z_x).issuperset(m.values()):
            raise _not_preserved(system, x, top, "slice", what)
        for y, mate in m.items():
            if m[mate] != y:
                raise _not_an_involution(system, x, top, (y, mate, m[mate]), what)
        for y in z_x:
            if y < m[y]:
                i, j = index[(x, y)], index[(x, m[y])]
                partner[i], partner[j] = j, i
    return checked_matching(poset, partner, apex, what)


def checked_matching(poset: FinitePoset, partner: Sequence[int], apex: int,
                     what: str) -> tuple[Matching, MorseSummary]:
    """The matching of ``poset`` with ``partner``, checked: every matched
    pair is a cover, the matching is acyclic (checked by
    :func:`morse_counts`), and the cell ``apex`` is the only unmatched
    one.  ``what`` names the poset in errors."""
    matching = Matching(poset, tuple(partner))
    above = poset.graded_adjacency[1]
    for i, j in matching.pairs:
        if j not in above[i] and i not in above[j]:
            raise _not_a_cover(poset, i, j, what)
    summary = morse_counts(poset, matching)
    if summary.unmatched != (apex,):
        raise _not_only_the_apex(poset, summary.unmatched, apex, what)
    return matching, summary


# The failures of a matching of a pair poset, worded once for
# :func:`checked_matching` and for the Springer matching's array checks

def _not_a_cover(poset: FinitePoset, i: int, j: int, what: str) -> TheoremFalsified:
    return TheoremFalsified(f"matched pair {poset.names[i]} -- {poset.names[j]} is not a cover "
                            f"of the {what}")


def _not_only_the_apex(poset: FinitePoset, unmatched: Sequence[int], apex: int,
                       what: str) -> TheoremFalsified:
    names = poset.names
    return TheoremFalsified(f"unmatched cells of the {what} are "
                            f"{[names[i] for i in unmatched]}, expected only {names[apex]}")


# The failures of the matching of a slice, worded once for
# :func:`slice_matching` and for the Springer block pass

def _isolated(system: CoxeterSystem, x: int, top: int, y: int) -> NotAMatching:
    name = system.word_str
    return NotAMatching(f"isolated element {name(y)} in the Hasse diagram of "
                        f"[{name(x)}, {name(top)}]")


def _not_preserved(system: CoxeterSystem, x: int, top: int, label: str,
                   what: str) -> TheoremFalsified:
    name = system.word_str
    return TheoremFalsified(f"{label} at {name(x)} is not preserved by the matching of "
                            f"[{name(x)}, {name(top)}] in the {what}")


def _not_an_involution(system: CoxeterSystem, x: int, top: int, path: tuple[int, int, int],
                       what: str) -> NotAMatching:
    """``path`` is y, M(y), M(M(y)) with M(M(y)) != y."""
    name = system.word_str
    y, mate, back = map(name, path)
    return NotAMatching(f"edge selection is not an involution at {y}: {y} -> {mate} -> "
                        f"{back} in [{name(x)}, {name(top)}] in the {what}")
