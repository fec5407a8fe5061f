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
compares cover arrays).  Such a poset is matched slice by slice.  One
check, :func:`slice_mates`, reads each slice's interval matching only
where needed, by the reader shared with the interval sweep
(:func:`matchings.first_inside`), and names its first failure to
preserve the slice or to be an involution there: for Z's block pass
(:mod:`springer`), for F (:func:`slice_matching`, then
:func:`checked_matching`) and for ``--paranoid``.
"""

from __future__ import annotations

from functools import reduce
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


def slice_mates(system: CoxeterSystem, bases: np.ndarray, top: int,
                checked: Sequence[tuple[str, np.ndarray]], table: np.ndarray, what: str,
                apex: int = -1) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         Falsification | None]:
    """(r, y, mate, failure): the matching M of each [x, top], x in
    ``bases``, under the order of ``table``, read on the sets that it must
    preserve (:func:`matchings.first_inside`) and checked there.

    ``checked`` holds labeled boolean rows over W, row k at x = bases[k],
    with the slice last: the slice lies in each other set, so those hold
    every checked y.  Only the x with a nonempty slice, and not the base
    ``apex`` of a slice left unmatched, are read.  Each checked y of row
    r is given, by increasing (r, y), with its mate M(y), or -1 for none.
    ``failure`` is None, or the first failure at the least base: an
    isolated element, then the first set that M does not preserve, then a
    break of the involution, each at its least y; ``what`` names the
    poset."""
    n = system.size
    sets = [rows for _, rows in checked]
    union = reduce(np.logical_or, sets[:-1] or sets)
    r, y = np.divmod(np.flatnonzero(union), n)                  # 2-D nonzero is slow
    read = (sets[-1].any(axis=1) & (bases != apex))[r]
    r, y = r[read], y[read]
    member = matchings.interval_members(system.bruhat, bases, top)
    mate = matchings.first_inside(table, member.reshape(-1), y, r * (n + 1))
    # where the sets are preserved, M(y) is checked too and found among the (r, y)
    back = mate.take(np.searchsorted(r * n + y, r * n + mate), mode="clip")
    tests = np.array([mate < 0, *(rows[r, y] & ~rows[r, mate] for rows in sets), back != y])
    t, at = np.nonzero(tests)
    if not at.size:
        return r, y, mate, None
    first = np.lexsort((at, t, r[at]))[0]                       # least base, then test, then y
    t, at = int(t[first]), at[first]
    x = int(bases[r[at]])
    if t == 0:
        return r, y, mate, _isolated(system, x, top, int(y[at]))
    name = system.word_str
    interval = f"[{name(x)}, {name(top)}] in the {what}"
    if t <= len(sets):
        return r, y, mate, TheoremFalsified(f"{checked[t - 1][0]} at {name(x)} is not "
                                            f"preserved by the matching of {interval}")
    path = " -> ".join(name(int(u[at])) for u in (y, mate, back))   # M(M(y)) != y
    return r, y, mate, NotAMatching(f"edge selection is not an involution at "
                                    f"{name(int(y[at]))}: {path} in {interval}")


def slice_matching(system: CoxeterSystem, poset: FinitePoset, slices: tuple | None,
                   order: ReflectionOrder, apex: int,
                   what: str) -> tuple[Matching, MorseSummary]:
    """Glue the interval matchings of the slices into one matching of a
    pair poset.

    ``slices`` is None or (bases, top, rows): row k is the slice
    z_x = {y : (x, y) in the poset} inside [x, top] at x = bases[k].  The
    matching M of [x, top] under ``order`` is read and checked on z_x by
    :func:`slice_mates` (the :func:`matchings.partner_table` is built
    only if there is a slice), which the first failure raises; then (x, y)
    and (x, M(y)) are matched, and the matching is checked by
    :func:`checked_matching`.  ``what`` names the poset in errors.
    :func:`oracles.oracle_slice_partners` matches all of [x, top]
    (``fiber --paranoid``).
    """
    partner = list(range(poset.n))
    if slices is not None:
        bases, top, rows = slices
        r, ys, mate, failure = slice_mates(system, bases, top, [("slice", rows)],
                                           partner_table(system, order), what)
        if failure is not None:
            raise failure
        index = poset.index
        for x, y, m in zip(bases[r].tolist(), ys.tolist(), mate.tolist()):
            if y < m:
                i, j = index[(x, y)], index[(x, m)]
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


def _isolated(system: CoxeterSystem, x: int, top: int, y: int) -> NotAMatching:
    """Worded once for :func:`slice_mates` and for ``--paranoid``."""
    name = system.word_str
    return NotAMatching(f"isolated element {name(y)} in the Hasse diagram of "
                        f"[{name(x)}, {name(top)}]")
