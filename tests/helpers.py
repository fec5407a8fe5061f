"""Posets and systems that only the tests build: toy posets given by their
covers, packed orders given as dense matrices, the per-cover closure (the
reference for the layered one) and the order it gives a poset given by
covers, the closure route of the order check, the fiber posets of a fiber
sweep, Springer and fiber posets with tampered cells, the M-subset test
on an interval matching, a B3 system with a planted cover that skips two
lengths, up-cover arrays replaced, a cover planted in the partner table
alone, and the per-interval route of the interval matching check."""

import dataclasses

import numpy as np

from coxmorse import build_system, matchings
from coxmorse.coxeter import _flat
from coxmorse.errors import CoxmorseError, TheoremFalsified
from coxmorse.fibers import build_fiber_poset, build_qk
from coxmorse.matchings import build_matching, is_acyclic, labeled_interval
from coxmorse.posets import FinitePoset, PackedOrder


def poset_from_covers(names, dims, covers):
    """The poset on ``names`` (its payload) graded by ``dims`` with the
    cover edges ``covers`` (lo, hi, label), and no order
    (:func:`closed_order` closes them)."""
    names = tuple(names)
    return FinitePoset(tuple(dims), None, tuple(covers), names,
                       {x: k for k, x in enumerate(names)})


def packed_from_dense(matrix):
    """Pack an n x n boolean matrix, entry [x, y] iff x <= y."""
    return PackedOrder(len(matrix), np.packbits(matrix, axis=1, bitorder="little"))


def closure(up, walk):
    """The order generated by covers, one OR per cover: ``up[x]`` lists
    the up-covers of x, and ``walk`` visits every element after all of
    its up-covers, so row x is bit x ORed with the complete rows of its
    up-covers."""
    order = PackedOrder(len(up))
    packed = order.packed
    for x in walk:
        row = packed[x]
        row[x >> 3] = 1 << (x & 7)
        for y in up[x]:
            np.bitwise_or(row, packed[y], out=row)
    return order


def closed_order(poset):
    """The order of ``poset``: the one its builder made, or else the
    :func:`closure` of its covers, walked by decreasing dim."""
    if poset.leq is not None:
        return poset.leq
    return closure(poset.graded_adjacency[1],
                   sorted(range(poset.n), key=poset.dims.__getitem__, reverse=True))


def closure_route_covers(leq, dims, what, name=str):
    """The covers of ``leq`` by the route that :func:`cells.graded_covers`
    replaced: the comparable pairs whose dims differ by one, closed by
    :func:`closure`, must give ``leq`` byte for byte, or
    :class:`TheoremFalsified` names the first entry that differs."""
    dims, n = np.asarray(dims), leq.size
    dense = np.asarray(leq)
    up = [np.flatnonzero(dense[x] & (dims == dims[x] + 1)).tolist() for x in range(n)]
    diff = closure(up, np.argsort(-dims, kind="stable").tolist()).packed
    diff ^= leq.packed
    if np.count_nonzero(diff):
        i = int(diff.any(axis=1).argmax())
        j = int(np.unpackbits(diff[i], bitorder="little").argmax())
        if j >= n:
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


def fiber_posets(s, len_cap):
    """Every fiber poset that ``verify.check_fibers(s, len_cap)`` builds."""
    out = []
    for r in range(1 << s.rank):
        K = frozenset(i + 1 for i in range(s.rank) if r >> i & 1)
        qk = build_qk(s, K)
        for j, (_, w) in enumerate(qk.members):
            if s.len_of(w) <= len_cap:
                for i in qk.leq[:, j].nonzero()[0].tolist():
                    out.append(build_fiber_poset(qk, qk.members[i], qk.members[j]))
    return tuple(out)


def with_members(cells, members):
    """A Springer or fiber poset ``cells`` with the cells ``members``: its
    poset is replaced by one whose payload and cell index are ``members``
    and which has no covers, which neither the slice checks nor the
    member and convexity oracles read.  It skips the build, whose step
    rule refuses members that are not a lower set; tests of that rule
    pass the members to it directly."""
    length = cells.system.len_of
    poset = FinitePoset(tuple(length(w) - length(v) for v, w in members), None, (), members,
                        {p: k for k, p in enumerate(members)}, cells.poset.name_of)
    return dataclasses.replace(cells, poset=poset)


def is_M_subset(matching, subset):
    """True iff the matching restricts to an involution of ``subset``."""
    sub = set(subset)
    return all(matching.partner[x] in sub for x in sub)


def b3_with_a_cover_across_dims():
    """A fresh B3 system (never the session-cached one) whose up-cover
    arrays have the extra cover e < 1.2.1, labeled 1.2.1, planted after the
    Bruhat order was closed.  It joins lengths 0 and 3."""
    b3 = build_system("B3")
    b3.bruhat
    x = b3.parse_word("1.2.1")
    ups = [b3.bruhat_covers_up(z) for z in range(b3.size)]
    set_up_covers(b3, [(*ups[0], (x, x))] + ups[1:])
    return b3


def set_up_covers(system, covers_up):
    """Give ``system`` the up-cover arrays (offsets, ids, labels) of the
    (id, label) pairs ``covers_up[x]`` of each x, and the flat views of
    them that ``bruhat_covers_up`` reads, leaving its down-cover arrays
    as they are."""
    start = np.zeros(len(covers_up) + 1, dtype=np.intp)
    np.cumsum([len(ups) for ups in covers_up], out=start[1:])
    system._up_start = start
    system._up_ids = np.array([u for ups in covers_up for u, _ in ups], dtype=np.intp)
    system._up_labels = np.array([t for ups in covers_up for _, t in ups], dtype=np.int64)
    system._up_views = tuple(map(_flat, (system._up_start, system._up_ids, system._up_labels)))


def plant_in_partner_table(monkeypatch, modules, x, y, drop=False):
    """Patch ``partner_table`` in each of ``modules`` so that every table
    it returns has the cover between x and y moved to the end of rows x
    and y, as if its label were ranked below every other, or with
    ``drop`` left out of both rows.  Only the fast routes read the table:
    the system's cover arrays stay whole."""
    real = matchings.partner_table

    def planted(system, order):
        table = real(system, order)
        for a, b in ((x, y), (y, x)):
            row = [c for c in table[a].tolist() if c not in (b, system.size)]
            if not drop:
                row.append(b)
            table[a] = row + [system.size] * (table.shape[1] - len(row))
        return table

    for module in modules:
        monkeypatch.setattr(module, "partner_table", planted)


def per_interval_failures(system, orders):
    """(v, w, k, message) for each nontrivial interval [v, w] and order
    index k on which the per-interval route (:func:`build_matching`, then
    :func:`is_acyclic`) fails, in the order of ``comparable_pairs``."""
    out = []
    for v, w in system.comparable_pairs(strict=True):
        li = labeled_interval(system, v, w)
        for k, order in enumerate(orders):
            try:
                acyc = is_acyclic(li.poset, build_matching(li, order))
            except CoxmorseError as exc:
                out.append((v, w, k, str(exc)))
                continue
            if not acyc.acyclic:
                out.append((v, w, k, f"cycle in [{system.word_str(v)}, {system.word_str(w)}]: "
                                     f"{acyc.cycle}"))
    return out
