"""Posets and systems that only the tests build: toy posets given by their
covers, packed orders given as dense matrices, Springer and fiber posets
with tampered cells, and a B3 system with a planted cover that skips two
lengths."""

import dataclasses

import numpy as np

from coxmorse import build_system
from coxmorse.posets import FinitePoset, PackedOrder


def poset_from_covers(names, dims, covers):
    """The poset on ``names`` (its payload) graded by ``dims`` with the
    cover edges ``covers`` (lo, hi, label); its order is their closure."""
    names = tuple(names)
    return FinitePoset(tuple(dims), None, tuple(covers), names,
                       {x: k for k, x in enumerate(names)})


def packed_from_dense(matrix):
    """Pack an n x n boolean matrix, entry [x, y] iff x <= y."""
    return PackedOrder(len(matrix), np.packbits(matrix, axis=1, bitorder="little"))


def with_members(cells, members):
    """A Springer or fiber poset ``cells`` with the cells ``members``, in
    its members and in its poset's cell index alike; the poset has no
    covers, which neither the slice nor the convexity checks read."""
    length = cells.system.len_of
    poset = FinitePoset(tuple(length(w) - length(v) for v, w in members), None, (), members,
                        {p: k for k, p in enumerate(members)}, cells.poset.name_of)
    return dataclasses.replace(cells, members=members, poset=poset)


def b3_with_a_cover_across_dims():
    """A fresh B3 system (never the session-cached one) whose cover table
    has the extra cover e < 1.2.1, labeled 1.2.1, planted after the Bruhat
    order was closed.  It joins lengths 0 and 3."""
    b3 = build_system("B3")
    b3.bruhat
    x = b3.parse_word("1.2.1")
    ups = b3._covers_up
    b3._covers_up = ((*ups[0], (x, x)),) + ups[1:]
    return b3
