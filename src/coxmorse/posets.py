"""Finite graded posets: Hasse diagrams, chains, purity/thinness checks,
edge-labeled chain analysis, and DOT export.  Chain enumeration stops
with :class:`IntervalTooLarge` past ``CHAIN_CAP_DEFAULT`` chains.

A :class:`FinitePoset` is graded by its ``dims``: every cover joins
adjacent dims (Bruhat intervals are graded by length, the Springer,
fiber and Q_K cells by l(w) - l(v)).  Its covers are (lo, hi, label)
tuples (intervals and fibers, which are small) or sorted int arrays
(Z and Q_K, :class:`CoverArrayPoset`), and each form is built from the
other only when read.  The invariant is checked once: on the arrays
when they are given, else by the one adjacency built from the tuples,
:attr:`FinitePoset.graded_adjacency`, which the maximal chains, purity
and thinness all read.  A poset also carries its one cell index, the
payload -> element dict its builder made, or for Z and Q_K one built
when first read.

Orders are :class:`PackedOrder` bits (the Bruhat order too).  One layer
plan, :meth:`PackedOrder._layer_blocks`, both closes covers into an
order (:meth:`PackedOrder.layered_closure`) and checks that an order is
their closure (:meth:`PackedOrder.is_closure_of`, which Q_K's check
runs).  A poset given by its covers alone (the interval, Springer and
fiber posets) is never closed: the matchings, purity, thinness and the
chains read its covers, and an interval's shelling check reads
Python-int lower and upper set masks (:class:`matchings.LabeledInterval`).
Each element carries an integer dimension (cell dimension for face
posets, rank from the bottom for interval posets) and a payload, from
which its display name is built when read.  Posets are not changed
once built, so what is derived from the covers (the other form of the
covers, the adjacency, the Euler characteristic) is built once, when
first read, and shared by every matching of the poset.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Any

import numpy as np

from .errors import (
    IntervalTooLarge,
    InvalidSubset,
    NotComparable,
    NotPure,
    ELViolation,
    OrderTooLarge,
    TheoremFalsified,
)

CHAIN_CAP_DEFAULT = 1_000_000

# Largest order a query may allocate, in bytes of packed rows (and the
# budget of Z's cells at ``springer.CELL_BYTES`` each).  A pair order's
# cover-closure check holds the order and row blocks of at most 256 KiB.
MAX_ORDER_BYTES = 1 << 29


def check_order_size(n: int, what: str) -> None:
    """Raise :class:`OrderTooLarge` before the packed order of ``what`` on n
    elements, n x ceil(n/8) bytes, is allocated beyond ``MAX_ORDER_BYTES``:
    the Bruhat order, :func:`cells.pair_poset` and Q_K's pre-count."""
    need = n * ((n + 7) // 8)
    if need > MAX_ORDER_BYTES:
        raise OrderTooLarge(
            f"{what} on {n} elements needs {need / 2**20:.0f} MiB of packed rows, "
            f"above the limit of {MAX_ORDER_BYTES / 2**20:.0f} MiB"
        )


class PackedOrder:
    """A partial order on ``size`` elements, stored as bits.

    ``packed`` is a ``size`` x ceil(``size``/8) uint8 array whose row x
    holds the upper set of x with ``bitorder="little"``: x <= y iff bit
    y & 7 of byte y >> 3 is set.  The padding bits past column ``size``
    are zero.  Reads go through :meth:`leq` (one pair), indexing (broadcast
    integer index arrays, scalars and ``np.ix_``), :meth:`rows` (whole
    upper sets) or :meth:`blocks` (unpacked row blocks).
    """

    def __init__(self, size: int, packed: np.ndarray | None = None):
        self.size = size
        if packed is None:
            packed = np.zeros((size, (size + 7) // 8), dtype=np.uint8)
        self.packed = packed
        self._width = packed.shape[1]
        self._buf = memoryview(packed).cast("B")   # fast scalar reads
        # (byte, bit mask) of each column, built by the first indexed read;
        # declared here, since adding an attribute later slows every read
        self._columns = None

    @classmethod
    def layered_closure(cls, start: np.ndarray, up: np.ndarray,
                        layers: np.ndarray) -> "PackedOrder":
        """The order generated by covers given as arrays: the up-covers of
        x are ``up[start[x]:start[x + 1]]``, the ids a..b-1 between
        consecutive ``layers`` bounds form a layer, and every up-cover lies
        in a later layer than its element.  Each block of
        :meth:`_layer_blocks`, read from the order being built, is written
        back before the next is taken, so the rows of the up-covers are
        complete when a layer reads them."""
        order = cls(len(start) - 1)
        packed = order.packed
        for rows, col, block in cls._layer_blocks(packed, start, up, layers):
            packed[rows, col:] = block
        return order

    def is_closure_of(self, start: np.ndarray, up: np.ndarray, layers: np.ndarray) -> bool:
        """Whether this order is, byte for byte, the one
        :meth:`layered_closure` builds from the same covers: the rows of
        a layer a..b-1 must be zero before byte a >> 3, and each block of
        :meth:`_layer_blocks`, read from this order's own rows, must equal
        the rows it is made for.  By induction down the layers, every row
        is then the closure's row, padding bits included."""
        packed, bounds = self.packed, layers.tolist()
        if any(packed[a:b, :a >> 3].any() for a, b in zip(bounds, bounds[1:])):
            return False
        return all(np.array_equal(packed[rows, col:], block)
                   for rows, col, block in self._layer_blocks(packed, start, up, layers))

    @staticmethod
    def _layer_blocks(packed: np.ndarray, start: np.ndarray, up: np.ndarray,
                      layers: np.ndarray):
        """(rows, col, block) for blocks of the rows of one layer at a
        time, from the top (covers as in :meth:`layered_closure`): block
        row i is bit x ORed with the rows of ``packed`` of the up-covers
        of x = rows[i], over the byte columns from col on.

        One gather per cover slot rather than one OR per cover: the
        layer's elements are sorted by decreasing up-degree, so slot k,
        the rows of the k-th up-covers, is ORed into the first rows of the
        block: those of the elements with more than k up-covers.  Only the
        byte columns from a >> 3 on are read, since no upper set in the
        layer a..b-1 holds an id below a.  A layer is taken in blocks of at
        most 256 KiB, so that a block and the rows gathered into it stay
        in cache."""
        n = len(start) - 1
        width = packed.shape[1]
        degree = np.diff(start)
        sizes = np.diff(layers)
        slots = int(degree.max(initial=0)) + 1
        # sorted by (layer, -degree), the keys layer * slots - degree
        # ascend, so counts[l, k], the elements of layer l with more than k
        # up-covers, is one searchsorted for every layer and slot
        layer = np.repeat(np.arange(len(sizes)), sizes)
        by = np.lexsort((-degree, layer))
        key = layer[by] * slots - degree[by]
        slot = np.arange(slots)[:, None]
        counts = np.searchsorted(key, np.arange(len(sizes)) * slots - slot).T - layers[:-1, None]
        depth = np.count_nonzero(counts, axis=1).tolist()
        counts = counts.tolist()
        bit = np.left_shift(1, np.arange(n) & 7).astype(np.uint8)
        bounds = layers.tolist()
        for l in range(len(sizes) - 1, -1, -1):
            a, b = bounds[l], bounds[l + 1]
            col, count = a >> 3, counts[l]
            # ups[k, i]: the k-th up-cover of by[a + i], for i < count[k]
            ups = up.take(start[by[a:b]] + slot[:depth[l]], mode="clip")
            step = max(1, (1 << 18) // (width - col))
            for i in range(0, b - a, step):
                j = min(i + step, b - a)
                rows = by[a + i:a + j]
                block = np.zeros((j - i, width - col), dtype=np.uint8)
                block[np.arange(j - i), (rows >> 3) - col] = bit[rows]
                for k in range(depth[l]):
                    c = min(count[k], j)
                    if c <= i:
                        break
                    head = block[:c - i]
                    np.bitwise_or(head, packed[ups[k, i:c], col:], out=head)
                yield rows, col, block

    @property
    def nbytes(self) -> int:
        return self.packed.nbytes

    def leq(self, x: int, y: int) -> bool:
        """x <= y for one pair, read from the bytes behind ``packed``."""
        return bool(self._buf[x * self._width + (y >> 3)] >> (y & 7) & 1)

    def rows(self, ids) -> np.ndarray:
        """The upper sets of ``ids`` (an index, a slice or an index array)
        as boolean rows of length ``size``."""
        return np.unpackbits(self.packed[ids], axis=-1, count=self.size,
                             bitorder="little").view(bool)

    def __getitem__(self, key) -> np.ndarray:
        """``order[x, y]`` is x <= y, broadcast over index arrays."""
        x, y = key
        if self._columns is None:
            ids = np.arange(self.size)
            self._columns = ids >> 3, (1 << (ids & 7)).astype(np.uint8)
        byte, bit = self._columns
        return (self.packed[x, byte[y]] & bit[y]).astype(bool)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense n x n boolean matrix, for inspection only."""
        dense = self.rows(slice(None))
        return dense if dtype is None else dense.astype(dtype)

    def between(self, x: int, y: int, lo: int, hi: int) -> np.ndarray:
        """The z in lo..hi-1 with x <= z <= y: the bytes of row x over lo..hi,
        unpacked, ANDed with the bits of column y in rows lo..hi."""
        packed, y = self.packed, int(y)
        hits = np.unpackbits(packed[x, lo >> 3:(hi + 7) >> 3], bitorder="little")
        hits = hits[lo & 7:(lo & 7) + hi - lo]
        hits &= packed[lo:hi, y >> 3] >> (y & 7)
        return np.flatnonzero(hits) + lo

    def blocks(self, columns: Sequence[int] | None = None):
        """(first row, boolean rows) in blocks of at most 128 KiB, with only
        the bits of ``columns`` kept if given.  A block's flat indices then
        take at most 1 MiB, which bounds what :meth:`nonzero` allocates
        beside its output."""
        mask = None
        if columns is not None:
            keep = np.zeros(self.size, dtype=bool)
            keep[np.asarray(columns, dtype=np.intp)] = True
            mask = np.packbits(keep, bitorder="little")
        step = max(1, (1 << 17) // self.size)
        for i in range(0, self.size, step):
            block = self.packed[i:i + step]
            if mask is not None:
                block = block & mask
            yield i, np.unpackbits(block, axis=1, count=self.size, bitorder="little").view(bool)

    def block_counts(self, columns: Sequence[int] | None = None) -> list[int]:
        """The number of pairs x <= y in each block of :meth:`blocks`, with
        y in ``columns`` if given."""
        return [int(np.count_nonzero(block)) for _, block in self.blocks(columns)]

    def count(self, columns: Sequence[int] | None = None) -> int:
        """The number of pairs x <= y, with y in ``columns`` if given."""
        return sum(self.block_counts(columns))

    def nonzero(self, columns: Sequence[int] | None = None,
                counts: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The pairs x <= y as arrays (x, y) sorted by (x, y), with y in
        ``columns`` if given.  Both arrays are allocated at their exact
        size from the :meth:`block_counts` (``counts``, if the caller has
        them already) and filled block by block, so the pairs are held
        once and no n x n array is allocated."""
        if counts is None:
            counts = self.block_counts(columns)
        x = np.empty(sum(counts), dtype=np.intp)
        y = np.empty_like(x)
        at = 0
        for (i, block), count in zip(self.blocks(columns), counts):
            xs, ys = x[at:at + count], y[at:at + count]
            np.divmod(np.flatnonzero(block), self.size, out=(xs, ys))   # 2-D nonzero is slow
            xs += i
            at += count
        return x, y


class FinitePoset:
    """A finite poset graded by ``dims``: every cover joins adjacent dims
    (checked by :attr:`graded_adjacency`).  ``leq`` is the order its
    builder made (:func:`cells.pair_poset`), or None for a poset given by
    its ``covers`` alone, which nothing closes.  ``index`` maps each
    payload entry to its element.  Each display name is built when it is
    read; the cover arrays, the graded adjacency and the Euler
    characteristic are each built on first read and kept.  Interval and
    fiber posets, which are small, are given so; Z and Q_K are
    :class:`CoverArrayPoset`."""

    def __init__(self, dims: Sequence[int], leq: PackedOrder | None,
                 covers: tuple[tuple[int, int, int | None], ...], payload: Sequence,
                 index: Mapping[Any, int], name_of: Callable[[Any], str] = str):
        self.dims = dims
        self.leq = leq   # leq[i, j] iff i <= j
        self.covers = covers   # (lo, hi, label)
        self.payload = payload   # one entry per element
        self.index = index   # payload entry -> element
        self.name_of = name_of   # display name of a payload entry

    @property
    def n(self) -> int:
        return len(self.dims)

    @cached_property
    def cover_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the ends of the covers as int arrays, in cover order."""
        ends = np.array([(lo, hi) for lo, hi, _ in self.covers], dtype=np.intp).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    @cached_property
    def graded_adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """(below, above) of the Hasse diagram, once every cover is checked
        to join adjacent dims: below[y] and above[x] list the lower covers
        of y and the upper covers of x in cover order.  A cover that skips
        a dim raises :class:`TheoremFalsified`, and then nothing is
        cached."""
        dims = self.dims
        below: list[list[int]] = [[] for _ in dims]
        above: list[list[int]] = [[] for _ in dims]
        for lo, hi, _ in self.covers:
            if dims[hi] != dims[lo] + 1:
                self._not_graded(lo, hi)
            below[hi].append(lo)
            above[lo].append(hi)
        return below, above

    def _not_graded(self, lo: int, hi: int) -> None:
        raise TheoremFalsified(
            f"cover {self.names[lo]} < {self.names[hi]} does not join adjacent dims"
        )

    @cached_property
    def _euler(self) -> int:
        return int(sum((-1) ** d for d in self.dims))

    @property
    def names(self) -> Sequence[str]:
        """Display names (reports and error messages only), each built
        from its payload entry when read, so one name costs one name."""
        return _Names(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class CoverArrayPoset(FinitePoset):
    """A poset given by its covers lo[k] < hi[k] as int arrays sorted by
    (lo, hi) (``cover_arrays``), unlabeled, and its dims as an int array:
    Z and Q_K.  The first cover that does not join adjacent dims raises
    :class:`TheoremFalsified` at once.  The cover tuples, the payload
    (``payload()`` builds it) and the index are each built on first read
    and kept, so the certificates, which read the arrays, build none of
    them; the chains, purity, thinness, :func:`poset_to_dot` and the
    oracles read the tuples."""

    def __init__(self, dims: np.ndarray, leq: PackedOrder | None, lo: np.ndarray,
                 hi: np.ndarray, payload: Callable[[], Sequence],
                 name_of: Callable[[Any], str] = str):
        self.dims, self.leq, self.name_of = dims, leq, name_of
        self.cover_arrays = lo, hi
        self._build_payload = payload
        step = dims[hi]
        step -= dims[lo]   # in place: one full-size temporary beside the covers
        skips = np.flatnonzero(step != 1)
        if skips.size:
            self._not_graded(int(lo[skips[0]]), int(hi[skips[0]]))

    @cached_property
    def covers(self) -> tuple[tuple[int, int, None], ...]:
        lo, hi = self.cover_arrays
        ids = np.arange(self.n).astype(object)   # one int object per element, shared
        return tuple(zip(ids[lo].tolist(), ids[hi].tolist(), repeat(None)))

    @cached_property
    def payload(self) -> Sequence:
        return self._build_payload()

    @cached_property
    def index(self) -> Mapping[Any, int]:
        return dict(zip(self.payload, range(self.n)))

    @cached_property
    def _euler(self) -> int:
        return self.n - 2 * int(np.count_nonzero(self.dims & 1))


@dataclass(frozen=True)
class _Names(Sequence):
    """The display names of a poset, each built from its payload entry
    when read; indexed by element, not by slice."""

    poset: FinitePoset

    def __len__(self) -> int:
        return self.poset.n

    def __getitem__(self, i: int) -> str:
        return self.poset.name_of(self.poset.payload[i])


@dataclass(frozen=True)
class MaximalChain:
    """A maximal chain, stored top-down by element index, with the label
    word read bottom-up (so increasing chains have increasing words)."""

    elements: tuple[int, ...]          # y = elements[0] > ... > elements[-1] = x
    labels_up: tuple[int | None, ...]  # labels read from x up to y


def all_maximal_chains(poset: FinitePoset, x: int, y: int) -> list[MaximalChain]:
    """All maximal chains from x to y by downward DFS over the lower
    covers of :attr:`FinitePoset.graded_adjacency`, the smaller lower
    cover first, kept inside the upper set of x (one search up the upper
    covers); more than ``CHAIN_CAP_DEFAULT`` of them raise
    :class:`IntervalTooLarge`."""
    below, above = poset.graded_adjacency
    inside, todo = {x}, [x]
    while todo:
        for hi in above[todo.pop()]:
            if hi not in inside:
                inside.add(hi)
                todo.append(hi)
    if y not in inside:
        raise NotComparable(f"{poset.names[x]} is not <= {poset.names[y]}")
    label = {(lo, hi): lab for lo, hi, lab in poset.covers}
    chains: list[MaximalChain] = []
    stack: list[tuple[int, tuple[int, ...], tuple[int | None, ...]]] = [(y, (y,), ())]
    while stack:
        z, path, labs = stack.pop()
        if z == x:
            chains.append(MaximalChain(path, tuple(reversed(labs))))
            if len(chains) > CHAIN_CAP_DEFAULT:
                raise IntervalTooLarge(f"more than {CHAIN_CAP_DEFAULT} maximal chains")
            continue
        for lo in sorted(below[z], reverse=True):
            if lo in inside:
                stack.append((lo, path + (lo,), labs + (label[lo, z],)))
    return chains


def is_pure(poset: FinitePoset) -> bool:
    """True iff within every interval all maximal chains have equal length.

    Tested in O(covers) as "every cover joins adjacent dims", the check of
    :attr:`FinitePoset.graded_adjacency`.  When it holds, every step of a
    maximal chain of [x, y] raises the dim by one, so every such chain has
    dims[y] - dims[x] steps and the poset is pure.  A cover that skips a
    dim breaks the invariant of every poset built here, and is reported as
    not pure.
    """
    try:
        poset.graded_adjacency
    except TheoremFalsified:
        return False
    return True


def is_thin(poset: FinitePoset) -> bool:
    """True iff every length-2 interval has exactly 4 elements; needs purity."""
    if not is_pure(poset):
        raise NotPure("thinness is only defined for pure posets")
    below, above = poset.graded_adjacency
    # middles of every length-2 interval, one per cover path of length two
    middles = Counter((lo, hi) for mid in range(poset.n) for lo in below[mid]
                      for hi in above[mid])
    return all(count == 2 for count in middles.values())


def euler_characteristic(poset: FinitePoset) -> int:
    """Alternating sum of element counts by dimension, computed once per
    poset."""
    return poset._euler


# -- edge-labeled chain analysis ------------------------------------------


@dataclass(frozen=True)
class ELReport:
    increasing_chain: MaximalChain
    chain_count: int


def check_el_labeling(poset: FinitePoset, rank: Mapping[int, int], x: int,
                      y: int) -> ELReport:
    """Verify the edge-labeled chain structure of the interval [x, y].

    Checks, against ``rank`` (label -> position in the label order): a
    unique chain with strictly increasing label word exists and its word
    is lexicographically least; read top-down, that word, the unique
    strictly decreasing one, is lexicographically greatest.  So the
    increasing chain starts with the smallest atom label and ends with the
    largest coatom label.  Raises :class:`ELViolation` naming the
    interval, the failed property and a witness chain otherwise.
    """
    return check_el_chains(poset, all_maximal_chains(poset, x, y), rank, x, y)


def check_el_chains(poset: FinitePoset, chains: Sequence[MaximalChain],
                    rank: Mapping[int, int], x: int, y: int) -> ELReport:
    """:func:`check_el_labeling` on ``chains``, all maximal chains of [x, y]."""
    if not chains:
        raise NotComparable("no chains between the endpoints")
    words_up = []
    for ch in chains:
        if any(lab is None for lab in ch.labels_up):
            raise InvalidSubset("interval has unlabeled covers")
        words_up.append(tuple(rank[lab] for lab in ch.labels_up))
    where = f"[{poset.names[x]}, {poset.names[y]}]"
    inc = [k for k, w in enumerate(words_up) if all(a < b for a, b in zip(w, w[1:]))]
    if len(inc) != 1:
        raise ELViolation(f"expected exactly one increasing chain in {where}, found {len(inc)}")
    k0 = inc[0]
    up0 = words_up[k0]
    down0 = up0[::-1]
    for failed, witnesses in (
            ("the increasing word is not lexicographically least",
             (k for k, w in enumerate(words_up) if k != k0 and not up0 < w)),
            ("the decreasing word is not lexicographically greatest",
             (k for k, w in enumerate(words_up) if k != k0 and not down0 > w[::-1]))):
        bad = next(witnesses, None)
        if bad is not None:
            raise ELViolation(f"EL property failed on {where}: {failed}; "
                              f"witness chain {chains[bad].elements}")
    return ELReport(chains[k0], len(chains))


# -- DOT export ---------------------------------------------------------------


def poset_to_dot(poset: FinitePoset, highlighted: Iterable[tuple[int, int]] = (),
                 label_names: Mapping[int, str] | None = None) -> str:
    """Hasse diagram in DOT, one rank row per dimension; ``highlighted``
    pairs (matched edges) are drawn bold red."""
    hi_set = {frozenset(p) for p in highlighted}
    lines = ["graph poset {", "  rankdir=BT;", '  node [shape=plaintext];']
    by_dim: dict[int, list[int]] = {}
    for i, d in enumerate(poset.dims):
        by_dim.setdefault(d, []).append(i)
    for d in sorted(by_dim):
        row = " ".join(f'n{i}' for i in by_dim[d])
        lines.append(f"  {{ rank=same; {row} }}")
    for i in range(poset.n):
        lines.append(f'  n{i} [label="{poset.names[i]}"];')
    for lo, hi, lab in poset.covers:
        attrs = []
        if lab is not None:
            text = label_names[lab] if label_names else str(lab)
            attrs.append(f'label="{text}"')
        if frozenset((lo, hi)) in hi_set:
            attrs.append("color=red penwidth=2")
        else:
            attrs.append("penwidth=1")
        lines.append(f"  n{lo} -- n{hi} [{' '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
