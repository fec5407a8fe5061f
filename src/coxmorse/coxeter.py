"""Finite Coxeter groups as fully enumerated lookup tables.

A group is built once from its Coxeter matrix in three steps, all exact
integer bookkeeping, so the non-crystallographic types (H3, H4, I2(m))
need no irrational arithmetic:

- each irreducible component is recognised from its Coxeter graph, and
  |W| is the product of the degrees; an infinite type or a group above
  the element bound is refused before anything is enumerated;
- coset enumeration over a maximal parabolic subgroup of each component
  gives a faithful permutation action on few points (120 for H4, 27 for
  E6);
- a vectorised breadth-first search by length over the permutations
  enumerates W, each length layer directly in shortlex order.

The resulting table is certified on every build (:func:`certify_table`)
to be the regular representation of W.  Elements are integer ids into
the tables; id 0 is the identity and ids are sorted by (length, shortlex
reduced word), so all outputs are deterministic.  After construction a
system is immutable and every query is read-only.

Generator indices are 1-based in the public API (words, descent sets,
parabolic subsets), matching the word syntax ``"1.2.1"`` used by the CLI.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GroupTooLarge,
    InvalidMatrix,
    InvalidSubset,
    NotReducedWordOfW0,
    TheoremFalsified,
)
from .posets import PackedOrder, check_order_size

DEFAULT_MAX_ELEMENTS = 200_000

_NAME_RE = re.compile(r"^([ABDEFGH])([0-9]+)$")
_I2_RE = re.compile(r"^I2\(([0-9]+)\)$")


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric Coxeter matrix with finite entries.

    ``entries[i][j]`` is the order of s_{i+1} s_{j+1}; the diagonal is 1 and
    off-diagonal entries are finite integers >= 2 (infinite bonds are
    rejected, only finite groups are supported).
    """

    entries: tuple[tuple[int, ...], ...]
    label: str = "custom"

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise InvalidMatrix("empty Coxeter matrix")
        for row in self.entries:
            if len(row) != n:
                raise InvalidMatrix("Coxeter matrix must be square")
        for i in range(n):
            for j in range(n):
                m = self.entries[i][j]
                if not isinstance(m, int) or isinstance(m, bool):
                    raise InvalidMatrix(f"entry m({i + 1},{j + 1})={m!r} is not an integer")
                if i == j and m != 1:
                    raise InvalidMatrix("diagonal entries must be 1")
                if i != j:
                    if m < 2:
                        raise InvalidMatrix(
                            f"entry m({i + 1},{j + 1})={m} is < 2 (infinite bonds are not supported)"
                        )
                    if m != self.entries[j][i]:
                        raise InvalidMatrix("Coxeter matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def order(self, i: int, j: int) -> int:
        """Order of s_i s_j, 1-based indices."""
        return self.entries[i - 1][j - 1]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], label: str = "custom") -> "CoxeterMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows), label)

    @classmethod
    def from_name(cls, name: str) -> "CoxeterMatrix":
        """Build a named matrix: A1..., B2..., D3..., E6..E8, F4, G2, H3, H4, I2(m)."""
        name = name.strip()
        m = _I2_RE.match(name)
        if m:
            order = int(m.group(1))
            if order < 2:
                raise InvalidMatrix(f"I2(m) needs m >= 2, got {order}")
            return cls(((1, order), (order, 1)), name)
        m = _NAME_RE.match(name)
        if not m:
            raise InvalidMatrix(f"unrecognized Coxeter type {name!r}")
        family, n = m.group(1), int(m.group(2))
        bonds: dict[tuple[int, int], int] = {}

        def chain(k: int, order: int = 3) -> None:
            for i in range(1, k):
                bonds[(i, i + 1)] = order

        if family == "A" and n >= 1:
            chain(n)
        elif family == "B" and n >= 2:
            chain(n - 1)
            bonds[(n - 1, n)] = 4
        elif family == "D" and n >= 3:
            chain(n - 1)
            bonds[(n - 2, n)] = 3
        elif family == "E" and n in (6, 7, 8):
            # node 2 hangs off node 4 of the chain 1-3-4-5-...
            chain_nodes = [1, 3, 4] + list(range(5, n + 1))
            for a, b in zip(chain_nodes, chain_nodes[1:]):
                bonds[(min(a, b), max(a, b))] = 3
            bonds[(2, 4)] = 3
        elif family == "F" and n == 4:
            bonds[(1, 2)] = 3
            bonds[(2, 3)] = 4
            bonds[(3, 4)] = 3
        elif family == "G" and n == 2:
            bonds[(1, 2)] = 6
        elif family == "H" and n in (3, 4):
            bonds[(1, 2)] = 5
            chain_rest = [(i, i + 1) for i in range(2, n)]
            for a, b in chain_rest:
                bonds[(a, b)] = 3
        else:
            raise InvalidMatrix(f"unrecognized Coxeter type {name!r}")
        rows = [[1 if i == j else bonds.get((min(i, j), max(i, j)), 2) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        return cls.from_rows(rows, name)

    @classmethod
    def from_file(cls, path: str) -> "CoxeterMatrix":
        """Read a matrix from a text file: one row per line, '#' comments."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidMatrix(f"cannot read matrix file: {exc}") from exc
        rows = []
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise InvalidMatrix(f"bad matrix line {line!r}") from exc
        if not rows:
            raise InvalidMatrix(f"no matrix rows found in {path}")
        return cls.from_rows(rows, label="custom")


def _components(rows: Sequence[Sequence[int]], nodes: Iterable[int]) -> list[list[int]]:
    """Connected components of the Coxeter graph (bonds m >= 3) on the
    0-based ``nodes``, each sorted, in order of their smallest node."""
    rest = sorted(nodes)
    out = []
    while rest:
        comp, stack = set(), [rest[0]]
        while stack:
            a = stack.pop()
            if a not in comp:
                comp.add(a)
                stack.extend(b for b in rest if b != a and rows[a][b] >= 3)
        rest = [a for a in rest if a not in comp]
        out.append(sorted(comp))
    return out


_E_DEGREES = {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
              8: (2, 8, 12, 14, 18, 20, 24, 30)}


def _irreducible_degrees(rows: Sequence[Sequence[int]], nodes: list[int]) -> tuple[int, ...] | None:
    """Degrees of the irreducible Coxeter group on the connected ``nodes``,
    recognised from its graph as A_n, B_n, D_n, E6-E8, F4, H3, H4 or I2(m);
    None for any other graph, whose group is infinite."""
    n = len(nodes)
    if n <= 2:
        return (2,) if n == 1 else (2, rows[nodes[0]][nodes[1]])
    bonds = {(a, b): rows[a][b] for a in nodes for b in nodes if a < b and rows[a][b] >= 3}
    if len(bonds) != n - 1:
        return None   # the graph has a cycle
    valency = {a: sum(a in bond for bond in bonds) for a in nodes}
    heavy = [(bond, m) for bond, m in bonds.items() if m > 3]
    if max(valency.values()) == 2:   # a path
        if not heavy:
            return tuple(range(2, n + 2))                                   # A_n
        if len(heavy) > 1:
            return None
        (a, b), m = heavy[0]
        at_end = 1 in (valency[a], valency[b])
        if m == 4 and at_end:
            return tuple(range(2, 2 * n + 1, 2))                            # B_n
        if m == 4 and n == 4:
            return (2, 6, 8, 12)                                            # F4
        if m == 5 and at_end and n in (3, 4):
            return (2, 6, 10) if n == 3 else (2, 12, 20, 30)                # H3, H4
        return None
    branches = [a for a in nodes if valency[a] == 3]
    if heavy or max(valency.values()) > 3 or len(branches) != 1:
        return None
    arms = sorted(len(arm) for arm in _components(rows, [a for a in nodes if a != branches[0]]))
    if arms[:2] == [1, 1]:
        return tuple(range(2, 2 * n - 1, 2)) + (n,)                         # D_n
    if arms[:2] == [1, 2] and arms[2] <= 4:
        return _E_DEGREES[n]                                                # E6-E8
    return None


def _order(rows: Sequence[Sequence[int]], nodes: Iterable[int]) -> int:
    """|W_nodes|, the product of the degrees of its irreducible components;
    raises :class:`GroupTooLarge` if one of them is infinite."""
    order = 1
    for comp in _components(rows, nodes):
        degrees = _irreducible_degrees(rows, comp)
        if degrees is None:
            raise GroupTooLarge(
                f"the Coxeter graph on generators {[a + 1 for a in comp]} is not of type "
                f"A_n, B_n, D_n, E6-E8, F4, H3, H4 or I2(m), so the group is infinite"
            )
        order *= math.prod(degrees)
    return order


def _coset_enumeration(matrix: CoxeterMatrix, subgroup: Iterable[int], cap: int) -> np.ndarray:
    """Coset table of the standard parabolic subgroup generated by the
    0-based generators ``subgroup``: one row per coset, columns indexed by
    0-based generator, coset 0 the subgroup itself.  The Coxeter relators
    are scanned over every coset until nothing changes (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, ch. 5); defining more
    than ``cap`` cosets raises :class:`GroupTooLarge`."""
    rank = matrix.rank
    relators: list[tuple[int, ...]] = []
    for i in range(rank):
        for j in range(i + 1, rank):
            relators.append((i, j) * matrix.entries[i][j])
    # generator edges are involutive, so the table doubles as its own inverse
    parent = [0]
    nbr = [-1] * rank
    for h in subgroup:
        nbr[h] = 0

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    stats = {"defs": 0, "merges": 0}

    def define(c: int, g: int) -> int:
        if len(parent) >= cap:
            raise GroupTooLarge(
                f"coset enumeration of {matrix.label} exceeded {cap} cosets "
                f"(group too large or infinite)"
            )
        d = len(parent)
        parent.append(d)
        nbr.extend([-1] * rank)
        nbr[c * rank + g] = d
        nbr[d * rank + g] = c
        stats["defs"] += 1
        return d

    def unify(a: int, b: int) -> None:
        pend = [(a, b)]
        while pend:
            x, y = pend.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            stats["merges"] += 1
            bx, by = x * rank, y * rank
            for g in range(rank):
                other = nbr[by + g]
                if other < 0:
                    continue
                cur = nbr[bx + g]
                if cur < 0:
                    nbr[bx + g] = other
                else:
                    pend.append((cur, other))

    def follow(c: int, g: int) -> int:
        c = find(c)
        d = nbr[c * rank + g]
        if d < 0:
            return define(c, g)
        return find(d)

    changed = True
    while changed:
        before = (stats["defs"], stats["merges"])
        c = 0
        while c < len(parent):
            if find(c) != c:
                c += 1
                continue
            for g in range(rank):
                follow(c, g)
            for rel in relators:
                d = c
                for g in rel:
                    d = follow(d, g)
                unify(d, c)
                if find(c) != c:
                    break
            c += 1
        changed = (stats["defs"], stats["merges"]) != before

    # merges keep the smaller root, so coset 0 stays live and first
    live = [c for c in range(len(parent)) if find(c) == c]
    index = {c: k for k, c in enumerate(live)}
    return np.array([[index[find(nbr[c * rank + g])] for g in range(rank)] for c in live],
                    dtype=np.int32)


def _point_action(matrix: CoxeterMatrix) -> np.ndarray:
    """Generator permutations (one row each) of W on a disjoint union of
    coset spaces: for each irreducible component C, the cosets of
    W_{C - {s}} in W_C, with s the node of smallest index.  Generators act
    trivially on the other components' points.

    The action is faithful: the kernel in W_C is normal and lies in the
    proper parabolic W_{C - {s}}, so it fixes a nonzero subspace of the
    reflection representation together with all its W-translates, and by
    irreducibility it is trivial.  Points are stored in the smallest
    unsigned type that holds them: uint8 up to 256 points."""
    rows = matrix.entries
    blocks = []
    for comp in _components(rows, range(matrix.rank)):
        order = _order(rows, comp)
        _, s = min((order // _order(rows, [b for b in comp if b != a]), a) for a in comp)
        sub = CoxeterMatrix.from_rows([[rows[a][b] for b in comp] for a in comp], matrix.label)
        table = _coset_enumeration(sub, [k for k, a in enumerate(comp) if a != s],
                                   16 * order + 1024)
        blocks.append((comp, table))
    npts = sum(len(table) for _, table in blocks)
    act = np.tile(np.arange(npts, dtype=np.min_scalar_type(npts - 1)), (matrix.rank, 1))
    offset = 0
    for comp, table in blocks:
        for k, a in enumerate(comp):
            act[a, offset:offset + len(table)] = offset + table[:, k]
        offset += len(table)
    return act


def _enumerate(act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The group generated by the point permutations ``act``, breadth
    first by length: layer k + 1 is the set of s_g x, x in layer k, whose
    permutation is perm(x)[act[g]].  Candidates are formed generator-major
    over layer k in its own order, skipping the known left descents g of
    x (they lead back to layer k - 1), and deduplicated exactly on the
    bytes of their rows.  Keeping first occurrences orders each layer by
    (smallest left descent g, rank of s_g y), which is shortlex order.

    Only one layer of rows is held at a time; inverses are looked up in
    the sorted keys of their own layer.  Returns the left table, the
    inverse table, the layer sizes and the support bits (bit g set iff
    s_{g+1} occurs in a reduced word)."""
    rank, npts = act.shape
    void = np.dtype((np.void, npts * act.itemsize))
    points = np.arange(npts, dtype=act.dtype)
    bit = np.left_shift(1, np.arange(rank, dtype=np.int64))
    cur = points[None, :]
    desc = np.zeros((1, rank), dtype=bool)
    sizes, inverse, support = [1], [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    xs, gs, ys = [], [], []   # y = s_g x, one layer up
    start = 0
    while True:
        g, x = np.nonzero(~desc.T)
        if not g.size:
            break
        cand = cur[x[:, None], act[g]]
        keys, first, which = np.unique(cand.view(void).ravel(), return_index=True,
                                       return_inverse=True)
        order = np.argsort(first)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        y = pos[which]
        cur = cand[first[order]]
        desc = np.zeros((order.size, rank), dtype=bool)
        desc[y, g] = True
        sup = np.empty(order.size, dtype=np.int64)
        sup[y] = support[-1][x] | bit[g]
        inv = np.empty_like(cur)
        inv[np.arange(order.size)[:, None], cur] = points
        xs.append(start + x)
        start += sizes[-1]
        ys.append(start + y)
        gs.append(g)
        inverse.append(start + pos[np.searchsorted(keys, inv.view(void).ravel())])
        support.append(sup)
        sizes.append(order.size)
    left = np.full((start + sizes[-1], rank), -1, dtype=np.int32)
    if xs:
        x, g, y = np.concatenate(xs), np.concatenate(gs), np.concatenate(ys)
        left[x, g] = y
        left[y, g] = x
    return (left, np.concatenate(inverse).astype(np.int32), np.asarray(sizes),
            np.concatenate(support))


def certify_table(matrix: CoxeterMatrix, right: np.ndarray, order: int) -> np.ndarray:
    """Prove that ``right`` (one row per element, column g the right action
    of s_{g+1}) is the right regular representation of W, or raise
    :class:`TheoremFalsified` naming the failed check:

    - each generator column is a fixed-point-free involution;
    - every relator (s_i s_j)^{m_ij} is the identity on every row;
    - breadth-first search from row 0 reaches every row;
    - the number of rows is ``order``, the degree product |W|.

    The first three make the rows a transitive W-set, the last makes its
    stabilisers trivial.  Returns the breadth-first distances from row 0,
    which are the lengths."""
    n, rank = right.shape
    what = f"{matrix.label} group table"
    ids = np.arange(n)
    bad = (right == ids[:, None]) | (right[right, np.arange(rank)] != ids[:, None])
    if bad.any():
        x, g = np.argwhere(bad.T)[0][::-1]
        raise TheoremFalsified(
            f"{what}: generator s_{g + 1} is not a fixed-point-free involution (row {x})"
        )
    for i in range(rank):
        for j in range(i + 1, rank):
            m = matrix.entries[i][j]
            x = ids
            for _ in range(m):
                x = right[right[x, i], j]
            bad = np.flatnonzero(x != ids)
            if bad.size:
                raise TheoremFalsified(
                    f"{what}: relator (s_{i + 1} s_{j + 1})^{m} is not the identity "
                    f"(row {bad[0]})"
                )
    dist = np.full(n, -1, dtype=np.int32)
    dist[0] = 0
    frontier, d = ids[:1], 0
    while frontier.size:
        d += 1
        step = right[frontier].ravel()
        step = step[dist[step] < 0]
        dist[step] = d
        frontier = np.flatnonzero(dist == d)
    bad = np.flatnonzero(dist < 0)
    if bad.size:
        raise TheoremFalsified(f"{what}: row {bad[0]} is not reached from the identity")
    if n != order:
        raise TheoremFalsified(
            f"{what} has {n} rows, but the degrees of its components give |W| = {order}"
        )
    return dist


def _flat(table: np.ndarray) -> memoryview:
    """A flat memoryview over the buffer of a C-contiguous table, with no
    copy (a non-contiguous table raises): entry [x, g] of an n x r table
    is item x * r + g, read as a Python int.  A 1-D array's own view is
    already flat, and is taken without the two casts."""
    view = memoryview(table)
    return view if view.ndim == 1 else view.cast("B").cast(table.dtype.char)


def _cover_rows(n: int, key: np.ndarray, other: np.ndarray, labels: np.ndarray):
    """The covers (key, other, label) as CSR arrays over n keys, sorted by
    (key, other): offsets (row x is start[x] .. start[x + 1]), ends, labels."""
    o = np.lexsort((other, key))
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n), out=start[1:])
    return start, other[o].astype(np.intp, copy=False), labels[o]


def _bits(J: Iterable[int]) -> int:
    """The bit mask of a set of 1-based generators."""
    return sum(1 << (i - 1) for i in J)


class CoxeterSystem:
    """A fully enumerated finite Coxeter group.

    All element-valued queries take and return integer ids.  Per element,
    ``left_descent_bits``, ``right_descent_bits`` and ``support_bits``
    hold bit g - 1 for each generator s_g that is a left descent, a right
    descent, or a letter of a reduced word.  Scalar queries read the
    tables through flat memoryviews of the same buffers (:func:`_flat`).
    """

    def __init__(self, matrix: CoxeterMatrix, max_elements: int = DEFAULT_MAX_ELEMENTS):
        if max_elements < 1:
            raise InvalidMatrix("max_elements must be >= 1")
        self.matrix = matrix
        self.rank = matrix.rank
        order = _order(matrix.entries, range(self.rank))
        if order > max_elements:
            raise GroupTooLarge(f"group has {order} elements, exceeding the bound {max_elements}")
        self._build_tables(order)
        self._parabolic_cache: dict[frozenset[int], ParabolicSubset] = {}
        self._n_r_cache: dict[int, frozenset[int]] = {}
        # v' -> (sequence, word, rank map) of its checked reflection order,
        # filled by :func:`reflection_orders.order_for_fiber`
        self._fiber_orders: dict[int, tuple[tuple[int, ...], tuple[int, ...],
                                            dict[int, int]]] = {}

    # -- construction -----------------------------------------------------

    def _build_tables(self, order: int) -> None:
        left, inv, sizes, support = _enumerate(_point_action(self.matrix))
        right = inv[left[inv]]
        dist = certify_table(self.matrix, right, order)
        what = f"{self.matrix.label} group table"
        length = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        bad = np.flatnonzero(dist != length)
        if bad.size:
            raise TheoremFalsified(f"{what}: row {bad[0]} is not in the layer of its length")
        # left[:, g] sends e to s_g and commutes with the right action, so it
        # is left multiplication by s_g; then inv, which fixes e and sends
        # x s_g to s_g inv(x), is the inverse
        if (left[0] != right[0]).any() or (left[right] != right[left].transpose(0, 2, 1)).any():
            raise TheoremFalsified(f"{what}: left table is not left multiplication")
        if inv[0] != 0 or (inv[right] != left[inv]).any():
            raise TheoremFalsified(f"{what}: inverse table is not the inverse")
        # support(e) = 0 and support(x s_g) = support(x) | s_g when x s_g is
        # longer; every x != e is such a step up from x s for a right descent s
        weights = np.left_shift(1, np.arange(self.rank, dtype=np.int64))
        up = length[right] > length[:, None]
        if support[0] != 0 or (support[right][up] != (support[:, None] | weights)[up]).any():
            raise TheoremFalsified(f"{what}: support bits are not the letters of reduced words")
        self.size = n = len(length)
        self.right, self.left, self.inverse_table, self.length = right, left, inv, length
        descent = length[left] < length[:, None]
        self.left_descent_bits = descent @ weights
        self.right_descent_bits = (length[right] < length[:, None]) @ weights
        self.support_bits = support
        # shortlex normal form: smallest left descent first, recursively
        self.first_letter = np.where(descent.any(axis=1), descent.argmax(axis=1),
                                     -1).astype(np.int32)
        self._right, self._left, self._inverse, self._length, self._first = map(
            _flat, (right, left, inv, length, self.first_letter))
        self._left_descents = _flat(self.left_descent_bits)
        self._right_descents = _flat(self.right_descent_bits)

        w0_len = len(sizes) - 1
        if sizes[-1] != 1:
            raise TheoremFalsified(
                f"{self.matrix.label} has {sizes[-1]} elements of maximal length {w0_len}"
            )
        self.w0 = n - 1
        # ids of length k are the range _length_start[k] .. _length_start[k + 1]
        self._length_start = np.searchsorted(self.length, np.arange(w0_len + 2))

        # reflections: conjugacy closure of the generators, each with its
        # left-multiplication permutation (s t s) w = s (t (s w))
        perms = {int(right[0, g]): left[:, g] for g in range(self.rank)}
        queue = list(perms)
        while queue:
            t = queue.pop()
            for g in range(self.rank):
                u = int(right[left[t, g], g])
                if u not in perms:
                    lg = left[:, g]
                    perms[u] = lg[perms[t][lg]]
                    queue.append(u)
        self.reflections = tuple(sorted(perms))
        self.reflection_set = frozenset(self.reflections)
        if len(self.reflections) != w0_len:
            raise TheoremFalsified(
                f"{self.matrix.label} has {len(self.reflections)} reflections but "
                f"l(w0) = {w0_len}"
            )

        # Bruhat covers with labels: v = t*w, l(v) = l(w) - 1
        below = length - 1
        hits = [np.flatnonzero(length[perms[t]] == below) for t in self.reflections]
        ws = np.concatenate(hits)
        vs = np.concatenate([perms[t][h] for t, h in zip(self.reflections, hits)])
        ts = np.repeat(self.reflections, [len(h) for h in hits])
        # the one cover store, CSR arrays each way (:func:`_cover_rows`):
        # up-covers sorted by (lo, hi), down-covers by (hi, lo)
        self._up_start, self._up_ids, self._up_labels = _cover_rows(n, vs, ws, ts)
        self._down_start, self._down_ids, self._down_labels = _cover_rows(n, ws, vs, ts)
        # flat memoryviews of them, which the cover views read
        self._up_views = tuple(map(_flat, (self._up_start, self._up_ids, self._up_labels)))
        self._down_views = tuple(map(_flat, (self._down_start, self._down_ids,
                                             self._down_labels)))

        # diagram involution i -> i* with s_{i*} = w0 s_i w0
        star = []
        for g in range(self.rank):
            img = self.mul(self.mul(self.w0, int(self.right[0, g])), self.w0)
            if self.length[img] != 1:
                raise TheoremFalsified(
                    f"w0 s_{g + 1} w0 in {self.matrix.label} has length {self.length[img]}, "
                    f"not 1"
                )
            star.append(int(self.first_letter[img]) + 1)
        self.star = tuple(star)

    # -- basic queries -----------------------------------------------------

    def letters(self, x: int) -> list[int]:
        """The 0-based letters of the shortlex word of x."""
        first, left, r = self._first, self._left, self.rank
        out = []
        while x:
            g = first[x]
            out.append(g)
            x = left[x * r + g]
        return out

    def mul(self, x: int, y: int) -> int:
        """x y, by walking the shortlex word of y."""
        first, left, right, r = self._first, self._left, self._right, self.rank
        while y:
            g = first[y]
            x = right[x * r + g]
            y = left[y * r + g]
        return x

    def right_multiples(self, xs: Sequence[int], J: Iterable[int]) -> list[list[int]]:
        """For each x in ``xs``, the products x a over a in
        ``parabolic(J).elements``, in that order.  One walk over W_J in
        length order: x a = (x a') s_g for the step (a', g) of a, one table
        read per product."""
        right, r = self._right, self.rank
        rows = [[x] for x in xs]
        for p, g in self.parabolic(J).steps:
            for row in rows:
                row.append(right[row[p] * r + g])
        return rows

    def conjugate(self, x: int, letters: Iterable[int]) -> int:
        """s_g x s_g for each 0-based letter g in turn, two table reads per
        letter."""
        left, right, r = self._left, self._right, self.rank
        for g in letters:
            x = left[right[x * r + g] * r + g]
        return x

    def inverse(self, x: int) -> int:
        return self._inverse[x]

    def len_of(self, x: int) -> int:
        return self._length[x]

    def simple(self, i: int) -> int:
        """Element id of the generator s_i (1-based)."""
        if not 1 <= i <= self.rank:
            raise InvalidSubset(f"generator index {i} out of range 1..{self.rank}")
        return self._right[i - 1]

    def shortlex_reduced_word(self, x: int) -> tuple[int, ...]:
        """Shortlex-minimal reduced word, 1-based generator indices."""
        return tuple(g + 1 for g in self.letters(x))

    def id_from_word(self, word: Iterable[int]) -> int:
        right, r = self._right, self.rank
        x = 0
        for i in word:
            if not 1 <= i <= r:
                raise InvalidSubset(f"generator index {i} out of range 1..{r}")
            x = right[x * r + i - 1]
        return x

    def word_str(self, x: int) -> str:
        w = self.shortlex_reduced_word(x)
        return ".".join(str(i) for i in w) if w else "e"

    @staticmethod
    def parse_letters(text: str) -> list[int]:
        """The 1-based letters of a word like ``1.2.1`` (commas also
        accepted); ``e`` is the empty word."""
        text = text.strip()
        if text in ("e", ""):
            return []
        try:
            return [int(tok) for tok in re.split(r"[.,]", text)]
        except ValueError as exc:
            raise InvalidSubset(f"bad element word {text!r}") from exc

    def parse_word(self, text: str) -> int:
        """The element of a word, see :meth:`parse_letters`."""
        return self.id_from_word(self.parse_letters(text))

    def descents(self, x: int, side: str = "right") -> frozenset[int]:
        if side == "right":
            bits = self._right_descents[x]
        elif side == "left":
            bits = self._left_descents[x]
        else:
            raise InvalidSubset(f"side must be 'left' or 'right', got {side!r}")
        return frozenset(g + 1 for g in range(self.rank) if bits >> g & 1)

    # -- Bruhat order -------------------------------------------------------

    @cached_property
    def bruhat(self) -> PackedOrder:
        """The Bruhat order (:class:`PackedOrder`), closed from the up-cover
        arrays on first use once :func:`posets.check_order_size` passes.
        Ids are sorted by length and every up-cover is one length up, so
        the order is closed one length layer at a time from the top
        (:meth:`PackedOrder.layered_closure`), one gather per cover slot
        rather than one OR per cover."""
        check_order_size(self.size, "the Bruhat order")
        return PackedOrder.layered_closure(self._up_start, self._up_ids, self._length_start)

    def bruhat_leq(self, v: int, w: int) -> bool:
        return self.bruhat.leq(v, w)

    def bruhat_covers_down(self, w: int) -> tuple[tuple[int, int], ...]:
        """Pairs (v, t), by increasing v, with v = t*w covered by w; t = v w^{-1}
        is the edge label.  A view, built on each call from flat memoryviews
        of the down-cover arrays (:func:`_flat`)."""
        start, ids, labels = self._down_views
        a, b = start[w], start[w + 1]
        return tuple(zip(ids[a:b].tolist(), labels[a:b].tolist()))

    def bruhat_covers_up(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs (w, t), by increasing w, with w = t*v covering v; a view, as above."""
        start, ids, labels = self._up_views
        a, b = start[v], start[v + 1]
        return tuple(zip(ids[a:b].tolist(), labels[a:b].tolist()))

    def comparable_pairs(self, strict: bool = False) -> list[tuple[int, int]]:
        vs, ws = self.bruhat.nonzero()
        return [(v, w) for v, w in zip(vs.tolist(), ws.tolist()) if not strict or v != w]

    def interval_ids(self, v: int, w: int) -> list[int]:
        """Ids of [v, w], ascending.  Only lengths l(v)..l(w), the id range
        lo..hi, are scanned (:meth:`PackedOrder.between`)."""
        lo = int(self._length_start[self.length[v]])
        hi = int(self._length_start[self.length[w] + 1])
        return self.bruhat.between(v, w, lo, hi).tolist()

    # -- Demazure-type operations -------------------------------------------

    def demazure_star(self, x: int, y: int) -> int:
        """Unique maximum of {x'y' : x' <= x, y' <= y} (monoid product)."""
        return self._fold(x, self.letters(y), self._right, 1)

    def circ_l(self, x: int, y: int) -> int:
        """Unique minimum of {x'y : x' <= x}."""
        return self._fold(y, reversed(self.letters(x)), self._left, -1)

    def circ_r(self, x: int, y: int) -> int:
        """Unique minimum of {xy' : y' <= y}."""
        return self._fold(x, self.letters(y), self._right, -1)

    def _fold(self, z: int, letters: Iterable[int], table: memoryview, sign: int) -> int:
        """Multiply z by each letter on the side of ``table``, keeping a
        step only if it changes the length by ``sign``."""
        length, r = self._length, self.rank
        for g in letters:
            zg = table[z * r + g]
            if (length[zg] - length[z]) * sign > 0:
                z = zg
        return z

    def right_inversion_reflections(self, v: int) -> frozenset[int]:
        """N_R(v) = {t in T : vt < v}; has exactly l(v) members."""
        cached = self._n_r_cache.get(v)
        if cached is None:
            length = self._length
            cached = frozenset(t for t in self.reflections if length[self.mul(v, t)] < length[v])
            if len(cached) != self.len_of(v):
                raise TheoremFalsified(
                    f"N_R({self.word_str(v)}) in {self.matrix.label} has {len(cached)} "
                    f"reflections, not l(v) = {self.len_of(v)}"
                )
            self._n_r_cache[v] = cached
        return cached

    # -- parabolic subgroups --------------------------------------------------

    def check_subset(self, J: Iterable[int]) -> frozenset[int]:
        """J as a frozenset, once each member is checked to be a generator
        index 1..rank; the very frozenset that :meth:`parabolic` keeps was
        checked when it was kept, and is returned at once."""
        if self._kept(J) is not None:
            return J
        J = frozenset(J)
        for i in J:
            if not isinstance(i, int) or not 1 <= i <= self.rank:
                raise InvalidSubset(f"bad generator subset member {i!r} (rank {self.rank})")
        return J

    def in_parabolic(self, x: int, J: Iterable[int]) -> bool:
        """x in W_J, read from x's support bits: every letter of a reduced
        word of x is a generator in J."""
        return not self.support_bits[x] & ~_bits(J)

    def _kept(self, J) -> "ParabolicSubset | None":
        """The kept W_J if J is the very frozenset that keys it, else None
        (an equal frozenset may hold members such as 1.0 that
        :meth:`check_subset` rejects)."""
        sub = self._parabolic_cache.get(J) if type(J) is frozenset else None
        return sub if sub is not None and sub.J is J else None

    def parabolic(self, J: Iterable[int]) -> "ParabolicSubset":
        """W_J, built once per subset and kept on the system."""
        cached = self._kept(J)
        if cached is not None:
            return cached
        J = self.check_subset(J)
        cached = self._parabolic_cache.get(J)
        if cached is not None:
            return cached
        bits = _bits(J)
        elements = np.flatnonzero((self.support_bits & ~bits) == 0)
        lengths = self.length[elements]
        tops = elements[lengths == lengths.max()]
        if len(tops) != 1:
            raise TheoremFalsified(
                f"W_{sorted(J)} in {self.matrix.label} has {len(tops)} longest elements: "
                f"{[self.word_str(x) for x in tops]}"
            )
        min_left = np.flatnonzero((self.left_descent_bits & bits) == 0)
        min_right = np.flatnonzero((self.right_descent_bits & bits) == 0)
        # each a != e (ids sorted by length, so e comes first) is a' s_g for
        # its smallest right descent g, with a' shorter and in W_J
        rest = elements[1:]
        g = (self.length[self.right[rest]] < lengths[1:, None]).argmax(axis=1)
        steps = zip(np.searchsorted(elements, self.right[rest, g]).tolist(), g.tolist())
        sub = ParabolicSubset(J, tuple(elements.tolist()), int(tops[0]),
                              tuple(min_left.tolist()), tuple(min_right.tolist()),
                              tuple(steps))
        self._parabolic_cache[J] = sub
        return sub

    def longest(self, J: Iterable[int]) -> int:
        return self.parabolic(J).longest

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.matrix.label!r}, size={self.size})"


@dataclass(frozen=True)
class ParabolicSubset:
    """Cached data of a standard parabolic subgroup W_J."""

    J: frozenset[int]
    elements: tuple[int, ...]
    longest: int
    min_left: tuple[int, ...]   # {}^J W: no left descents in J
    min_right: tuple[int, ...]  # W^J: no right descents in J
    # steps[k] = (p, g) with elements[k + 1] = elements[p] s_g and p <= k
    steps: tuple[tuple[int, int], ...]


def build_system(matrix: CoxeterMatrix | str | Sequence[Sequence[int]],
                 max_elements: int = DEFAULT_MAX_ELEMENTS) -> CoxeterSystem:
    """Enumerate a finite Coxeter group from a matrix, name, or row list."""
    if isinstance(matrix, str):
        matrix = CoxeterMatrix.from_name(matrix)
    elif not isinstance(matrix, CoxeterMatrix):
        matrix = CoxeterMatrix.from_rows(matrix)
    return CoxeterSystem(matrix, max_elements)


def reduced_word_of_w0(system: CoxeterSystem, word: Sequence[int]) -> None:
    """Validate that ``word`` (1-based) is a reduced word of w0, else raise."""
    if len(word) != system.len_of(system.w0):
        raise NotReducedWordOfW0(
            f"word of length {len(word)} cannot be reduced for w0 "
            f"(l(w0) = {system.len_of(system.w0)})"
        )
    if system.id_from_word(word) != system.w0:
        raise NotReducedWordOfW0(f"word {list(word)} does not multiply to w0")
