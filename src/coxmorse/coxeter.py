"""Finite Coxeter groups as fully enumerated lookup tables.

A group is built once from its Coxeter matrix by coset enumeration over
the trivial subgroup, which needs nothing beyond integer bookkeeping and
therefore handles the non-crystallographic types (H3, H4, I2(m)) exactly.
Elements are integer ids into the resulting tables; id 0 is the identity
and ids are sorted by (length, shortlex reduced word), so all outputs are
deterministic.  After construction a system is immutable and every query
is read-only.

Generator indices are 1-based in the public API (words, descent sets,
parabolic subsets), matching the word syntax ``"1.2.1"`` used by the CLI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    GroupTooLarge,
    InvalidMatrix,
    InvalidSubset,
    MixedSystems,
    NotReducedWordOfW0,
)

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
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
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


def _coset_enumeration(matrix: CoxeterMatrix, max_elements: int) -> list[list[int]]:
    """Enumerate the group by scanning the Coxeter relators over cosets of
    the trivial subgroup.  Returns the right-multiplication table, one row
    per element, columns indexed by 0-based generator."""
    rank = matrix.rank
    relators: list[tuple[int, ...]] = []
    for i in range(rank):
        for j in range(i + 1, rank):
            relators.append((i, j) * matrix.entries[i][j])
    # generator edges are involutive, so the table doubles as its own inverse
    cap = 16 * max_elements + 1024
    parent = [0]
    nbr = [-1] * rank

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
                f"enumeration exceeded the element bound {max_elements} "
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

    live = [c for c in range(len(parent)) if find(c) == c]
    if len(live) > max_elements:
        raise GroupTooLarge(f"group has {len(live)} elements, exceeding the bound {max_elements}")
    index = {c: k for k, c in enumerate(live)}
    table = [[index[find(nbr[c * rank + g])] for g in range(rank)] for c in live]
    # the identity is the root of coset 0; move it to index 0
    e = index[find(0)]
    if e != 0:
        perm = list(range(len(live)))
        perm[0], perm[e] = perm[e], perm[0]
        inv_perm = {old: new for new, old in enumerate(perm)}
        table = [[inv_perm[table[perm[x]][g]] for g in range(rank)] for x in range(len(live))]
    return table


class CoxeterSystem:
    """A fully enumerated finite Coxeter group.

    All element-valued queries take and return integer ids.  The thin
    :class:`Element` wrapper provides operator sugar on top of these ids.
    """

    def __init__(self, matrix: CoxeterMatrix, max_elements: int = DEFAULT_MAX_ELEMENTS):
        if max_elements < 1:
            raise InvalidMatrix("max_elements must be >= 1")
        self.matrix = matrix
        self.rank = matrix.rank
        raw = _coset_enumeration(matrix, max_elements)
        self._build_tables(np.asarray(raw, dtype=np.int32))
        self._parabolic_cache: dict[frozenset[int], ParabolicSubset] = {}
        self._n_r_cache: dict[int, frozenset[int]] = {}

    # -- construction -----------------------------------------------------

    def _build_tables(self, raw_right: np.ndarray) -> None:
        n = raw_right.shape[0]
        rank = self.rank

        # lengths: BFS distance from the identity in the right Cayley graph
        length = np.full(n, -1, dtype=np.int32)
        length[0] = 0
        frontier = [0]
        bfs_word: list[tuple[int, ...]] = [()] * n
        while frontier:
            nxt = []
            for x in frontier:
                for g in range(rank):
                    y = int(raw_right[x, g])
                    if length[y] < 0:
                        length[y] = length[x] + 1
                        bfs_word[y] = bfs_word[x] + (g,)
                        nxt.append(y)
            frontier = nxt
        if (length < 0).any():
            raise InvalidMatrix("Cayley graph is not connected; enumeration bug")

        inv = np.empty(n, dtype=np.int32)
        for x in range(n):
            z = 0
            for g in reversed(bfs_word[x]):
                z = int(raw_right[z, g])
            inv[x] = z

        left = np.empty((n, rank), dtype=np.int32)
        for g in range(rank):
            left[:, g] = inv[raw_right[inv, g]]

        # shortlex normal form: smallest left descent first, recursively
        first = np.full(n, -1, dtype=np.int32)
        order_by_len = np.argsort(length, kind="stable")
        for x in order_by_len:
            x = int(x)
            if x == 0:
                continue
            for g in range(rank):
                if length[left[x, g]] == length[x] - 1:
                    first[x] = g
                    break

        def word_of(x: int) -> tuple[int, ...]:
            out = []
            while x != 0:
                g = int(first[x])
                out.append(g)
                x = int(left[x, g])
            return tuple(out)

        new_order = sorted(range(n), key=lambda x: (int(length[x]), word_of(x)))
        new_id = np.empty(n, dtype=np.int32)
        for k, x in enumerate(new_order):
            new_id[x] = k
        sel = np.asarray(new_order, dtype=np.int32)
        self.size = n
        self.right = new_id[raw_right[sel]]
        self.left = new_id[left[sel]]
        self.inverse_table = new_id[inv[sel]]
        self.length = length[sel].copy()
        self.first_letter = np.full(n, -1, dtype=np.int32)
        for x in range(1, n):
            for g in range(rank):
                if self.length[self.left[x, g]] == self.length[x] - 1:
                    self.first_letter[x] = g
                    break

        w0_len = int(self.length.max())
        tops = np.nonzero(self.length == w0_len)[0]
        assert len(tops) == 1, "longest element must be unique"
        self.w0 = int(tops[0])
        # ids of length k are the range _length_start[k] .. _length_start[k + 1]
        self._length_start = np.searchsorted(self.length, np.arange(w0_len + 2))

        # reflections: conjugacy closure of the generators
        simples = [int(self.right[0, g]) for g in range(rank)]
        refl = set(simples)
        queue = list(simples)
        while queue:
            t = queue.pop()
            for g in range(rank):
                u = int(self.right[int(self.left[t, g]), g])  # s_g t s_g
                if u not in refl:
                    refl.add(u)
                    queue.append(u)
        self.reflections = tuple(sorted(refl))
        self.reflection_set = frozenset(self.reflections)
        assert len(self.reflections) == w0_len, "|T| must equal l(w0)"

        # Bruhat covers with labels: v = t*w, l(v) = l(w) - 1
        downs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        ups: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        arange = np.arange(n, dtype=np.int32)
        for t in self.reflections:
            perm = arange
            for g in reversed(self._word0(t)):
                perm = self.left[:, g][perm]
            vs = perm  # vs[w] = t * w
            hits = np.nonzero(self.length[vs] == self.length - 1)[0]
            for w in hits:
                downs[int(w)].append((int(vs[w]), t))
        for w, lst in enumerate(downs):
            lst.sort()
            for v, t in lst:
                ups[v].append((w, t))
        for lst in ups:
            lst.sort()
        self._covers_down = tuple(tuple(lst) for lst in downs)
        self._covers_up = tuple(tuple(lst) for lst in ups)

        # diagram involution i -> i* with s_{i*} = w0 s_i w0
        star = []
        for g in range(rank):
            img = self.mul(self.mul(self.w0, int(self.right[0, g])), self.w0)
            assert self.length[img] == 1
            star.append(int(self.first_letter[img]) + 1)
        self.star = tuple(star)

    def _word0(self, x: int) -> tuple[int, ...]:
        """Shortlex word of x as 0-based letters."""
        out = []
        while x != 0:
            g = int(self.first_letter[x])
            out.append(g)
            x = int(self.left[x, g])
        return tuple(out)

    # -- basic queries -----------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def letters(self, x: int) -> Iterator[int]:
        """Yield the 0-based letters of the shortlex word of x."""
        while x != 0:
            g = int(self.first_letter[x])
            yield g
            x = int(self.left[x, g])

    def mul(self, x: int, y: int) -> int:
        for g in self.letters(y):
            x = int(self.right[x, g])
        return x

    def inverse(self, x: int) -> int:
        return int(self.inverse_table[x])

    def len_of(self, x: int) -> int:
        return int(self.length[x])

    def simple(self, i: int) -> int:
        """Element id of the generator s_i (1-based)."""
        if not 1 <= i <= self.rank:
            raise InvalidSubset(f"generator index {i} out of range 1..{self.rank}")
        return int(self.right[0, i - 1])

    def shortlex_reduced_word(self, x: int) -> tuple[int, ...]:
        """Shortlex-minimal reduced word, 1-based generator indices."""
        return tuple(g + 1 for g in self._word0(x))

    def id_from_word(self, word: Iterable[int]) -> int:
        x = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise InvalidSubset(f"generator index {i} out of range 1..{self.rank}")
            x = int(self.right[x, i - 1])
        return x

    def word_str(self, x: int) -> str:
        w = self.shortlex_reduced_word(x)
        return ".".join(str(i) for i in w) if w else "e"

    def parse_word(self, text: str) -> int:
        """Parse a word like ``1.2.1`` (commas also accepted) or ``e``."""
        text = text.strip()
        if text in ("e", ""):
            return 0
        try:
            word = [int(tok) for tok in re.split(r"[.,]", text)]
        except ValueError as exc:
            raise InvalidSubset(f"bad element word {text!r}") from exc
        return self.id_from_word(word)

    def descents(self, x: int, side: str = "right") -> frozenset[int]:
        if side == "right":
            table = self.right
        elif side == "left":
            table = self.left
        else:
            raise InvalidSubset(f"side must be 'left' or 'right', got {side!r}")
        return frozenset(
            g + 1 for g in range(self.rank) if self.length[table[x, g]] < self.length[x]
        )

    # -- Bruhat order -------------------------------------------------------

    @cached_property
    def bruhat(self) -> np.ndarray:
        """Boolean incidence matrix, bruhat[v, w] iff v <= w.

        Row v is the upper set of v: v itself together with the rows of its
        up-covers.  Ids are sorted by length, so walking them downwards
        finds every up-cover row complete, and each step ORs whole
        contiguous rows.  Computed on first use; O(|W|^2) bytes.
        """
        n = self.size
        b = np.zeros((n, n), dtype=bool)
        for v in range(n - 1, -1, -1):
            row = b[v]
            row[v] = True
            for u, _ in self._covers_up[v]:
                np.bitwise_or(row, b[u], out=row)
        return b

    def bruhat_leq(self, v: int, w: int) -> bool:
        return bool(self.bruhat[v, w])

    def bruhat_covers_down(self, w: int) -> tuple[tuple[int, int], ...]:
        """Pairs (v, t) with v = t*w covered by w; t = v w^{-1} is the edge label."""
        return self._covers_down[w]

    def bruhat_covers_up(self, v: int) -> tuple[tuple[int, int], ...]:
        return self._covers_up[v]

    def comparable_pairs(self, strict: bool = False) -> list[tuple[int, int]]:
        vs, ws = np.nonzero(self.bruhat)
        return [(int(v), int(w)) for v, w in zip(vs, ws) if not strict or v != w]

    def interval_ids(self, v: int, w: int) -> list[int]:
        """Ids of [v, w], ascending; only lengths l(v)..l(w) are scanned."""
        b = self.bruhat
        lo = self._length_start[self.length[v]]
        hi = self._length_start[self.length[w] + 1]
        return (np.flatnonzero(b[v, lo:hi] & b[lo:hi, w]) + lo).tolist()

    # -- Demazure-type operations -------------------------------------------

    def demazure_star(self, x: int, y: int) -> int:
        """Unique maximum of {x'y' : x' <= x, y' <= y} (monoid product)."""
        z = x
        for g in self.letters(y):
            zg = int(self.right[z, g])
            if self.length[zg] > self.length[z]:
                z = zg
        return z

    def circ_l(self, x: int, y: int) -> int:
        """Unique minimum of {x'y : x' <= x}."""
        z = y
        for g in reversed(tuple(self.letters(x))):
            zg = int(self.left[z, g])
            if self.length[zg] < self.length[z]:
                z = zg
        return z

    def circ_r(self, x: int, y: int) -> int:
        """Unique minimum of {xy' : y' <= y}."""
        z = x
        for g in self.letters(y):
            zg = int(self.right[z, g])
            if self.length[zg] < self.length[z]:
                z = zg
        return z

    def right_inversion_reflections(self, v: int) -> frozenset[int]:
        """N_R(v) = {t in T : vt < v}; has exactly l(v) members."""
        cached = self._n_r_cache.get(v)
        if cached is None:
            cached = frozenset(
                t for t in self.reflections if self.length[self.mul(v, t)] < self.length[v]
            )
            assert len(cached) == self.len_of(v)
            self._n_r_cache[v] = cached
        return cached

    def left_inversion_reflections(self, v: int) -> frozenset[int]:
        """{t in T : tv < v}; for v = w0 this is all of T."""
        return frozenset(
            t for t in self.reflections if self.length[self.mul(t, v)] < self.length[v]
        )

    # -- parabolic subgroups --------------------------------------------------

    def check_subset(self, J: Iterable[int]) -> frozenset[int]:
        J = frozenset(J)
        for i in J:
            if not isinstance(i, int) or not 1 <= i <= self.rank:
                raise InvalidSubset(f"bad generator subset member {i!r} (rank {self.rank})")
        return J

    def parabolic(self, J: Iterable[int]) -> "ParabolicSubset":
        J = self.check_subset(J)
        cached = self._parabolic_cache.get(J)
        if cached is not None:
            return cached
        elems = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for i in J:
                y = int(self.right[x, i - 1])
                if y not in elems:
                    elems.add(y)
                    queue.append(y)
        elements = tuple(sorted(elems))
        longest = max(elements, key=lambda x: (self.len_of(x), -x))
        assert sum(1 for x in elements if self.len_of(x) == self.len_of(longest)) == 1
        min_left = tuple(x for x in range(self.size) if not (self.descents(x, "left") & J))
        min_right = tuple(x for x in range(self.size) if not (self.descents(x, "right") & J))
        sub = ParabolicSubset(J, elements, longest, min_left, min_right)
        self._parabolic_cache[J] = sub
        return sub

    def longest(self, J: Iterable[int]) -> int:
        return self.parabolic(J).longest

    def min_rep_left(self, w: int, J: Iterable[int]) -> int:
        """The minimal-length element of W_J w (no left descents in J)."""
        J = self.check_subset(J)
        while True:
            ds = self.descents(w, "left") & J
            if not ds:
                return w
            w = int(self.left[w, min(ds) - 1])

    def min_rep_right(self, w: int, K: Iterable[int]) -> int:
        """The minimal-length element of w W_K (no right descents in K)."""
        K = self.check_subset(K)
        while True:
            ds = self.descents(w, "right") & K
            if not ds:
                return w
            w = int(self.right[w, min(ds) - 1])

    # -- misc ---------------------------------------------------------------

    def element(self, x: int | str | Iterable[int]) -> "Element":
        if isinstance(x, str):
            x = self.parse_word(x)
        elif not isinstance(x, int):
            x = self.id_from_word(x)
        return Element(self, int(x))

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


@dataclass(frozen=True)
class Element:
    """Operator sugar over a system id; equality is id equality."""

    system: CoxeterSystem
    id: int

    def _check(self, other: "Element") -> None:
        if self.system is not other.system:
            raise MixedSystems("elements belong to different Coxeter systems")

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.system, self.system.mul(self.id, other.id))

    def __invert__(self) -> "Element":
        return Element(self.system, self.system.inverse(self.id))

    def inverse(self) -> "Element":
        return ~self

    def __le__(self, other: "Element") -> bool:
        self._check(other)
        return self.system.bruhat_leq(self.id, other.id)

    def __lt__(self, other: "Element") -> bool:
        self._check(other)
        return self.id != other.id and self.system.bruhat_leq(self.id, other.id)

    @property
    def length(self) -> int:
        return self.system.len_of(self.id)

    @property
    def word(self) -> tuple[int, ...]:
        return self.system.shortlex_reduced_word(self.id)

    def __repr__(self) -> str:
        return f"<{self.system.word_str(self.id)}>"


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
