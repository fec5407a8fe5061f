"""Generic finite poset machinery: Hasse diagrams, intervals, chains,
purity/thinness checks, edge-labeled chain analysis, and JSON/DOT export.

A :class:`FinitePoset` stores the full order relation as a boolean matrix
plus the cover edges (= transitive reduction).  Each element carries an
integer dimension (cell dimension for face posets, rank from the bottom for
interval posets) and a payload; its display name is built from the payload,
on first use only.  Posets are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    IntervalTooLarge,
    InvalidSubset,
    NotComparable,
    NotPure,
    ELViolation,
)

CHAIN_CAP_DEFAULT = 1_000_000


@dataclass(frozen=True)
class FinitePoset:
    dims: tuple[int, ...]
    leq: np.ndarray  # (n, n) bool, leq[i, j] iff i <= j
    covers: tuple[tuple[int, int, int | None], ...]  # (lo, hi, label)
    payload: tuple  # one entry per element
    name_of: Callable[[Any], str] = str  # display name of a payload entry

    @property
    def n(self) -> int:
        return len(self.dims)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Display names, built from the payload when first read (reports
        and error messages only)."""
        return tuple(map(self.name_of, self.payload))

    def up_adj(self) -> list[list[tuple[int, int | None]]]:
        adj: list[list[tuple[int, int | None]]] = [[] for _ in range(self.n)]
        for lo, hi, lab in self.covers:
            adj[lo].append((hi, lab))
        return adj

    def down_adj(self) -> list[list[tuple[int, int | None]]]:
        adj: list[list[tuple[int, int | None]]] = [[] for _ in range(self.n)]
        for lo, hi, lab in self.covers:
            adj[hi].append((lo, lab))
        return adj

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n}, covers={len(self.covers)})"


def _transitive_closure_from_covers(n: int, covers: Sequence[tuple[int, int, int | None]],
                                    dims: Sequence[int]) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    down: list[list[int]] = [[] for _ in range(n)]
    for lo, hi, _ in covers:
        down[hi].append(lo)
    for j in sorted(range(n), key=lambda k: dims[k]):
        for lo in down[j]:
            leq[:, j] |= leq[:, lo]
    return leq


def poset_from_covers(names: Sequence[str], dims: Sequence[int],
                      covers: Iterable[tuple[int, int, int | None]]) -> FinitePoset:
    """Build a poset from cover edges; the order is their transitive closure.
    The names are the payload.

    Every cover must strictly increase ``dims``; this keeps closure
    computation a single upward sweep.
    """
    covers = tuple(covers)
    n = len(names)
    for lo, hi, _ in covers:
        if dims[lo] >= dims[hi]:
            raise InvalidSubset(f"cover {lo}->{hi} does not increase dimension")
    leq = _transitive_closure_from_covers(n, covers, dims)
    return FinitePoset(tuple(dims), leq, covers, tuple(names))


def poset_from_leq(names: Sequence[str], dims: Sequence[int], leq: np.ndarray,
                   labels: Mapping[tuple[int, int], int] | None = None) -> FinitePoset:
    """Build a poset from an order matrix; covers are the transitive reduction.
    The names are the payload."""
    n = len(names)
    verify_poset_axioms(leq)
    strict = leq & ~np.eye(n, dtype=bool)
    covers = []
    for hi in range(n):
        below = np.nonzero(strict[:, hi])[0]
        for lo in below:
            if not (strict[lo, :] & strict[:, hi]).any():
                lab = labels.get((int(lo), int(hi))) if labels else None
                covers.append((int(lo), int(hi), lab))
    covers.sort()
    return FinitePoset(tuple(dims), leq.copy(), tuple(covers), tuple(names))


def verify_poset_axioms(leq: np.ndarray) -> None:
    n = leq.shape[0]
    if not leq.diagonal().all():
        raise InvalidSubset("order relation is not reflexive")
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        raise InvalidSubset("order relation is not antisymmetric")
    closure = (leq.astype(np.float32) @ leq.astype(np.float32)) > 0
    if (closure & ~leq).any():
        raise InvalidSubset("order relation is not transitive")


def interval(poset: FinitePoset, x: int, y: int) -> FinitePoset:
    """Induced subposet {z : x <= z <= y} with inherited covers and labels."""
    if not poset.leq[x, y]:
        raise NotComparable(f"{poset.names[x]} is not <= {poset.names[y]}")
    members = np.nonzero(poset.leq[x, :] & poset.leq[:, y])[0]
    index = {int(z): k for k, z in enumerate(members)}
    covers = tuple(
        (index[lo], index[hi], lab)
        for lo, hi, lab in poset.covers
        if lo in index and hi in index
    )
    return FinitePoset(
        tuple(poset.dims[int(z)] for z in members),
        poset.leq[np.ix_(members, members)].copy(),
        covers,
        tuple(poset.payload[int(z)] for z in members),
        poset.name_of,
    )


@dataclass(frozen=True)
class MaximalChain:
    """A maximal chain, stored top-down by element index, with the label
    word read bottom-up (so increasing chains have increasing words)."""

    elements: tuple[int, ...]          # y = elements[0] > ... > elements[-1] = x
    labels_up: tuple[int | None, ...]  # labels read from x up to y

    def labels_down(self) -> tuple[int | None, ...]:
        return tuple(reversed(self.labels_up))


def all_maximal_chains(poset: FinitePoset, x: int, y: int,
                       cap: int = CHAIN_CAP_DEFAULT) -> list[MaximalChain]:
    """All maximal chains from x to y by downward DFS; capped."""
    if not poset.leq[x, y]:
        raise NotComparable(f"{poset.names[x]} is not <= {poset.names[y]}")
    down = poset.down_adj()
    inside = poset.leq[x, :]
    chains: list[MaximalChain] = []
    stack: list[tuple[int, tuple[int, ...], tuple[int | None, ...]]] = [(y, (y,), ())]
    while stack:
        z, path, labs = stack.pop()
        if z == x:
            chains.append(MaximalChain(path, tuple(reversed(labs))))
            if len(chains) > cap:
                raise IntervalTooLarge(f"more than {cap} maximal chains")
            continue
        for lo, lab in sorted(down[z], reverse=True):
            if inside[lo]:
                stack.append((lo, path + (lo,), labs + (lab,)))
    return chains


def is_pure(poset: FinitePoset) -> bool:
    """True iff within every interval all maximal chains have equal length.

    For each bottom x, longest and shortest chain lengths to every z >= x
    are computed by one dimension-ordered sweep; they must agree.
    """
    n = poset.n
    down = poset.down_adj()
    by_dim = sorted(range(n), key=lambda k: poset.dims[k])
    for x in range(n):
        above = poset.leq[x, :]
        longest = {x: 0}
        shortest = {x: 0}
        for z in by_dim:
            if z == x or not above[z]:
                continue
            preds = [lo for lo, _ in down[z] if above[lo]]
            if not preds:
                return False
            longest[z] = 1 + max(longest[p] for p in preds)
            shortest[z] = 1 + min(shortest[p] for p in preds)
            if longest[z] != shortest[z]:
                return False
    return True


def is_thin(poset: FinitePoset) -> bool:
    """True iff every length-2 interval has exactly 4 elements; needs purity."""
    if not is_pure(poset):
        raise NotPure("thinness is only defined for pure posets")
    down = poset.down_adj()
    up = poset.up_adj()
    # middles of every length-2 interval, found via cover paths of length two
    seen: dict[tuple[int, int], set[int]] = {}
    for mid in range(poset.n):
        for lo, _ in down[mid]:
            for hi, _ in up[mid]:
                seen.setdefault((lo, hi), set()).add(mid)
    return all(len(mids) == 2 for mids in seen.values())


def euler_characteristic(poset: FinitePoset) -> int:
    """Alternating sum of element counts by dimension."""
    return int(sum((-1) ** d for d in poset.dims))


# -- edge-labeled chain analysis ------------------------------------------


@dataclass(frozen=True)
class ELReport:
    increasing_chain: MaximalChain
    chain_count: int
    lex_minimal: bool
    decreasing_unique: bool
    lex_maximal_down: bool
    atom_minimal: bool
    coatom_maximal: bool

    @property
    def ok(self) -> bool:
        return (self.lex_minimal and self.decreasing_unique
                and self.lex_maximal_down and self.atom_minimal and self.coatom_maximal)


def _rank_lookup(order) -> Mapping[int, int]:
    rank = getattr(order, "rank", None)
    if rank is not None:
        return rank
    return order


def check_el_labeling(poset: FinitePoset, order, x: int, y: int,
                      cap: int = CHAIN_CAP_DEFAULT) -> ELReport:
    """Verify the edge-labeled chain structure of the interval [x, y].

    Checks, against the label ranking ``order`` (a ReflectionOrder or a
    mapping label -> rank): a unique chain with strictly increasing label
    word exists and its word is lexicographically least; the same chain is
    the unique one whose top-down word is strictly decreasing, and that
    top-down word is lexicographically greatest; the increasing chain
    starts with the smallest atom label and ends with the largest coatom
    label.  Raises :class:`ELViolation` with a witness otherwise.
    """
    rank = _rank_lookup(order)
    chains = all_maximal_chains(poset, x, y, cap)
    if not chains:
        raise NotComparable("no chains between the endpoints")
    words_up = []
    for ch in chains:
        if any(lab is None for lab in ch.labels_up):
            raise InvalidSubset("interval has unlabeled covers")
        words_up.append(tuple(rank[lab] for lab in ch.labels_up))

    def strictly_increasing(w):
        return all(a < b for a, b in zip(w, w[1:]))

    inc = [k for k, w in enumerate(words_up) if strictly_increasing(w)]
    if len(inc) != 1:
        raise ELViolation(
            f"expected exactly one increasing chain in [{poset.names[x]}, {poset.names[y]}], "
            f"found {len(inc)}"
        )
    k0 = inc[0]
    lex_minimal = all(words_up[k0] < w for k, w in enumerate(words_up) if k != k0)
    words_down = [tuple(reversed(w)) for w in words_up]
    dec = [k for k, w in enumerate(words_down)
           if all(a > b for a, b in zip(w, w[1:]))]
    decreasing_unique = dec == [k0]
    lex_maximal_down = all(words_down[k0] > w for k, w in enumerate(words_down)
                           if k != k0)

    atom_labels = [w[0] for w in words_up]
    coatom_labels = [w[-1] for w in words_up]
    atom_minimal = words_up[k0][0] == min(atom_labels)
    coatom_maximal = words_up[k0][-1] == max(coatom_labels)

    report = ELReport(chains[k0], len(chains), lex_minimal, decreasing_unique,
                      lex_maximal_down, atom_minimal, coatom_maximal)
    if not report.ok:
        bad = next(k for k, w in enumerate(words_up) if k != k0 and not words_up[k0] < w) \
            if not lex_minimal else k0
        raise ELViolation(
            f"EL property failed on [{poset.names[x]}, {poset.names[y]}]: {report}; "
            f"witness chain {chains[bad].elements}"
        )
    return report


# -- serialization ----------------------------------------------------------


def poset_to_json(poset: FinitePoset) -> dict:
    return {
        "elements": [
            {"id": i, "name": poset.names[i], "dim": poset.dims[i]} for i in range(poset.n)
        ],
        "covers": [
            {"lo": lo, "hi": hi, "label": lab} for lo, hi, lab in poset.covers
        ],
    }


def poset_from_json(doc: dict) -> FinitePoset:
    elements = sorted(doc["elements"], key=lambda e: e["id"])
    names = [e["name"] for e in elements]
    dims = [e["dim"] for e in elements]
    covers = [(c["lo"], c["hi"], c.get("label")) for c in doc["covers"]]
    return poset_from_covers(names, dims, covers)


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
