"""Independent brute-force reference implementations for the test surface.

Each oracle recomputes a production result by a different route (subword
recursion, literal optimization over lower sets, exhaustive word
enumeration) and never calls the production code it is checking.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .errors import CapExceeded, NonUniqueOptimum, NotAMatching
from .matchings import Matching
from .posets import FinitePoset


def oracle_bruhat_leq(system: CoxeterSystem, v: int, w: int) -> bool:
    """Subword test against one fixed reduced word of w: recurse on the last
    letter s, descending v through vs when s is a right descent of v."""
    word0 = tuple(system.letters(w))

    def recurse(v: int, k: int) -> bool:
        if v == 0:
            return True
        if k == 0:
            return False
        g = word0[k - 1]
        vs = int(system.right[v, g])
        if system.length[vs] < system.length[v]:
            return recurse(vs, k - 1)
        return recurse(v, k - 1)

    return recurse(v, len(word0))


def oracle_interval_ids(system: CoxeterSystem, v: int, w: int) -> list[int]:
    """Ids of [v, w], ascending: the elements reached from w down Bruhat
    covers while staying above v by the subword test (intervals are graded,
    so every member is reached).  Never reads the Bruhat matrix."""
    if not oracle_bruhat_leq(system, v, w):
        return []
    seen, stack = {w}, [w]
    while stack:
        y = stack.pop()
        for x, _ in system.bruhat_covers_down(y):
            if x not in seen and oracle_bruhat_leq(system, v, x):
                seen.add(x)
                stack.append(x)
    return sorted(seen)


def _lower_set(system: CoxeterSystem, x: int) -> list[int]:
    return [y for y in range(system.size) if system.bruhat_leq(y, x)]


def oracle_demazure(system: CoxeterSystem, x: int, y: int, op: str) -> int:
    """Literal optimization over lower sets per the defining property of the
    operation; the optimum is asserted unique."""
    if op == "star":
        candidates = {system.mul(a, b)
                      for a in _lower_set(system, x) for b in _lower_set(system, y)}
        extreme = [c for c in candidates
                   if all(system.bruhat_leq(d, c) for d in candidates)]
    elif op == "circ_l":
        candidates = {system.mul(a, y) for a in _lower_set(system, x)}
        extreme = [c for c in candidates
                   if all(system.bruhat_leq(c, d) for d in candidates)]
    elif op == "circ_r":
        candidates = {system.mul(x, b) for b in _lower_set(system, y)}
        extreme = [c for c in candidates
                   if all(system.bruhat_leq(c, d) for d in candidates)]
    else:
        raise ValueError(f"unknown operation {op!r}")
    if len(extreme) != 1:
        raise NonUniqueOptimum(
            f"{op}({system.word_str(x)}, {system.word_str(y)}) has {len(extreme)} optima"
        )
    return extreme[0]


def oracle_reduced_words(system: CoxeterSystem, x: int, cap: int = 100_000) -> list[tuple[int, ...]]:
    """All reduced words of x (1-based), by left-descent recursion."""
    out: list[tuple[int, ...]] = []

    def recurse(y: int, prefix: tuple[int, ...]) -> None:
        if y == 0:
            out.append(prefix)
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} reduced words")
            return
        for g in range(system.rank):
            z = int(system.left[y, g])
            if system.length[z] == system.length[y] - 1:
                recurse(z, prefix + (g + 1,))

    recurse(x, ())
    return out


def oracle_reflection_orders(system: CoxeterSystem, cap: int = 100_000) -> list[tuple[int, ...]]:
    """Every reflection order, as inversion sequences of all reduced words
    of the longest element, deduplicated."""
    seqs = []
    seen = set()
    for word in oracle_reduced_words(system, system.w0, cap):
        prefix = 0
        seq = []
        for i in word:
            nxt = system.mul(prefix, system.simple(i))
            seq.append(system.mul(nxt, system.inverse(prefix)))
            prefix = nxt
        seq = tuple(seq)
        if seq not in seen:
            seen.add(seq)
            seqs.append(seq)
    return seqs


def oracle_directed_cycle(poset: FinitePoset, matching: Matching) -> tuple[int, ...] | None:
    """A directed cycle of the whole Hasse digraph with matched covers
    oriented up and all others down, as a closed walk, or None; a plain
    depth-first search that assumes nothing about dimensions."""
    matched = matching.matched_edges()
    n = poset.n
    out: list[list[int]] = [[] for _ in range(n)]
    for lo, hi, _ in poset.covers:
        if frozenset((lo, hi)) in matched:
            out[lo].append(hi)
        else:
            out[hi].append(lo)
    for adj in out:
        adj.sort()
    color = [0] * n  # 0 new, 1 on stack, 2 done
    parent_edge: dict[int, int] = {}
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, k = stack[-1]
            if k < len(out[node]):
                stack[-1] = (node, k + 1)
                nxt = out[node][k]
                if color[nxt] == 1:
                    cyc = [nxt]
                    cur = node
                    while cur != nxt:
                        cyc.append(cur)
                        cur = parent_edge[cur]
                    cyc.append(nxt)
                    return tuple(reversed(cyc))
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent_edge[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
    return None


def oracle_unmatched_scan(poset: FinitePoset, matching: Matching) -> list[int]:
    """Recount the fixed points of a matching by an independent pass."""
    for i, p in enumerate(matching.partner):
        if matching.partner[p] != i:
            raise NotAMatching("partner map is not an involution")
    return [i for i in range(poset.n) if matching.partner[i] == i]
