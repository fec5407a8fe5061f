"""Independent brute-force reference implementations, for the tests and
the CLI's ``--paranoid`` runs.

Each oracle recomputes a production result by a different route (subword
recursion, literal optimization over lower sets, exhaustive word
enumeration, prefix unions read from the Bruhat order's rows, a slice's
partners read off the matching of its whole interval) and never calls the
production code it is checking.  The one shared piece is the
Todd-Coxeter routine under :func:`oracle_group_tables`, whose production
output is proved correct on every build by :func:`coxeter.certify_table`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .coxeter import (DEFAULT_MAX_ELEMENTS, CoxeterMatrix, CoxeterSystem,
                      _coset_enumeration)
from .errors import (CapExceeded, CorollaryFalsified, NonUniqueOptimum, NotAMatching,
                     NotMinimalCosetRep, TheoremFalsified)
from .matchings import (LabeledInterval, Matching, ShellingReport, build_matching,
                        labeled_interval)
from .posets import FinitePoset
from .reflection_orders import ReflectionOrder


def oracle_group_tables(matrix: CoxeterMatrix) -> dict[str, object]:
    """The tables of :class:`coxeter.CoxeterSystem` by another route: coset
    enumeration over the trivial subgroup, lengths and words by a Python
    breadth-first search, ids sorted by (length, shortlex word) with
    ``sorted``, and Bruhat covers by multiplying out each reflection's word.
    Keys: right, left, inverse_table, length, first_letter, reflections,
    covers_down, covers_up."""
    raw = _coset_enumeration(matrix, (), 16 * DEFAULT_MAX_ELEMENTS + 1024)
    n, rank = raw.shape
    length = np.full(n, -1, dtype=np.int32)
    length[0] = 0
    word: list[tuple[int, ...]] = [()] * n
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in range(rank):
                y = int(raw[x, g])
                if length[y] < 0:
                    length[y] = length[x] + 1
                    word[y] = word[x] + (g,)
                    nxt.append(y)
        frontier = nxt
    inv = np.empty(n, dtype=np.int32)
    for x in range(n):
        z = 0
        for g in reversed(word[x]):
            z = int(raw[z, g])
        inv[x] = z
    left = inv[raw[inv]]
    descent = length[left] < length[:, None]
    first = np.where(descent.any(axis=1), descent.argmax(axis=1), -1).astype(np.int32)

    def word_of(x: int) -> tuple[int, ...]:
        out = []
        while x != 0:
            g = int(first[x])
            out.append(g)
            x = int(left[x, g])
        return tuple(out)

    sel = np.asarray(sorted(range(n), key=lambda x: (int(length[x]), word_of(x))),
                     dtype=np.int32)
    new_id = np.empty(n, dtype=np.int32)
    new_id[sel] = np.arange(n, dtype=np.int32)
    right, left, first = new_id[raw[sel]], new_id[left[sel]], first[sel]
    length = length[sel]

    refl = {int(right[0, g]) for g in range(rank)}
    queue = list(refl)
    while queue:
        t = queue.pop()
        for g in range(rank):
            u = int(right[int(left[t, g]), g])
            if u not in refl:
                refl.add(u)
                queue.append(u)
    reflections = tuple(sorted(refl))
    downs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ups: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for t in reflections:
        perm = np.arange(n, dtype=np.int32)
        for g in reversed(word_of(t)):
            perm = left[:, g][perm]   # perm[w] = t * w
        for w in np.flatnonzero(length[perm] == length - 1):
            downs[int(w)].append((int(perm[w]), t))
    for w, lst in enumerate(downs):
        lst.sort()
        for v, t in lst:
            ups[v].append((w, t))
    for lst in ups:
        lst.sort()
    return {
        "right": right, "left": left, "inverse_table": new_id[inv[sel]], "length": length,
        "first_letter": first, "reflections": reflections,
        "covers_down": tuple(map(tuple, downs)), "covers_up": tuple(map(tuple, ups)),
    }


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


def oracle_interval_covers(system: CoxeterSystem,
                            ids: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The covers of the interval with ascending ids ``ids``, as (lo, hi,
    x y^{-1}) in increasing (lo, hi), indices into ``ids``: every pair x, y
    with l(y) = l(x) + 1 and x <= y by the subword test.  Reads neither the
    Bruhat cover arrays nor the Bruhat matrix."""
    layers: dict[int, list[tuple[int, int]]] = {}
    for k, y in enumerate(ids):
        layers.setdefault(system.len_of(y), []).append((k, y))
    for lo, x in enumerate(ids):
        for hi, y in layers.get(system.len_of(x) + 1, ()):
            if oracle_bruhat_leq(system, x, y):
                yield lo, hi, system.mul(x, system.inverse(y))


def oracle_shelling_subsets(li: LabeledInterval, order: ReflectionOrder,
                            matching: Matching) -> ShellingReport:
    """:func:`matchings.verify_shelling_subsets` prefix by prefix: the
    interval's order is gathered from the rows of the Bruhat order, and
    each prefix union of coatom (atom) intervals is built and checked
    against ``matching`` in turn.  Same report, or the same
    :class:`TheoremFalsified` message."""
    system, poset = li.system, li.poset
    at = np.asarray(li.ids)
    leq = system.bruhat[at[:, None], at]
    partner = np.asarray(matching.partner)
    rank = order.rank
    top = li.index[li.w]
    bot = li.index[li.v]
    coatoms = sorted((rank[t], lo) for lo, hi, t in poset.covers if hi == top)
    atoms = sorted((rank[t], hi) for lo, hi, t in poset.covers if lo == bot)

    def falsified(what: str) -> TheoremFalsified:
        return TheoremFalsified(f"{what} in [{system.word_str(li.v)}, {system.word_str(li.w)}]")

    union = np.zeros(poset.n, dtype=bool)
    for k, (_, x) in enumerate(coatoms[:-1], 1):
        union |= leq[:, x]
        if not union[partner[union]].all():
            raise falsified(f"coatom prefix union of {k} intervals is not an M-subset")
    if not np.array_equal(~union, leq[partner[top], :]):
        raise falsified("complement of the coatom prefix unions is not [M(w), w]")

    union = np.zeros(poset.n, dtype=bool)
    for k, (_, x) in enumerate(atoms[:-1], 1):
        union |= leq[x, :]
        if not union[partner[union]].all():
            raise falsified(f"atom prefix union of {k} intervals is not an M-subset")
    return ShellingReport(len(coatoms), len(atoms))


def oracle_slice_partners(system: CoxeterSystem, x: int, top: int,
                          order: ReflectionOrder) -> dict[int, int]:
    """The partner of every element of [x, top] under the matching of the
    whole interval: extracted by :meth:`CoxeterSystem.interval_ids` with
    the up-covers inside it (:func:`matchings.labeled_interval`) and
    matched there (:func:`matchings.build_matching` over ``order.rank``,
    which checks that the selection is a complete matching).  It reads
    the system's up-cover arrays but not the partner table, where the
    routes it checks, :func:`cells.slice_partners` (a fiber's slices) and
    :func:`cells.slice_partner_arrays` (the Springer block pass), read
    each element's row of the :func:`matchings.partner_table` built from
    those arrays and one order bit per entry."""
    li = labeled_interval(system, x, top)
    partner = build_matching(li, order).partner
    return {y: li.ids[partner[k]] for k, y in enumerate(li.ids)}


def oracle_springer_member(system: CoxeterSystem, v: int, w: int, J, Jprime) -> bool:
    """The Springer membership conditions for one pair, tested one by one:
    v <= w; each i in J a left descent of w with v not <= s_i w; each j in
    J' a left ascent of v with s_j v not <= w."""
    if not system.bruhat_leq(v, w):
        return False
    for i in J:
        sw = system.left[w, i - 1]
        if system.length[sw] > system.length[w] or system.bruhat_leq(v, int(sw)):
            return False
    for j in Jprime:
        sv = system.left[v, j - 1]
        if system.length[sv] < system.length[v] or system.bruhat_leq(int(sv), w):
            return False
    return True


def oracle_coset_piece(system: CoxeterSystem, v: int, w: int, J) -> list[int]:
    """[v, w0] cap W_J w for a minimal-length representative w of W_J w."""
    J = system.check_subset(J)
    if system.descents(w, "left") & J:
        raise NotMinimalCosetRep(f"{system.word_str(w)} has a left descent in J={sorted(J)}")
    sub = system.parabolic(J)
    return sorted(
        x for x in (system.mul(a, w) for a in sub.elements) if system.bruhat_leq(v, x)
    )


def oracle_fiber_members(system: CoxeterSystem, K, lower: tuple[int, int],
                         upper: tuple[int, int]) -> list[tuple[int, int]]:
    """The fiber of the anchors (v', w') <= (v, w) by its defining condition
    over all of W_K x W_K, every comparison by the subword test: the pairs
    (a, b) with a <= b, v <= v'a <= w'b <= w, v'a circ_r b^{-1} = v' and
    l(v'a) = l(v') + l(a), in (a, b) order.  Reads neither the Bruhat
    order nor the bounds z and z'."""
    (vp, wp), (v, w) = lower, upper
    elems = system.parabolic(K).elements
    lvp = system.len_of(vp)
    out = []
    for a in elems:
        va = system.mul(vp, a)
        if system.len_of(va) != lvp + system.len_of(a) or not oracle_bruhat_leq(system, v, va):
            continue
        for b in elems:
            wb = system.mul(wp, b)
            if (oracle_bruhat_leq(system, a, b) and oracle_bruhat_leq(system, va, wb)
                    and oracle_bruhat_leq(system, wb, w)
                    and system.circ_r(va, system.inverse(b)) == vp):
                out.append((a, b))
    return out


def oracle_convexity(fp) -> bool:
    """Order convexity of a fiber poset ``fp`` by brute force over W_K:
    (a, b) in F and a <= a' <= b' <= b imply (a', b') in F."""
    system = fp.system
    members = set(fp.members)
    elems = system.parabolic(fp.K).elements
    for a, b in fp.members:
        for ap in elems:
            if not (system.bruhat_leq(a, ap) and system.bruhat_leq(ap, b)):
                continue
            for bp in elems:
                if not (system.bruhat_leq(ap, bp) and system.bruhat_leq(bp, b)):
                    continue
                if (ap, bp) not in members:
                    raise CorollaryFalsified(
                        f"convexity fails: ({system.word_str(ap)}, {system.word_str(bp)}) "
                        f"missing between ({system.word_str(a)}, {system.word_str(b)})"
                    )
    return True


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
    matched = {frozenset(p) for p in matching.pairs}
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
