"""Total orders on the reflection set T, realized as inversion sequences.

For a finite group every reflection order arises as the inversion sequence
t_k = s_{i_1}...s_{i_{k-1}} s_{i_k} s_{i_{k-1}}...s_{i_1} of a reduced word
of w0, so orders are represented by their provenance word.  Two constrained
builders produce the orders needed by the certificate pipelines: one with
T cap W_J' first and T cap W_J last, one with the right inversions of a
fixed element first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .coxeter import CoxeterSystem, reduced_word_of_w0
from .errors import InvalidSubset, NotReducedWordOfW0, OverlappingSubsets, TheoremFalsified


@dataclass(frozen=True)
class ReflectionOrder:
    system: CoxeterSystem
    sequence: tuple[int, ...]          # reflection ids, position = rank
    word: tuple[int, ...]              # provenance reduced word of w0, 1-based

    @cached_property
    def rank(self) -> dict[int, int]:
        """Position of each reflection in the order."""
        return {t: k for k, t in enumerate(self.sequence)}

    def __repr__(self) -> str:
        word = ".".join(str(i) for i in self.word)
        return f"ReflectionOrder({word})"


def inversion_sequence(system: CoxeterSystem, word: Sequence[int]) -> tuple[int, ...]:
    """t_k sequence of a word (1-based letters); distinct iff the word is reduced.

    t_k = s_{i_1}...s_{i_{k-1}} s_{i_k} s_{i_{k-1}}...s_{i_1} is s_{i_k}
    conjugated by the letters of the prefix, innermost first."""
    conjugate, simple = system.conjugate, system.simple
    letters = [i - 1 for i in word]
    return tuple([conjugate(simple(i), letters[k - 1::-1] if k else ())
                  for k, i in enumerate(word)])


def order_from_reduced_word(system: CoxeterSystem, word: Sequence[int]) -> ReflectionOrder:
    word = tuple(word)
    reduced_word_of_w0(system, word)
    seq = inversion_sequence(system, word)
    if len(set(seq)) != len(seq):
        raise NotReducedWordOfW0("inversion sequence has repeats; word not reduced")
    return ReflectionOrder(system, seq, word)


def shortlex_order(system: CoxeterSystem) -> ReflectionOrder:
    return order_from_reduced_word(system, system.shortlex_reduced_word(system.w0))


def opposite(order: ReflectionOrder) -> ReflectionOrder:
    """The reversed order; its provenance is the star-reversed word.

    Reversing a word alone reverses the inversion sequence only up to
    conjugation by w0, so each letter is also pushed through the diagram
    involution i -> i* with s_{i*} = w0 s_i w0.
    """
    system = order.system
    word = tuple(system.star[i - 1] for i in reversed(order.word))
    out = order_from_reduced_word(system, word)
    if out.sequence != tuple(reversed(order.sequence)):
        raise TheoremFalsified(
            f"the star-reversed word of {order} in {system.matrix.label} does not "
            f"reverse its order"
        )
    return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: tuple[int, int, int] | None = None  # reflections breaking a dihedral run


def validate(system: CoxeterSystem, sequence: Sequence[int]) -> ValidationReport:
    """Check the dihedral condition: for every pair of reflections, the order
    restricted to the reflections of the dihedral subgroup they generate must
    run end-to-end (a, aba, ababa, ..., b) in one direction or the other."""
    seq = tuple(sequence)
    if sorted(seq) != sorted(system.reflections):
        raise InvalidSubset("sequence is not a permutation of the reflection set")
    rank = {t: k for k, t in enumerate(seq)}
    refl_set = system.reflection_set
    inv_sets = {
        t: frozenset(r for r in system.reflections
                     if system.len_of(system.mul(r, t)) < system.len_of(t))
        for t in system.reflections
    }
    done: set[frozenset[int]] = set()
    for a_i in range(len(seq)):
        for b_i in range(a_i + 1, len(seq)):
            t1, t2 = seq[a_i], seq[b_i]
            sub = _dihedral_closure(system, t1, t2)
            key = frozenset(sub)
            if key in done:
                continue
            done.add(key)
            tprime = [t for t in sub if t in refl_set]
            canonical = [t for t in tprime if inv_sets[t] & key == {t}]
            if len(canonical) != 2:
                raise TheoremFalsified(
                    f"dihedral subgroup of {system.word_str(t1)}, {system.word_str(t2)} in "
                    f"{system.matrix.label} has {len(canonical)} canonical generators, not 2"
                )
            a, b = canonical
            path = [a]
            ab = system.mul(a, b)
            cur = a
            while cur != b:
                cur = system.mul(ab, cur)
                path.append(cur)
            if sorted(path) != sorted(tprime):
                raise TheoremFalsified(
                    f"the walk from {system.word_str(a)} to {system.word_str(b)} in "
                    f"{system.matrix.label} misses reflections of their dihedral subgroup"
                )
            ranks = [rank[t] for t in path]
            if len(ranks) >= 3:
                increasing = all(x < y for x, y in zip(ranks, ranks[1:]))
                decreasing = all(x > y for x, y in zip(ranks, ranks[1:]))
                if not (increasing or decreasing):
                    k = next(k for k in range(1, len(ranks) - 1)
                             if not (ranks[k - 1] < ranks[k] < ranks[k + 1]
                                     or ranks[k - 1] > ranks[k] > ranks[k + 1]))
                    return ValidationReport(False, (path[k - 1], path[k], path[k + 1]))
    return ValidationReport(True)


def _dihedral_closure(system: CoxeterSystem, t1: int, t2: int) -> list[int]:
    seen = {t1, t2}
    queue = [t1, t2]
    while queue:
        x = queue.pop()
        for y in (t1, t2):
            z = system.mul(x, y)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return sorted(seen)


def _concat_order(system: CoxeterSystem, factors: Sequence[int]) -> ReflectionOrder:
    """Inversion order of the concatenated shortlex words of ``factors``;
    the factor lengths must be additive and the product must be w0."""
    word: list[int] = []
    for f in factors:
        word.extend(system.shortlex_reduced_word(f))
    return order_from_reduced_word(system, word)


def order_for_springer(system: CoxeterSystem, Jprime, J) -> ReflectionOrder:
    """A reflection order with T cap W_J' as initial segment and T cap W_J
    as final segment (J and J' disjoint).

    Realized as the inversion order of w0 = w_J' . (w_J' w0 w_J*) . w_J*,
    where J* is the image of J under the diagram involution; conjugating
    the final factor through w0 w_J* lands its reflections exactly on
    T cap W_J.  The segment properties are asserted on the result.
    """
    Jprime = system.check_subset(Jprime)
    J = system.check_subset(J)
    if Jprime & J:
        raise OverlappingSubsets(f"subsets overlap: {sorted(Jprime & J)}")
    J_star = frozenset(system.star[j - 1] for j in J)
    w_jp = system.longest(Jprime)
    w_jstar = system.longest(J_star)
    middle = system.mul(system.mul(w_jp, system.w0), w_jstar)
    order = _concat_order(system, [w_jp, middle, w_jstar])

    t_jprime = {t for t in system.reflections if system.in_parabolic(t, Jprime)}
    t_j = {t for t in system.reflections if system.in_parabolic(t, J)}
    n = len(order.sequence)
    head = set(order.sequence[: len(t_jprime)])
    tail = set(order.sequence[n - len(t_j):])
    if head != t_jprime or tail != t_j:
        raise TheoremFalsified(
            f"{order} in {system.matrix.label} does not start with T cap W_J' "
            f"(J'={sorted(Jprime)}) and end with T cap W_J (J={sorted(J)})"
        )
    return order


def order_for_fiber(system: CoxeterSystem, vprime: int) -> ReflectionOrder:
    """A reflection order whose initial segment is N_R(v'), realized as the
    inversion order of w0 = (v'^{-1}) . (v' w0).  The order depends on v'
    alone, so each system keeps the sequence, word and rank map of the
    orders it has built, once their initial segment has been checked.  It
    keeps no :class:`ReflectionOrder`, which would refer back to the system
    and keep a discarded system alive until the next full garbage
    collection."""
    kept = system._fiber_orders.get(vprime)
    if kept is not None:
        sequence, word, rank = kept
        order = ReflectionOrder(system, sequence, word)
        order.__dict__["rank"] = rank
        return order
    order = _concat_order(system, [system.inverse(vprime), system.mul(vprime, system.w0)])
    n_r = system.right_inversion_reflections(vprime)
    if set(order.sequence[: len(n_r)]) != n_r:
        raise TheoremFalsified(
            f"{order} in {system.matrix.label} does not start with N_R(v') "
            f"(v'={system.word_str(vprime)})"
        )
    system._fiber_orders[vprime] = order.sequence, order.word, order.rank
    return order
