"""Face posets of projection fibers between flag-variety cell complexes.

Q_K indexes the cells of the quotient complex by pairs (v, w) with w a
minimal right coset representative; comparing two pairs shifts one of them
by an element of W_K.  For comparable anchors the fiber poset F collects
pairs (a, b) in W_K x W_K subject to a Demazure condition; it is computed
here in four independent ways (the defining condition, plus three
reformulations through the bounds z and z' and the right inversion set of
v'), and the four sets are asserted equal.  Each way scans only the pairs
a <= b of its own candidate sets, so a fiber costs what its anchors
admit: the defining condition those with v <= v'a and w'b <= w, the
others [z, z'] cap W_K.  :func:`oracles.oracle_fiber_members` is the
route over all of W_K x W_K by the subword test (``fiber --paranoid``).
A reflection order with N_R(v') first, built once per v' and group
(:func:`reflection_orders.order_for_fiber`), induces a matching on F with
unique unmatched element (z~, z~), the top of the generalized quotient,
giving the contractibility certificate.  Its partners are read and
checked for all slices at once by the slice check that Z shares
(:func:`cells.slice_mates`), from a partner table built only for a
fiber with a slice.

F is order convex, so it is a lower set of the nesting poset of pairs and
is built from single steps by :func:`cells.ideal_poset`, which checks that
every single-step lower cover of a cell is a cell: that step rule proves
the convexity at build time (:func:`verify_convexity` only reports it),
and :func:`oracles.oracle_convexity` is its brute-force route over W_K
(``fiber --paranoid``).  :func:`cells.check_against_pair_poset` rebuilds F
by :func:`cells.pair_poset` as an oracle route of its covers.  Q_K
shifts pairs by W_K, which is no restriction of the nesting order, and is
built by :func:`cells.pair_poset`.  The products v'a, w'b and ta over a, b
in W_K come from one walk over W_K (:meth:`CoxeterSystem.right_multiples`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cells import ideal_poset, pair_poset, slice_matching
from .coxeter import CoxeterSystem
from .errors import (
    AnchorViolation,
    LemmaFalsified,
    NonUniqueMaximum,
    NotComparable,
    NotMinimalCosetRep,
    PropositionFalsified,
    TheoremFalsified,
)
from .matchings import Matching, MorseSummary
from .posets import FinitePoset, PackedOrder, check_order_size
from .reflection_orders import ReflectionOrder, order_for_fiber


@dataclass(frozen=True)
class QKPoset:
    system: CoxeterSystem
    K: frozenset[int]
    poset: FinitePoset   # its payload: the pairs (v, w), w in W^K, v <= w

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        return self.poset.payload

    @property
    def leq(self) -> PackedOrder:
        return self.poset.leq

    @property
    def index(self) -> Mapping[tuple[int, int], int]:
        return self.poset.index

    def leq_pairs(self, p: tuple[int, int], q: tuple[int, int]) -> bool:
        return self.leq.leq(self.index[p], self.index[q])


def build_qk(system: CoxeterSystem, K) -> QKPoset:
    """Pairs (v, w) with w in W^K and v <= w; (v', w') <= (v, w) iff some
    u in W_K satisfies v <= v'u <= w'u <= w.  The relation is verified to
    be a partial order graded by l(w) - l(v) (:func:`cells.pair_poset`;
    antisymmetry and transitivity are not assumed)."""
    K = system.check_subset(K)
    sub = system.parabolic(K)
    bru = system.bruhat
    # the members are the lower sets [e, w] of w in W^K: count them (in row
    # blocks) before any pair array exists
    counts = bru.block_counts(sub.min_right)
    check_order_size(sum(counts), "q_k relation")
    v, w = bru.nonzero(sub.min_right, counts)
    poset = pair_poset(system, np.column_stack((v, w)), "q_k relation", K)
    return QKPoset(system, K, poset)


def z_lower(system: CoxeterSystem, vprime: int, v: int, K) -> int:
    """z = v'^{-1} circ_l v; must land in W_K for comparable anchors."""
    K = system.check_subset(K)
    z = system.circ_l(system.inverse(vprime), v)
    if not system.in_parabolic(z, K):
        raise AnchorViolation(
            f"z = {system.word_str(z)} is not in the parabolic subgroup of K={sorted(K)}"
        )
    return z


def _below(system: CoxeterSystem, elems: tuple[int, ...], top: int) -> list[int]:
    """The a in ``elems`` (ascending ids) with a <= top.  Ids are sorted by
    length, so a <= top implies a <= top as ids, and only the ids up to
    top are read."""
    leq = system.bruhat.leq
    return [a for a in elems[:bisect_right(elems, top)] if leq(a, top)]


def z_upper(system: CoxeterSystem, wprime: int, w: int, K, hits=None) -> int:
    """The set {a in W_K : w'a <= w} is a lower interval [e, z'] of W_K;
    return z', raising if the interval shape fails.  ``hits``, if given,
    is that set in id order, as the caller's own scan of W_K found it.

    Requires w' to be a minimal right coset representative: without that,
    the interval shape genuinely fails (w' = s1, w = s2 s1, K = {1, 2}
    yields {e, s1, s1 s2, s1 s2 s1}, which is not a lower interval).

    Ids are sorted by length, so the last hit is a longest one, z'
    whenever the shape holds; the hits must then be the a in W_K below
    it.  Only if they are not are the maximal hits compared pairwise, to
    say what fails.
    """
    K = system.check_subset(K)
    if system.descents(wprime, "right") & K:
        raise NotMinimalCosetRep(
            f"{system.word_str(wprime)} has a right descent in K={sorted(K)}"
        )
    if not system.bruhat_leq(wprime, w):
        raise NotComparable(f"{system.word_str(wprime)} is not <= {system.word_str(w)}")
    leq = system.bruhat.leq
    elems = system.parabolic(K).elements
    if hits is None:
        hits = [a for a, wa in zip(elems, system.right_multiples([wprime], K)[0])
                if leq(wa, w)]
    if not hits:
        raise LemmaFalsified("upper-bound set does not even contain e")
    zp = hits[-1]
    if hits == _below(system, elems, zp):
        return zp
    maxes = [a for a in hits if not any(b != a and leq(a, b) for b in hits)]
    if len(maxes) != 1:
        raise LemmaFalsified(
            f"upper-bound set has {len(maxes)} maximal elements: "
            f"{[system.word_str(a) for a in maxes]}"
        )
    raise LemmaFalsified("upper-bound set is not the full lower interval [e, z']")


@dataclass(frozen=True)
class FiberPoset:
    system: CoxeterSystem
    K: frozenset[int]
    anchors: tuple[tuple[int, int], tuple[int, int]]  # (v', w') <= (v, w)
    z: int
    z_prime: int
    poset: FinitePoset   # its payload: the pairs (a, b)

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        return self.poset.payload

    @property
    def index(self) -> Mapping[tuple[int, int], int]:
        return self.poset.index

    @property
    def vprime(self) -> int:
        return self.anchors[0][0]


def build_fiber_poset(qk: QKPoset, lower: tuple[int, int], upper: tuple[int, int]) -> FiberPoset:
    """Compute F four independent ways and assert they agree:

    (i)   a <= b, v <= v'a <= w'b <= w, v'a circ_r b^{-1} = v', additive length;
    (ii)  z <= a <= b <= z' and v'a circ_r b^{-1} = v';
    (iii) z <= a <= b <= z' and ta not<= b for every t in N_R(v');
    (iv)  z <= a <= b <= z', l(v'a) = l(v') + l(a), and ta not<= b for every
          t in N_R(v') with a covered by ta.

    (iv) is the production path; the others are recomputed as a check.
    Without its explicit additivity guard, (iv) would wrongly admit pairs
    whose only witnessing t in N_R(v') moves a downward (e.g. diagonal
    pairs (a, a) with l(v'a) < l(v') + l(a)); (i)-(iii) exclude those
    through the length or inversion conditions.

    Each description is scanned on the pairs a <= b of its own candidate
    sets, the conditions with one end fixed: (i) on a with v <= v'a
    times b with w'b <= w, so that it reads neither z nor z'; (ii)-(iv) on
    [z, z'] cap W_K twice over.  The lists are in (a, b) order.  W_K is
    walked once (:meth:`CoxeterSystem.right_multiples`), and z' is read
    from the scan for w'b <= w (:func:`z_upper`).
    :func:`oracles.oracle_fiber_members` tests (i) on all of W_K x W_K by
    the subword test (``fiber --paranoid``).
    """
    system = qk.system
    if lower not in qk.index or upper not in qk.index:
        raise NotComparable("anchors must be members of the cell poset")
    if not qk.leq_pairs(lower, upper):
        raise NotComparable(f"anchors are not comparable: {lower} !<= {upper}")
    (vp, wp), (v, w) = lower, upper
    z = z_lower(system, vp, v, qk.K)
    elems = system.parabolic(qk.K).elements
    n_r = system.right_inversion_reflections(vp)
    length, leq = system.length, system.bruhat.leq
    lvp = length[vp]

    # a -> (v'a, w'a, t a for t in N_R(v')), from one walk over W_K
    prod = dict(zip(elems, zip(*system.right_multiples([vp, wp, *n_r], qk.K))))
    # the candidate sets, one Bruhat read per element of W_K each
    above_v = [a for a in elems if leq(v, prod[a][0])]   # v <= v'a
    below_w = [b for b in elems if leq(prod[b][1], w)]   # w'b <= w
    zp = z_upper(system, wp, w, qk.K, below_w)
    below_zp = _below(system, elems, zp)
    # t a over t in N_R(v'), for the a in [z, z'], which (iii)-(iv) read
    t_a = {a: prod[a][2:] for a in below_zp[bisect_left(below_zp, z):] if leq(z, a)}
    above_z = list(t_a)                                  # z <= a <= z'
    inv = {b: system.inverse(b) for b in {*below_w, *below_zp}}

    def in_i(a: int, b: int) -> bool:
        va = prod[a][0]
        return (leq(va, prod[b][1]) and system.circ_r(va, inv[b]) == vp
                and length[va] == lvp + length[a])

    def in_ii(a: int, b: int) -> bool:
        return system.circ_r(prod[a][0], inv[b]) == vp

    def in_iii(a: int, b: int) -> bool:
        return not any(leq(ta, b) for ta in t_a[a])

    def in_iv(a: int, b: int) -> bool:
        la = length[a]
        if length[prod[a][0]] != lvp + la:
            return False
        for ta in t_a[a]:
            if length[ta] == la + 1 and leq(ta, b):
                return False
        return True

    def scan(above: list[int], below: list[int]) -> list[tuple[int, int]]:
        return [(a, b) for a in above for b in below if leq(a, b)]

    chains = scan(above_z, below_zp)
    members = [p for p in chains if in_iv(*p)]
    for tag, pairs, pred in (("defining", scan(above_v, below_w), in_i),
                             ("interval", chains, in_ii), ("inversion", chains, in_iii)):
        alt = [p for p in pairs if pred(*p)]
        if alt != members:
            diff = set(alt) ^ set(members)
            raise PropositionFalsified(
                f"fiber descriptions disagree ({tag} vs cover-restricted): "
                f"{[(system.word_str(a), system.word_str(b)) for a, b in sorted(diff)]}"
            )
    if not members:
        raise TheoremFalsified("fiber poset is empty for comparable anchors")
    poset = ideal_poset(system, members, "fiber pair poset")
    return FiberPoset(system, qk.K, (lower, upper), z, zp, poset)


@dataclass(frozen=True)
class GeneralizedQuotient:
    """Members a of [z, z'] with l(v'a) = l(v') + l(a), i.e. the diagonal
    slice {a : (a, a) in F}; z~ is its unique maximal element."""

    vprime: int
    z: int
    z_prime: int
    members: tuple[int, ...]
    z_tilde: int


def generalized_quotient(fp: FiberPoset) -> GeneralizedQuotient:
    """The generalized quotient of F, computed from [z, z'] cap W_K (read
    only over the ids from z to z', see :func:`_below`) and checked to be
    the diagonal of F.

    Ids are sorted by length, so its last member is a longest one; it is
    z~ once every member is below it, which makes it the unique maximal
    element.  Only if some member is not below it are the maximal members
    compared pairwise, to say how many there are.  Below z~ one must
    always be able to step up by a Bruhat cover inside the quotient."""
    system = fp.system
    vp = fp.vprime
    lvp = system.len_of(vp)
    leq, length, mul = system.bruhat.leq, system.len_of, system.mul
    elems, z, zp = system.parabolic(fp.K).elements, fp.z, fp.z_prime
    members = [a for a in elems[bisect_left(elems, z):bisect_right(elems, zp)]
               if leq(z, a) and leq(a, zp) and length(mul(vp, a)) == lvp + length(a)]
    diag = sorted(a for a, b in fp.members if a == b)
    if members != diag:
        raise PropositionFalsified(
            "generalized quotient differs from the diagonal of the fiber poset"
        )
    zt = members[-1]
    if not all(leq(a, zt) for a in members):
        maxes = [a for a in members if not any(b != a and leq(a, b) for b in members)]
        raise NonUniqueMaximum(
            f"generalized quotient has {len(maxes)} maximal elements: "
            f"{[system.word_str(a) for a in maxes]}"
        )
    # gradedness: below z~ one can always step up by a cover inside the
    # quotient (every member is below z~, so such a cover is too)
    mem, up = set(members), system.bruhat_covers_up
    for a in members:
        if a != zt and not any(u in mem for u, _ in up(a)):
            raise TheoremFalsified(
                f"no quotient cover step above {system.word_str(a)} toward z~"
            )
    return GeneralizedQuotient(vp, fp.z, fp.z_prime, tuple(members), zt)


def fiber_slices(fp: FiberPoset) -> tuple[tuple | None, ReflectionOrder, int, str]:
    """What :func:`cells.slice_matching` assembles the fiber matching from:
    the slices, the reflection order, the apex cell and the poset's name.

    Each a of the generalized quotient but z~ gives the slice
    P_a = {b : (a, b) in F} of [a, z'], under a reflection order with
    N_R(v') first (:func:`reflection_orders.order_for_fiber`); P_a must
    be a singleton iff a = z~, and the apex is (z~, z~).  The P_a are
    read off F in one pass.  The slices are (bases, z', rows), row k the
    P_a of a = bases[k] over W, or None if z~ is the only a."""
    system = fp.system
    gq = generalized_quotient(fp)
    order = order_for_fiber(system, fp.vprime)
    p = {a: [] for a in gq.members}
    for a, b in fp.members:
        if a in p:
            p[a].append(b)
    for a, p_a in p.items():
        if (p_a == [a]) != (a == gq.z_tilde):
            raise TheoremFalsified(
                f"slice at {system.word_str(a)} is a singleton iff a = z~ failed"
            )
    bases = [a for a in p if a != gq.z_tilde]
    slices = None
    if bases:
        rows = np.zeros((len(bases), system.size), dtype=bool)
        for k, a in enumerate(bases):
            rows[k, p[a]] = True
        slices = np.array(bases), fp.z_prime, rows
    what = f"fiber pair poset (K={sorted(fp.K)})"
    return slices, order, fp.index[(gq.z_tilde, gq.z_tilde)], what


def fiber_matching(fp: FiberPoset) -> tuple[Matching, MorseSummary]:
    """The fiber matching, assembled slice by slice over the generalized
    quotient (:func:`fiber_slices`, :func:`cells.slice_matching`); the
    unique unmatched element is (z~, z~)."""
    return slice_matching(fp.system, fp.poset, *fiber_slices(fp))


def verify_convexity(fp: FiberPoset) -> bool:
    """Order convexity: (a, b) in F and a <= a' <= b' <= b imply (a', b') in
    F, i.e. F is a lower set of the nesting poset.  Always True: every
    fiber poset is built by :func:`cells.ideal_poset`, whose step rule
    (:func:`cells.step_covers`) has proved it, one step at a time, or
    raised.  :func:`oracles.oracle_convexity` is the brute-force route
    (``fiber --paranoid``)."""
    return True
