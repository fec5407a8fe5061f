"""Seeded input generators.  The same seed always gives the same inputs;
the library only ever sees the generated words, intervals and anchors."""

from __future__ import annotations

import random

import numpy as np

from coxmorse import reflection_orders


def random_w0_word(system, rng: random.Random) -> list[int]:
    """A reduced word of w0 drawn as a random ascent from e: each step
    appends a generator chosen uniformly among the right ascents."""
    x, word = 0, []
    while x != system.w0:
        ascents = [g for g in range(system.rank)
                   if system.length[system.right[x, g]] > system.length[x]]
        g = rng.choice(ascents)
        word.append(g + 1)
        x = int(system.right[x, g])
    return word


def random_orders(system, rng: random.Random, count: int) -> list:
    return [reflection_orders.order_from_reduced_word(system, random_w0_word(system, rng))
            for _ in range(count)]


def cover_walk_queries(system, rng: random.Random, count: int, max_rank: int,
                       n_orders: int) -> list[tuple[int, int, int]]:
    """``count`` queries (v, w, order index): the rank r is uniform in
    1..max_rank, w is uniform among elements of length >= r, and v is
    reached from w by r steps down uniformly chosen Bruhat covers."""
    out = []
    for _ in range(count):
        r = rng.randint(1, max_rank)
        w = rng.randrange(system.size)
        while system.len_of(w) < r:
            w = rng.randrange(system.size)
        v = w
        for _ in range(r):
            v = rng.choice(system.bruhat_covers_down(v))[0]
        out.append((v, w, rng.randrange(n_orders)))
    return out


def sample_anchors(qk, rng: random.Random, count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """``count`` comparable anchor pairs of Q_K, uniform with replacement,
    so that every K contributes the same number of fiber instances."""
    lo, hi = np.nonzero(qk.leq)
    picks = rng.choices(range(len(lo)), k=count)
    return [(qk.members[int(lo[k])], qk.members[int(hi[k])]) for k in picks]


def subsets(rank: int) -> list[frozenset[int]]:
    """Every generator subset K, in binary order."""
    return [frozenset(i + 1 for i in range(rank) if r >> i & 1) for r in range(1 << rank)]
