"""Scalar group arithmetic read through memoryviews of the int32 tables,
checked against references that index the numpy tables directly."""

import itertools
import random

import numpy as np
import pytest

from coxmorse import coxeter
from coxmorse.reflection_orders import inversion_sequence

VIEWS = {"_right": "right", "_left": "left", "_inverse": "inverse_table",
         "_length": "length", "_first": "first_letter",
         "_left_descents": "left_descent_bits", "_right_descents": "right_descent_bits"}


def ref_letters(s, x):
    out = []
    while x != 0:
        g = int(s.first_letter[x])
        out.append(g)
        x = int(s.left[x, g])
    return out


def ref_mul(s, x, y):
    for g in ref_letters(s, y):
        x = int(s.right[x, g])
    return x


def ref_fold(s, z, letters, table, longer):
    for g in letters:
        zg = int(table[z, g])
        if (s.length[zg] > s.length[z]) == longer:
            z = zg
    return z


def ref_inversion_sequence(s, word):
    seq, prefix = [], 0
    for i in word:
        nxt = int(s.right[prefix, i - 1])
        seq.append(ref_mul(s, nxt, int(s.inverse_table[prefix])))
        prefix = nxt
    return tuple(seq)


def ref_descents(w, J, descent_bits):
    return {j for j in J if int(descent_bits[w]) >> (j - 1) & 1}


def check_pair(s, x, y, J):
    assert s.letters(x) == ref_letters(s, x)
    assert s.mul(x, y) == ref_mul(s, x, y)
    assert s.inverse(x) == int(s.inverse_table[x])
    assert s.len_of(x) == int(s.length[x])
    assert s.demazure_star(x, y) == ref_fold(s, x, ref_letters(s, y), s.right, True)
    assert s.circ_l(x, y) == ref_fold(s, y, reversed(ref_letters(s, x)), s.left, False)
    assert s.circ_r(x, y) == ref_fold(s, x, ref_letters(s, y), s.right, False)
    assert s.descents(x, "left") & J == ref_descents(x, J, s.left_descent_bits)
    assert s.descents(y, "right") & J == ref_descents(y, J, s.right_descent_bits)


def subsets(rank):
    return [set(c) for r in range(rank + 1) for c in itertools.combinations(range(1, rank + 1), r)]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_table_walks_match_numpy_indexing_everywhere(system, name):
    s = system(name)
    Js = subsets(s.rank)
    for x in range(s.size):
        for y in range(s.size):
            check_pair(s, x, y, Js[(x + y) % len(Js)])
        word = tuple(g + 1 for g in ref_letters(s, x)) + s.shortlex_reduced_word(s.w0)
        assert inversion_sequence(s, word) == ref_inversion_sequence(s, word)


def test_table_walks_match_numpy_indexing_on_h4_samples(system):
    s = system("H4")
    rng = random.Random(4)
    Js = subsets(s.rank)
    for k in range(10_000):
        x, y = rng.randrange(s.size), rng.randrange(s.size)
        check_pair(s, x, y, rng.choice(Js))
        if k < 200:   # the reference walks O(l^2) letters per word
            word = s.shortlex_reduced_word(x) + s.shortlex_reduced_word(y)
            assert inversion_sequence(s, word) == ref_inversion_sequence(s, word)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_parabolic_walk_gives_the_right_multiples(system, name):
    s = system(name)
    for J in subsets(s.rank):
        elems = s.parabolic(J).elements
        expected = [[s.mul(x, a) for a in elems] for x in range(s.size)]
        assert s.right_multiples(range(s.size), J) == expected
        assert s.right_multiples([5], J) == [expected[5]]


@pytest.mark.parametrize("name", ["A3", "H4"])
def test_views_share_the_table_buffers(system, name):
    s = system(name)
    for view, table in VIEWS.items():
        assert np.shares_memory(np.asarray(getattr(s, view)), getattr(s, table)), view
    assert np.shares_memory(np.asarray(s.bruhat._buf), s.bruhat.packed)


def test_a_non_contiguous_table_is_refused_not_copied():
    table = np.zeros((4, 4), dtype=np.int32)[:, ::2]
    with pytest.raises(TypeError):
        coxeter._flat(table)
