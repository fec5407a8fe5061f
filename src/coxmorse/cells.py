"""Posets of element pairs (x, y), x <= y, with cell dimension l(y) - l(x).

These appear as face posets of unions of cells: the order nests intervals,
(x', y') <= (x, y) iff x <= x' <= y' <= y (a larger pair is a larger cell).
Covers are the dimension-gap-one comparable pairs; that they generate the
whole order (gradedness of the face poset) is asserted, not assumed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .coxeter import CoxeterSystem
from .errors import TheoremFalsified
from .posets import FinitePoset, _transitive_closure_from_covers


def nested_pair_order(system: CoxeterSystem, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Order matrix for pair lists: entry [i, j] iff pair i <= pair j, i.e.
    v_j <= v_i <= w_i <= w_j."""
    v = np.asarray([p[0] for p in pairs], dtype=np.int32)
    w = np.asarray([p[1] for p in pairs], dtype=np.int32)
    b = system.bruhat
    v_ok = b[np.ix_(v, v)]    # v_ok[i, j] = v_i <= v_j
    w_ok = b[np.ix_(w, w)]
    return v_ok.T & w_ok      # v_j <= v_i and w_i <= w_j


def pair_poset(system: CoxeterSystem, pairs: Sequence[tuple[int, int]],
               leq: np.ndarray | None = None, what: str = "pair poset") -> FinitePoset:
    """Build the poset of cell pairs.  ``leq`` defaults to the nested-interval
    order; covers are dimension-gap-one pairs, and their closure is checked
    against the order (raising on a gradedness violation)."""
    pairs = [(int(a), int(b)) for a, b in pairs]
    n = len(pairs)
    if leq is None:
        leq = nested_pair_order(system, pairs)
    dims = tuple(system.len_of(b) - system.len_of(a) for a, b in pairs)
    dim_arr = np.asarray(dims, dtype=np.int32)
    strict = leq & ~np.eye(n, dtype=bool)
    gap_one = dim_arr[None, :] == dim_arr[:, None] + 1
    lo_idx, hi_idx = np.nonzero(strict & gap_one)
    covers = tuple((int(a), int(b), None) for a, b in zip(lo_idx, hi_idx))
    closure = _transitive_closure_from_covers(n, covers, dims)
    poset = FinitePoset(dims, leq, covers, tuple(pairs),
                        lambda p: f"({system.word_str(p[0])},{system.word_str(p[1])})")
    if not np.array_equal(closure, leq):
        i, j = map(int, np.argwhere(closure != leq)[0])
        raise TheoremFalsified(
            f"{what} is not graded by dimension: relation between {poset.names[i]} and "
            f"{poset.names[j]} disagrees with the cover closure"
        )
    return poset
