"""Output-correctness checks, run outside the timed calls.

Each function returns a list of problems (empty when the output is right).
The checks re-derive what they can by routes other than the code being
timed: involution and unmatched cells by ``oracle_unmatched_scan``, matched
pairs against the poset's own cover list, acyclicity by a topological sort
of the Morse digraph, and interval membership by a downward cover search
filtered with the subword oracle ``oracle_bruhat_leq``.  What the library
can only report by raising (``verify_convexity``, the shelling partition,
the reflexivity of Q_K) is left to ``Meter.call``, which counts a raising
instance as failed.
"""

from __future__ import annotations

from collections import deque

from coxmorse import oracles
from coxmorse.errors import NotAMatching


def has_cycle(poset, partner) -> bool:
    """Kahn's topological sort of the Hasse diagram with matched covers
    oriented up and all others down; a cycle leaves some element unsorted."""
    out: list[list[int]] = [[] for _ in range(poset.n)]
    indegree = [0] * poset.n
    for lo, hi, _ in poset.covers:
        src, dst = (lo, hi) if partner[lo] == hi else (hi, lo)
        out[src].append(dst)
        indegree[dst] += 1
    ready = deque(x for x in range(poset.n) if indegree[x] == 0)
    sorted_count = 0
    while ready:
        x = ready.popleft()
        sorted_count += 1
        for y in out[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return sorted_count < poset.n


def matching_problems(poset, matching, summary, unmatched: tuple[int, ...] | None) -> list[str]:
    """A matching must be an acyclic involution on cover edges whose fixed
    points agree with the Morse summary.  ``unmatched`` pins the expected
    fixed points; None skips that comparison."""
    try:
        scan = tuple(oracles.oracle_unmatched_scan(poset, matching))
    except NotAMatching as exc:
        return [f"partner map: {exc}"]
    covers = {(min(lo, hi), max(lo, hi)) for lo, hi, _ in poset.covers}
    problems = [f"matched pair ({i}, {p}) is not a cover"
                for i, p in enumerate(matching.partner) if i < p and (i, p) not in covers]
    if scan != tuple(summary.unmatched):
        problems.append(f"unmatched rescan {scan} != summary {summary.unmatched}")
    if unmatched is not None and scan != unmatched:
        problems.append(f"unmatched cells {scan}, expected {unmatched}")
    if has_cycle(poset, matching.partner):
        problems.append("matching has a directed cycle")
    return problems


def interval_problems(li, results) -> list[str]:
    """Every interval matching is complete and acyclic."""
    problems = []
    for matching, _, summary in results:
        problems += matching_problems(li.poset, matching, summary, ())
    return problems


def interval_oracle_problems(system, li) -> list[str]:
    """Recompute [v, w] as the elements reached from w down Bruhat covers
    while staying above v by the subword oracle (intervals are graded, so
    every member is reached), and compare with the extracted interval."""
    v, w = li.v, li.w
    seen, stack = {w}, [w]
    while stack:
        y = stack.pop()
        for x, _ in system.bruhat_covers_down(y):
            if x not in seen and oracles.oracle_bruhat_leq(system, v, x):
                seen.add(x)
                stack.append(x)
    if seen != set(li.ids):
        return [f"interval [{v}, {w}] has {len(li.ids)} members, oracle finds {len(seen)}"]
    return []


def springer_problems(sp, matching, summary, euler: int) -> list[str]:
    apex = sp.index[(sp.apex, sp.apex)]
    problems = matching_problems(sp.poset, matching, summary, (apex,))
    if not summary.certificate:
        problems.append("no contractibility certificate")
    if euler != 1:
        problems.append(f"euler characteristic {euler} != 1")
    return problems


def qk_problems(qk) -> list[str]:
    system, K = qk.system, qk.K
    bad = [(v, w) for v, w in qk.members
           if system.descents(w, "right") & K or not oracles.oracle_bruhat_leq(system, v, w)]
    return [f"{len(bad)} Q_K members are not (v <= w, w in W^K)"] if bad else []


def fiber_problems(fp, matching, summary) -> list[str]:
    problems = matching_problems(fp.poset, matching, summary, None)
    fixed = summary.unmatched
    if len(fixed) != 1 or fp.members[fixed[0]][0] != fp.members[fixed[0]][1]:
        problems.append(f"unmatched fiber cells {fixed} are not one diagonal pair")
    if not summary.certificate:
        problems.append("no contractibility certificate")
    return problems

