"""Spans around calls into coxmorse's public functions, for the traced run.

Tracing is installed from the benchmark's side: each listed function is
replaced, in every ``coxmorse`` module namespace that holds it, by a wrapper
that records a span (name, start, end, parent) in memory.  Methods are
patched on ``CoxeterSystem`` and the lazily built Bruhat closure through its
``cached_property``.  ``bruhat_leq`` is called millions of times and gets a
call counter only.  Nothing in the program itself changes; ``uninstall``
puts every original back.

Self time of a span is its duration minus the durations of its direct
children.  All calls run on one thread, so children never overlap and the
self times of all spans add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from coxmorse import coxeter

# Spanned functions, by (module, attribute).  A dotted attribute names a
# method of a class in that module.
SPANNED = [
    ("coxeter", "build_system"),
    ("coxeter", "CoxeterSystem.comparable_pairs"),
    ("coxeter", "CoxeterSystem.interval_ids"),
    ("matchings", "labeled_interval"),
    ("matchings", "build_matching"),
    ("matchings", "is_acyclic"),
    ("matchings", "verify_shelling_subsets"),
    ("matchings", "morse_counts"),
    ("cells", "pair_poset"),
    ("springer", "build_springer_poset"),
    ("springer", "build_slices"),
    ("springer", "springer_matching"),
    ("fibers", "build_qk"),
    ("fibers", "build_fiber_poset"),
    ("fibers", "verify_convexity"),
    ("fibers", "generalized_quotient"),
    ("fibers", "fiber_matching"),
    ("reflection_orders", "order_for_fiber"),
    ("reflection_orders", "order_for_springer"),
    ("posets", "check_el_labeling"),
    ("posets", "is_thin"),
    ("oracles", "oracle_demazure"),
    ("verify", "run_level"),
]
CHECKS = [
    "check_golden_fixture", "check_matchings", "check_shelling", "check_el_properties",
    "check_springer", "check_fibers", "check_demazure", "check_reflection_orders",
    "check_thinness",
]
SPANNED += [("verify", name) for name in CHECKS]
COUNTED = [("coxeter", "CoxeterSystem.bruhat_leq")]
CLOSURE = "coxeter.bruhat_closure"
# spans whose growth of the process's peak RSS is recorded
RSS_SPANS = {CLOSURE, "cells.pair_poset", "fibers.build_qk"}

# Every per-layer metric of the traced run: (name, unit, better).
PER_LAYER = [
    ("coxeter.build_system.self_s", "s", "lower"),
    ("coxeter.bruhat_closure.s", "s", "lower"),
    ("coxeter.bruhat_closure.bytes", "bytes", "lower"),
    ("coxeter.bruhat_closure.rss_growth_mb", "MB", "lower"),
    ("coxeter.comparable_pairs.self_s", "s", "lower"),
    ("coxeter.comparable_pairs.calls", "count", "lower"),
    ("coxeter.interval_ids.self_s", "s", "lower"),
    ("coxeter.interval_ids.calls", "count", "lower"),
    ("coxeter.bruhat_leq.calls", "count", "lower"),
    ("matchings.labeled_interval.self_s", "s", "lower"),
    ("matchings.labeled_interval.calls", "count", "lower"),
    ("matchings.labeled_interval.elements", "count", "lower"),
    ("matchings.build_matching.self_s", "s", "lower"),
    ("matchings.is_acyclic.self_s", "s", "lower"),
    ("matchings.is_acyclic.nodes", "count", "lower"),
    ("matchings.verify_shelling_subsets.self_s", "s", "lower"),
    ("matchings.morse_counts.self_s", "s", "lower"),
    ("cells.pair_poset.self_s", "s", "lower"),
    ("cells.pair_poset.cells", "count", "lower"),
    ("cells.pair_poset.order_bytes", "bytes", "lower"),
    ("cells.pair_poset.rss_growth_mb", "MB", "lower"),
    ("springer.build_springer_poset.self_s", "s", "lower"),
    ("springer.member_ratio", "ratio", "higher"),
    ("springer.build_slices.self_s", "s", "lower"),
    ("springer.springer_matching.self_s", "s", "lower"),
    ("fibers.build_qk.self_s", "s", "lower"),
    ("fibers.build_qk.members", "count", "lower"),
    ("fibers.build_qk.matmul_flops", "flop", "lower"),
    ("fibers.build_qk.float32_bytes", "bytes", "lower"),
    ("fibers.build_qk.rss_growth_mb", "MB", "lower"),
    ("fibers.build_fiber_poset.self_s", "s", "lower"),
    ("fibers.build_fiber_poset.member_ratio", "ratio", "higher"),
    ("fibers.verify_convexity.self_s", "s", "lower"),
    ("fibers.generalized_quotient.self_s", "s", "lower"),
    ("fibers.fiber_matching.self_s", "s", "lower"),
    ("reflection_orders.order_for_fiber.self_s", "s", "lower"),
    ("reflection_orders.order_for_fiber.calls", "count", "lower"),
    ("reflection_orders.order_for_springer.self_s", "s", "lower"),
    *[(f"verify.{name}.s", "s", "lower") for name in CHECKS],
    ("verify.run_level.self_s", "s", "lower"),
    ("posets.check_el_labeling.self_s", "s", "lower"),
    ("posets.is_thin.self_s", "s", "lower"),
    ("oracles.oracle_demazure.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()    # count-only wrappers
        self.stats: Counter[str] = Counter()    # sums and maxima from after-hooks
        self._patched: list[tuple[object, str, object]] = []
        self._closure = None

    # -- recording --------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            rss0 = _maxrss_mb() if rss else 0.0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
                if rss:
                    tracer.stats[name + ".rss_growth_mb"] += _maxrss_mb() - rss0
            if after is not None:
                after(tracer.stats, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for mod, attr in SPANNED:
            self._patch(mod, attr, self._spanned)
        for mod, attr in COUNTED:
            self._patch(mod, attr, self._counted)
        closure = coxeter.CoxeterSystem.__dict__["bruhat"]
        self._closure = (closure, closure.func)
        closure.func = self._spanned(CLOSURE, closure.func)

    def _patch(self, mod: str, attr: str, make) -> None:
        name = f"{mod}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"coxmorse.{mod}"], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, make(name, orig))
            return
        orig = getattr(sys.modules[f"coxmorse.{mod}"], attr)
        wrapped = make(name, orig)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "coxmorse" and getattr(module, attr, None) is orig:
                self._patched.append((module, attr, orig))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        if self._closure is not None:
            closure, func = self._closure
            closure.func = func
            self._closure = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- deriving metrics ---------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        done = [s for s in self.spans if s is not None]
        child = [0.0] * len(done)
        for name, t0, t1, parent in done:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, t0, t1, _) in enumerate(done):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
        return out

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        agg = self.aggregate()
        values: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if name in self.stats:
                values[name] = float(self.stats[name])
            elif base in agg and field in ("self_s", "s", "calls"):
                values[name] = float(agg[base][field])
            elif field == "calls":
                values[name] = float(self.calls[base])
            else:
                values[name] = 0.0
        stats = self.stats
        values["springer.member_ratio"] = _ratio(stats["springer.members"], stats["springer.scanned"])
        values["fibers.build_fiber_poset.member_ratio"] = _ratio(stats["fibers.members"],
                                                                 stats["fibers.box"])
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.self_sum_s"] = sum(row["self_s"] for row in agg.values())
        return values

    def dump(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent], ...]}."""
        names: dict[str, int] = {}
        rows = []
        for name, t0, t1, parent in (s for s in self.spans if s is not None):
            rows.append([names.setdefault(name, len(names)), round(t0, 9), round(t1, 9), parent])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counters measured at the spanned calls ------------------------------------


def _after_closure(stats, args, out) -> None:
    stats["coxeter.bruhat_closure.bytes"] += out.nbytes


def _after_labeled_interval(stats, args, out) -> None:
    stats["matchings.labeled_interval.elements"] += out.poset.n


def _after_is_acyclic(stats, args, out) -> None:
    stats["matchings.is_acyclic.nodes"] += args[0].n


def _after_pair_poset(stats, args, out) -> None:
    stats["cells.pair_poset.cells"] += out.n
    key = "cells.pair_poset.order_bytes"
    stats[key] = max(stats[key], out.leq.nbytes)


def _after_springer_poset(stats, args, out) -> None:
    stats["springer.members"] += len(out.members)
    stats["springer.scanned"] += int(np.count_nonzero(args[0].bruhat))


def _after_build_qk(stats, args, out) -> None:
    n = len(out.members)
    stats["fibers.build_qk.members"] += n
    stats["fibers.build_qk.matmul_flops"] += 2 * n ** 3
    key = "fibers.build_qk.float32_bytes"
    stats[key] = max(stats[key], 2 * 4 * n * n)   # two float32 copies of the order


def _after_fiber_poset(stats, args, out) -> None:
    elems = list(out.system.parabolic(out.K).elements)
    stats["fibers.members"] += len(out.members)
    stats["fibers.box"] += int(np.count_nonzero(out.system.bruhat[np.ix_(elems, elems)]))


_AFTER = {
    CLOSURE: _after_closure,
    "matchings.labeled_interval": _after_labeled_interval,
    "matchings.is_acyclic": _after_is_acyclic,
    "cells.pair_poset": _after_pair_poset,
    "springer.build_springer_poset": _after_springer_poset,
    "fibers.build_qk": _after_build_qk,
    "fibers.build_fiber_poset": _after_fiber_poset,
}
