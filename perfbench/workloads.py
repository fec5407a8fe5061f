"""The benchmark's workloads: set-up, one closed-loop pass, and the gate.

A workload's ``setup(seed)`` builds the group, its Bruhat closure, the
reflection orders and the instance list; ``run_pass(state, meter, first)``
runs every instance once, one after another, timing each through the
meter and checking its outputs after the timer stops.  Pinned instance
counts are checked by ``check_setup``.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from time import perf_counter

from coxmorse import coxeter, fibers, matchings, posets, springer, verify

import gate
import inputs


class Meter:
    """Latency samples and failure counts of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.check_times: dict[str, list] = {}   # suite check: [seconds, instances]
        self.samples = 0          # independently timed calls
        self.busy = 0.0           # seconds spent inside timed calls
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def call(self, fn, *args):
        """Time one instance; an exception counts it as failed."""
        self.attempted += 1
        self.samples += 1
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception:  # one failing instance must not end the run
            self.fail(traceback.format_exc(limit=3))
            return None
        finally:
            dt = perf_counter() - t0
            self.latencies.append(dt)
            self.busy += dt

    def latency_samples(self) -> list[float]:
        """Every instance latency; a suite instance gets its check's mean
        time per instance over all passes."""
        out = list(self.latencies)
        for seconds, count in self.check_times.values():
            out += [seconds / count] * count
        return out

    def check(self, problems: list[str]) -> None:
        """Count the last instance as failed if its outputs have problems."""
        if problems:
            self.fail("; ".join(problems[:3]))

    def pin(self, what: str, got: int, want: int | None) -> None:
        if want is not None and got != want:
            self.fail(f"{what}: {got}, pinned {want}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


ORDERS = 5     # seeded reflection orders per interval workload
ANCHORS = 50   # seeded anchor pairs per K in the cells workload


def _pipeline(li, order):
    """The `coxmorse matching` pipeline on an extracted interval."""
    m = matchings.build_matching(li, order)
    shelling = matchings.verify_shelling_subsets(li, order, m)
    summary = matchings.morse_counts(li.poset, m)
    return m, shelling, summary


def _interval_instance(system, v, w, orders):
    li = matchings.labeled_interval(system, v, w)
    return li, [_pipeline(li, order) for order in orders]


@dataclass(frozen=True)
class Intervals:
    """Interval matchings.  With ``queries`` unset, every nontrivial
    interval is an instance run under all ``ORDERS`` orders; otherwise each of
    ``queries`` cover-walk intervals of rank 1-5 is run under one order."""

    group: str
    queries: int | None = None
    oracle_sample: int = 0
    pinned_intervals: int | None = None

    def setup(self, seed: int):
        rng = random.Random(seed)
        system = coxeter.build_system(self.group)
        system.bruhat
        orders = inputs.random_orders(system, rng, ORDERS)
        if self.queries is None:
            items = [(v, w, orders) for v, w in system.comparable_pairs(strict=True)]
        else:
            items = [(v, w, (orders[k],)) for v, w, k in
                     inputs.cover_walk_queries(system, rng, self.queries, 5, len(orders))]
        sample = set(rng.sample(range(len(items)), min(self.oracle_sample, len(items))))
        return system, items, sample

    def check_setup(self, state, meter: Meter) -> None:
        meter.pin("nontrivial intervals", len(state[1]), self.pinned_intervals)

    def run_pass(self, state, meter: Meter, first: bool) -> None:
        system, items, sample = state
        for k, (v, w, orders) in enumerate(items):
            out = meter.call(_interval_instance, system, v, w, orders)
            if out is not None:
                li, results = out
                problems = gate.interval_problems(li, results)
                if first and k in sample:
                    problems += gate.interval_oracle_problems(system, li)
                meter.check(problems)


def _springer_instance(system, J, Jp):
    sp = springer.build_springer_poset(system, J, Jp)
    m, summary = springer.springer_matching(sp)
    return sp, m, summary, posets.euler_characteristic(sp.poset)


def _fiber_instance(qk, lower, upper):
    fp = fibers.build_fiber_poset(qk, lower, upper)
    fibers.verify_convexity(fp)
    m, summary = fibers.fiber_matching(fp)
    return fp, m, summary


@dataclass(frozen=True)
class Cells:
    """Springer certificates on every disjoint (J, J'), then Q_K for every
    K, each followed by fiber certificates on ``ANCHORS`` sampled anchor
    pairs of that Q_K."""

    group: str
    pinned_pairs: int | None = None
    pinned_ks: int | None = None

    def setup(self, seed: int):
        system = coxeter.build_system(self.group)
        system.bruhat
        pairs = list(verify.disjoint_pairs(system.rank))
        return system, pairs, inputs.subsets(system.rank), seed

    def check_setup(self, state, meter: Meter) -> None:
        _, pairs, ks, _ = state
        meter.pin("springer (J, J') pairs", len(pairs), self.pinned_pairs)
        meter.pin("subsets K", len(ks), self.pinned_ks)

    def run_pass(self, state, meter: Meter, first: bool) -> None:
        system, pairs, ks, seed = state
        for J, Jp in pairs:
            out = meter.call(_springer_instance, system, J, Jp)
            if out is not None:
                meter.check(gate.springer_problems(*out))
        for r, K in enumerate(ks):
            qk = meter.call(fibers.build_qk, system, K)
            if qk is None:
                continue
            meter.check(gate.qk_problems(qk))
            rng = random.Random(seed * 1024 + r)
            for lower, upper in inputs.sample_anchors(qk, rng, ANCHORS):
                out = meter.call(_fiber_instance, qk, lower, upper)
                if out is not None:
                    meter.check(gate.fiber_problems(*out))


@dataclass(frozen=True)
class Suite:
    """``verify.run_level(level)`` at its default settings.  Set-up is the
    work run_level does before its first check: building the level's task
    list (its groups and the orders computed ahead of the checks); run_level
    then builds its own again.  A latency sample is one instance, taken as
    the mean time per instance of its check over all passes (the check times
    itself), since run_level does not expose single instances; only the
    checks count as independent samples."""

    level: str
    pinned_instances: int | None = None

    def setup(self, seed: int):
        return getattr(verify, f"_{self.level}_tasks")()

    def check_setup(self, state, meter: Meter) -> None:
        pass

    def run_pass(self, state, meter: Meter, first: bool) -> None:
        t0 = perf_counter()
        try:
            reports = verify.run_level(self.level)
        except Exception:  # a raising sweep fails the whole pass
            meter.attempted += 1
            meter.samples += 1
            meter.latencies.append(perf_counter() - t0)
            meter.fail(traceback.format_exc(limit=3))
            return
        finally:
            meter.busy += perf_counter() - t0
        count = sum(r.instances for r in reports)
        meter.attempted += count
        meter.samples += len(reports)
        for r in reports:
            if r.instances:
                acc = meter.check_times.setdefault(r.name, [0.0, 0])
                acc[0] += r.seconds
                acc[1] += r.instances
            if not r.ok:
                meter.fail(r.line())
                meter.failed += len(r.failures) - 1
        meter.pin(f"suite {self.level} instances", count, self.pinned_instances)


# Instances in one pass, by workload: h3 5371 intervals; a4 81 + 16 + 16 x 50;
# h4 8000 queries; suite 48203 (20 checks).
WORKLOADS = {
    "h3-intervals": Intervals("H3", pinned_intervals=5371),
    "a4-cells": Cells("A4", pinned_pairs=81, pinned_ks=16),
    "h4-queries": Intervals("H4", queries=8000, oracle_sample=100),
    "suite-full": Suite("full", pinned_instances=48203),
}

# The same workloads on tiny groups, for the benchmark's own tests.
SMOKE = {
    "h3-intervals": Intervals("A3", pinned_intervals=189),
    "a4-cells": Cells("A2", pinned_pairs=9, pinned_ks=4),
    "h4-queries": Intervals("A3", queries=20, oracle_sample=5),
    "suite-full": Suite("quick", pinned_instances=337),
}
