"""Batch command-line front end.

Subcommands construct a group, run one verification pipeline, and emit a
deterministic report (json, dot, or text).  Exit codes: 0 all checks
passed, 2 usage or input errors, 3 a verified structural claim failed.

Element words are dot-separated 1-based generator indices ("1.2.1", "e"
for the identity; commas are accepted on input).  Generator subsets are
written "{1,3}" (or "{}").  Fiber anchors are four words "v':w':v:w".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys

from . import __version__
from .cells import check_against_pair_poset, pair_name, slice_matching, slice_partners
from .coxeter import DEFAULT_MAX_ELEMENTS, CoxeterMatrix, CoxeterSystem, build_system
from .errors import Falsification, InputError, InvalidSubset, TheoremFalsified
from .fibers import build_fiber_poset, build_qk, fiber_slices
from .matchings import (build_matching, labeled_interval, morse_counts, partner_table,
                        verify_shelling_subsets)
from .oracles import (oracle_bruhat_leq, oracle_convexity, oracle_fiber_members,
                      oracle_interval_covers, oracle_interval_ids, oracle_shelling_subsets,
                      oracle_slice_partners, oracle_unmatched_scan)
from .posets import euler_characteristic, poset_to_dot
from .reflection_orders import order_from_reduced_word, shortlex_order
from .springer import build_springer_poset, springer_slices
from .verify import iter_level

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FALSIFIED = 3


def parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if not re.fullmatch(r"\{\s*\}|\{\s*\d+(\s*,\s*\d+)*\s*\}", text):
        raise InvalidSubset(f"bad subset syntax {text!r}; expected e.g. {{1,3}} or {{}}")
    inner = text.strip()[1:-1].strip()
    return frozenset(int(tok) for tok in inner.split(",")) if inner else frozenset()


def _system_from_args(args) -> CoxeterSystem:
    if args.matrix_file:
        matrix = CoxeterMatrix.from_file(args.matrix_file)
    elif args.group:
        matrix = CoxeterMatrix.from_name(args.group)
    else:
        raise InputError("one of --group or --matrix-file is required")
    return build_system(matrix, max_elements=args.max_elements)


@contextlib.contextmanager
def _report_file(args):
    """The file that ``--out`` names, opened for writing, or stdout; a
    file that cannot be opened or written is an input error."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write report to {args.out}: {exc}") from exc


def _emit(args, text: str) -> None:
    with _report_file(args) as fh:
        fh.write(text)


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _order_from_args(system: CoxeterSystem, args):
    if args.order_word:
        return order_from_reduced_word(system, system.parse_letters(args.order_word))
    return shortlex_order(system)


def cmd_group(args) -> int:
    system = _system_from_args(args)
    parabolics = []
    if 2 ** system.rank <= 64:
        subsets = [frozenset(i + 1 for i in range(system.rank) if r >> i & 1)
                   for r in range(2 ** system.rank)]
    else:
        subsets = [frozenset({i}) for i in range(1, system.rank + 1)]
    for J in subsets:
        sub = system.parabolic(J)
        parabolics.append({
            "J": sorted(J),
            "size": len(sub.elements),
            "longest": system.word_str(sub.longest),
        })
    if args.paranoid:
        pairs = ((v, w) for v in range(system.size) for w in range(system.size))
        for v, w in pairs:
            if system.bruhat_leq(v, w) != oracle_bruhat_leq(system, v, w):
                raise Falsification(
                    f"bruhat order disagrees with the subword oracle at "
                    f"({system.word_str(v)}, {system.word_str(w)})"
                )
    doc = {
        "type": system.matrix.label,
        "rank": system.rank,
        "size": system.size,
        "reflections": len(system.reflections),
        "longest_length": system.len_of(system.w0),
        "longest_word": system.word_str(system.w0),
        "parabolics": parabolics,
    }
    if args.format == "json":
        _emit(args, _json_dump(doc))
    else:
        lines = [f"group {doc['type']}: size {doc['size']}, rank {doc['rank']}, "
                 f"|T| = {doc['reflections']}, w0 = {doc['longest_word']}"]
        for p in parabolics:
            lines.append(f"  W_{{{','.join(map(str, p['J']))}}}: size {p['size']}, "
                         f"longest {p['longest']}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _shelling_outcome(check, li, order, matching):
    """The report of a shelling check, or its falsification message."""
    try:
        return check(li, order, matching)
    except TheoremFalsified as exc:
        return str(exc)


def _rescan_unmatched(poset, matching, summary) -> None:
    """Under ``--paranoid``: the fixed points of ``matching``, recounted by
    :func:`oracles.oracle_unmatched_scan`, must be the summary's."""
    if tuple(oracle_unmatched_scan(poset, matching)) != summary.unmatched:
        raise Falsification("unmatched rescan disagrees with the morse summary")


def _check_interval(li) -> None:
    """Under ``--paranoid``: the members of ``li`` must be those of a cover
    search filtered by the subword test, and its labeled covers those of
    the subword test alone (:mod:`oracles`); the first difference is named."""
    system, v, w = li.system, li.v, li.w
    members = oracle_interval_ids(system, v, w)
    if members != list(li.ids):
        x = min(set(members) ^ set(li.ids))
        side = "the oracle" if x in members else "the extracted interval"
        raise Falsification(
            f"interval [{system.word_str(v)}, {system.word_str(w)}] disagrees with "
            f"the cover-search oracle at {system.word_str(x)} (only in {side})"
        )
    covers = tuple(oracle_interval_covers(system, li.ids))
    if covers != li.poset.covers:
        lo, hi, t = min(set(covers) ^ set(li.poset.covers))
        side = "the oracle" if (lo, hi, t) in covers else "the extracted interval"
        raise Falsification(
            f"interval [{system.word_str(v)}, {system.word_str(w)}] disagrees with "
            f"the subword oracle at the cover {li.poset.names[lo]} < {li.poset.names[hi]} "
            f"(only in {side})"
        )


def _check_fiber_members(fp) -> None:
    """Under ``--paranoid``: the members of ``fp`` must be those of the
    defining condition over W_K x W_K by the subword test
    (:func:`oracles.oracle_fiber_members`); the first difference is named."""
    system = fp.system
    members = oracle_fiber_members(system, fp.K, *fp.anchors)
    if set(members) != set(fp.members):
        pair = min(set(members) ^ set(fp.members))
        side = "the oracle" if pair in members else "the fiber poset"
        raise Falsification(
            f"fiber poset for K={sorted(fp.K)} disagrees with the defining-condition "
            f"oracle at {pair_name(system, pair)} (only in {side})"
        )


def _check_slices(system, slices, order, what) -> None:
    """Under ``--paranoid``: on every slice (x, top, subsets, z_x), the
    partners that :func:`cells.slice_partners` reads for each checked
    element from the order's :func:`matchings.partner_table` must be those
    of the matching of all of [x, top]
    (:func:`oracles.oracle_slice_partners`); the slice and the first
    element whose partners differ are named."""
    rows = partner_table(system, order).tolist()
    for x, top, subsets, z_x in slices:
        checked = sorted({y for _, subset in (*subsets, ("slice", z_x)) for y in subset})
        local = slice_partners(system, x, top, checked, rows)
        oracle = oracle_slice_partners(system, x, top, order)
        y = next((y for y in checked if local[y] != oracle[y]), None)
        if y is not None:
            name = system.word_str
            raise Falsification(
                f"slice matching of [{name(x)}, {name(top)}] in the {what} disagrees with "
                f"the full-interval oracle at {name(y)}: partner {name(local[y])} against "
                f"{name(oracle[y])}"
            )


def cmd_matching(args) -> int:
    system = _system_from_args(args)
    v = system.parse_word(args.interval[0])
    w = system.parse_word(args.interval[1])
    order = _order_from_args(system, args)
    li = labeled_interval(system, v, w)
    if args.paranoid:
        _check_interval(li)
    matching = build_matching(li, order)
    if args.paranoid:
        shelling, want = (_shelling_outcome(check, li, order, matching)
                          for check in (verify_shelling_subsets, oracle_shelling_subsets))
        if shelling != want:
            raise Falsification(
                f"shelling check on [{system.word_str(v)}, {system.word_str(w)}] disagrees "
                f"with the prefix-union oracle: {shelling!r} against {want!r}"
            )
        if isinstance(shelling, str):
            raise TheoremFalsified(shelling)
    else:
        shelling = verify_shelling_subsets(li, order, matching)
    summary = morse_counts(li.poset, matching)
    if args.paranoid:
        _rescan_unmatched(li.poset, matching, summary)
    if args.format == "dot":
        names = {t: system.word_str(t) for t in system.reflections}
        _emit(args, poset_to_dot(li.poset, matching.pairs, names))
        return EXIT_OK
    doc = {
        "group": system.matrix.label,
        "interval": {"v": system.word_str(v), "w": system.word_str(w),
                     "size": li.poset.n, "rank": li.rank},
        "order": {"word": ".".join(map(str, order.word)),
                  "reflections": [system.word_str(t) for t in order.sequence]},
        "elements": [{"id": i, "word": li.poset.names[i], "dim": li.poset.dims[i]}
                     for i in range(li.poset.n)],
        "covers": [{"lo": lo, "hi": hi, "label": system.word_str(t)}
                   for lo, hi, t in li.poset.covers],
        "pairs": [list(p) for p in matching.pairs],
        "unmatched": list(summary.unmatched),
        "morse": {str(d): c for d, c in sorted(summary.counts.items())},
        "acyclic": summary.acyclic,
        "complete": True,  # the check raises otherwise
        "shelling": {"coatom_prefixes": shelling.coatom_prefixes,
                     "atom_prefixes": shelling.atom_prefixes,
                     "partition_ok": True},  # the check raises otherwise
    }
    if args.format == "json":
        _emit(args, _json_dump(doc))
    else:
        lines = [f"interval [{doc['interval']['v']}, {doc['interval']['w']}] in "
                 f"{doc['group']}: {li.poset.n} elements, rank {li.rank}"]
        for a, b in matching.pairs:
            lines.append(f"  matched {li.poset.names[a]} -- {li.poset.names[b]}")
        lines.append(f"  complete={doc['complete']} acyclic={summary.acyclic}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_springer(args) -> int:
    system = _system_from_args(args)
    J = parse_subset(args.J)
    Jp = parse_subset(args.Jprime)
    sp = build_springer_poset(system, J, Jp)
    if args.paranoid:
        check_against_pair_poset(system, sp.poset, "springer pair poset")
    slices, order, apex, what = springer_slices(sp)
    if args.paranoid:
        _check_slices(system, slices, order, what)
    matching, summary = slice_matching(system, sp.poset, slices, order, apex, what)
    if args.paranoid:
        _rescan_unmatched(sp.poset, matching, summary)
    if args.format == "dot":
        _emit(args, poset_to_dot(sp.poset, matching.pairs))
        return EXIT_OK
    doc = {
        "group": system.matrix.label,
        "J": sorted(J),
        "Jprime": sorted(Jp),
        "size": len(sp.members),
        "pairs_poset": [{"id": i, "v": system.word_str(p[0]), "w": system.word_str(p[1]),
                         "dim": sp.poset.dims[i]} for i, p in enumerate(sp.members)],
        "matching": [list(p) for p in matching.pairs],
        "unmatched": [sp.poset.names[i] for i in summary.unmatched],
        "morse": {str(d): c for d, c in sorted(summary.counts.items())},
        "acyclic": summary.acyclic,
        "certificate": summary.certificate,
        "euler": euler_characteristic(sp.poset),
    }
    if args.format == "json":
        _emit(args, _json_dump(doc))
    else:
        _emit(args, (f"springer poset for J={sorted(J)}, J'={sorted(Jp)} on "
                     f"{system.matrix.label}: {len(sp.members)} cells, "
                     f"{len(matching.pairs)} matched pairs, unmatched "
                     f"{[sp.poset.names[i] for i in summary.unmatched]}, "
                     f"certificate={summary.certificate}\n"))
    return EXIT_OK


def cmd_fiber(args) -> int:
    system = _system_from_args(args)
    K = parse_subset(args.K)
    words = args.anchors.split(":")
    if len(words) != 4:
        raise InputError(f"--anchors needs four words v':w':v:w, got {args.anchors!r}")
    vp, wp, v, w = (system.parse_word(t) for t in words)
    qk = build_qk(system, K)
    fp = build_fiber_poset(qk, (vp, wp), (v, w))
    if args.paranoid:
        _check_fiber_members(fp)
        check_against_pair_poset(system, fp.poset, "fiber pair poset")
        oracle_convexity(fp)
    slices, order, apex, what = fiber_slices(fp)
    if args.paranoid:
        _check_slices(system, slices, order, what)
    matching, summary = slice_matching(system, fp.poset, slices, order, apex, what)
    if args.paranoid:
        _rescan_unmatched(fp.poset, matching, summary)
    if args.format == "dot":
        _emit(args, poset_to_dot(fp.poset, matching.pairs))
        return EXIT_OK
    doc = {
        "group": system.matrix.label,
        "K": sorted(K),
        "anchors": {"vprime": system.word_str(vp), "wprime": system.word_str(wp),
                    "v": system.word_str(v), "w": system.word_str(w)},
        "z": system.word_str(fp.z),
        "z_prime": system.word_str(fp.z_prime),
        "z_tilde": system.word_str(fp.members[apex][0]),
        "members": [{"id": i, "a": system.word_str(p[0]), "b": system.word_str(p[1]),
                     "dim": fp.poset.dims[i]} for i, p in enumerate(fp.members)],
        "matching": [list(p) for p in matching.pairs],
        "unmatched": [fp.poset.names[i] for i in summary.unmatched],
        "morse": {str(d): c for d, c in sorted(summary.counts.items())},
        "convex": True,  # the build raises otherwise
        "certificate": summary.certificate,
    }
    if args.format == "json":
        _emit(args, _json_dump(doc))
    else:
        _emit(args, (f"fiber poset for K={sorted(K)} on {system.matrix.label}: "
                     f"{len(fp.members)} cells, z={doc['z']}, z'={doc['z_prime']}, "
                     f"z~={doc['z_tilde']}, certificate={summary.certificate}\n"))
    return EXIT_OK


def cmd_suite(args) -> int:
    with _report_file(args) as fh:   # opened first, so a bad path costs no run
        reports = []
        # each check's seconds as it ends; timings vary from run to run, so
        # they stay out of the report
        for r in iter_level(args.level):
            print(f"{r.name}: {r.seconds:.1f}s", file=sys.stderr)
            reports.append(r)
        lines = [r.line() for r in reports]
        ok = all(r.ok for r in reports)
        lines.append(f"suite {args.level}: {'all checks passed' if ok else 'FAILURES PRESENT'}")
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_FALSIFIED


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", help="named Coxeter type, e.g. A3, B4, H3, I2(7)")
    parser.add_argument("--matrix-file", help="plain text Coxeter matrix, one row per line")
    parser.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                        help="enumeration bound (default %(default)s)")
    parser.add_argument("--format", choices=("json", "dot", "text"), default="json")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--paranoid", action="store_true",
                        help="re-verify results with brute-force oracles")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coxmorse",
        description="construct and verify reflection-order matchings on Bruhat intervals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group facts: size, reflections, parabolic summaries")
    _add_common(p)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("matching", help="matching on a Bruhat interval, with checks")
    _add_common(p)
    p.add_argument("--interval", nargs=2, metavar=("V", "W"), required=True,
                   help="interval endpoints as words, e.g. 2 2.3.1.2")
    p.add_argument("--order-word", help="reduced word of w0 defining the reflection order")
    p.set_defaults(fn=cmd_matching)

    p = sub.add_parser("springer", help="springer pair poset certificate")
    _add_common(p)
    p.add_argument("--J", required=True, help='generator subset, e.g. "{1}"')
    p.add_argument("--Jprime", required=True, help='generator subset disjoint from J')
    p.set_defaults(fn=cmd_springer)

    p = sub.add_parser("fiber", help="projection fiber poset certificate")
    _add_common(p)
    p.add_argument("--K", required=True, help='generator subset, e.g. "{1,2}"')
    p.add_argument("--anchors", required=True,
                   help="four words v':w':v:w, anchors comparable in the cell poset")
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Falsification as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
