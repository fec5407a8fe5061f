"""Command-line interface: reports, formats, determinism, exit codes."""

import json
import re

import pytest

from coxmorse import build_system, cli, posets
from coxmorse.cli import main, parse_subset
from coxmorse.errors import InvalidSubset
from coxmorse.fibers import build_qk
from coxmorse.posets import FinitePoset, PackedOrder
from coxmorse.verify import CheckReport, all_orders, check_el_properties
from helpers import b3_with_a_cover_across_dims, set_up_covers, with_members


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_subset():
    assert parse_subset("{1,3}") == frozenset({1, 3})
    assert parse_subset("{}") == frozenset()
    assert parse_subset("{ 2 , 3 }") == frozenset({2, 3})
    for bad in ("1,3", "{1;3}", "", "{a}"):
        with pytest.raises(InvalidSubset):
            parse_subset(bad)


def test_group_command(capsys):
    code, out, _ = run(capsys, "group", "--group", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 6 and doc["reflections"] == 3
    assert doc["longest_word"] == "1.2.1"


def test_group_errors(capsys):
    code, _, err = run(capsys, "group", "--group", "X9")
    assert code == 2 and "unrecognized" in err
    code, _, err = run(capsys, "group")
    assert code == 2
    code, _, err = run(capsys, "group", "--group", "A3", "--max-elements", "5")
    assert code == 2 and "exceed" in err


def test_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("# rank 2 dihedral\n1 5\n5 1\n")
    code, out, _ = run(capsys, "group", "--matrix-file", str(path))
    assert code == 0 and json.loads(out)["size"] == 10


def test_matching_command_fixture(capsys):
    argv = ["matching", "--group", "A3", "--interval", "2", "2.3.1.2",
            "--order-word", "1.2.3.1.2.1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] and doc["acyclic"]
    words = {frozenset((doc["elements"][a]["word"], doc["elements"][b]["word"]))
             for a, b in doc["pairs"]}
    assert words == {
        frozenset(("2.1.3.2", "1.2.1")), frozenset(("2.3.2", "2.3")),
        frozenset(("1.3.2", "1.2")), frozenset(("2.1.3", "2.1")),
        frozenset(("3.2", "2")),
    }
    # byte-identical reruns
    code2, out2, _ = run(capsys, *argv)
    assert out2 == out


def test_matching_dot(capsys):
    code, out, _ = run(capsys, "matching", "--group", "A2", "--interval", "e", "1.2.1",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph poset {") and "color=red" in out


def test_matching_paranoid(capsys):
    code, out, _ = run(capsys, "matching", "--group", "A2", "--interval", "e", "1.2.1",
                       "--paranoid")
    assert code == 0


def test_springer_command(capsys):
    code, out, _ = run(capsys, "springer", "--group", "A2", "--J", "{}", "--Jprime", "{}")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] and doc["euler"] == 1
    assert doc["unmatched"] == ["(1.2.1,1.2.1)"]
    assert len(doc["matching"]) == 9
    code, _, err = run(capsys, "springer", "--group", "A2", "--J", "{1}", "--Jprime", "{1}")
    assert code == 2 and "overlap" in err


def test_springer_a1(capsys):
    code, out, _ = run(capsys, "springer", "--group", "A1", "--J", "{1}", "--Jprime", "{}")
    doc = json.loads(out)
    assert code == 0 and doc["unmatched"] == ["(1,1)"] and doc["certificate"]


def test_fiber_command(capsys):
    code, out, _ = run(capsys, "fiber", "--group", "A2", "--K", "{1}",
                       "--anchors", "e:e:e:1.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] and doc["convex"]
    assert doc["z"] == "e"
    code, _, err = run(capsys, "fiber", "--group", "A2", "--K", "{1}",
                       "--anchors", "e:e:e")
    assert code == 2
    code, _, err = run(capsys, "fiber", "--group", "A2", "--K", "{1}",
                       "--anchors", "1.2:e:e:e")
    assert code == 2


def test_fiber_equal_anchors(capsys):
    code, out, _ = run(capsys, "fiber", "--group", "A2", "--K", "{}",
                       "--anchors", "1:1.2:1:1.2")
    doc = json.loads(out)
    assert code == 0 and doc["unmatched"] == ["(e,e)"]


def test_suite_quick(capsys):
    code, out, _ = run(capsys, "suite", "--level", "quick")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 9


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "group", "--group", "A1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["size"] == 2


def test_the_suite_writes_each_checks_seconds_when_it_ends(monkeypatch, capsys):
    import coxmorse.verify as verify

    seen = []

    def second():
        seen.append(capsys.readouterr().err)
        return CheckReport("second", 1, [], 0.5)

    monkeypatch.setattr(verify, "_quick_tasks",
                        lambda: [lambda: CheckReport("first", 2, [], 0.25), second])
    code, out, err = run(capsys, "suite")
    assert seen == ["first: 0.2s\n"] and err == "second: 0.5s\n"
    assert (code, out) == (0, "PASS first: 2 instances\nPASS second: 1 instances\n"
                              "suite quick: all checks passed\n")


@pytest.mark.parametrize("argv", [("group", "--group", "A2"), ("suite",)])
def test_an_unwritable_out_file_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    def no_run(level):
        raise AssertionError("the suite ran before its report file was opened")

    monkeypatch.setattr(cli, "iter_level", no_run)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("failures", [[], ["synthetic failure"]])
def test_a_suite_out_file_holds_the_bytes_of_stdout(tmp_path, monkeypatch, capsys, failures):
    monkeypatch.setattr(cli, "iter_level",
                        lambda level: [CheckReport("stub check", 1, failures, 0.25)])
    code, out, err = run(capsys, "suite")
    target = tmp_path / "suite.txt"
    assert err == "stub check: 0.2s\n"   # the timings go to stderr
    assert run(capsys, "suite", "--out", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode() and out.startswith("PASS" if code == 0 else "FAIL")


def test_suite_failure_exit_code(monkeypatch, capsys):
    import coxmorse.cli as cli
    from coxmorse.verify import CheckReport

    def fake_iter_level(level):
        return [CheckReport("stub check", 1, ["synthetic failure"], 0.0)]

    monkeypatch.setattr(cli, "iter_level", fake_iter_level)
    code, out, _ = run(capsys, "suite", "--level", "quick")
    assert code == 3
    assert "FAIL" in out and "FAILURES PRESENT" in out


def test_bad_suite_level_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--level", "bogus"])
    assert exc.value.code == 2


def test_cyclic_matching_exits_as_falsification(monkeypatch, capsys):
    # a cycle in a matching the code built falsifies the instance: exit 3
    import coxmorse.cli as cli
    from coxmorse.matchings import Matching

    def cyclic_matching(li, order):
        up = {}
        for lo, hi, _ in li.poset.covers:
            up.setdefault(lo, set()).add(hi)
        # x0, x1 both covered by y0 and y1: x0 -> y0 -> x1 -> y1 -> x0
        x0, x1, y0, y1 = next((a, b, *sorted(up[a] & up[b])[:2]) for a in up for b in up
                              if a < b and len(up[a] & up[b]) >= 2)
        partner = list(range(li.poset.n))
        partner[x0], partner[y0], partner[x1], partner[y1] = y0, x0, y1, x1
        return Matching(li.poset, tuple(partner))

    monkeypatch.setattr(cli, "build_matching", cyclic_matching)
    monkeypatch.setattr(cli, "verify_shelling_subsets", lambda *args: None)
    code, out, err = run(capsys, "matching", "--group", "A2", "--interval", "e", "1.2.1")
    assert code == 3 and out == ""
    assert "FALSIFIED: matching has a directed cycle" in err


def test_paranoid_matching_rechecks_interval_members(monkeypatch, capsys):
    # one flipped closure bit drops 2.3 from [2, 2.3.1.2]; only the
    # cover-search recheck under --paranoid can see it
    import coxmorse.cli as cli
    from coxmorse import build_system

    a3 = build_system("A3")  # fresh: never corrupt the session-cached system
    v, x = a3.parse_word("2"), a3.parse_word("2.3")
    assert a3.bruhat.leq(v, x)
    a3.bruhat.packed[v, x >> 3] ^= 1 << (x & 7)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: a3)
    argv = ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"]
    code, out, err = run(capsys, *argv, "--paranoid")
    assert code == 3 and out == ""
    assert ("FALSIFIED: interval [2, 2.1.3.2] disagrees with the cover-search oracle "
            "at 2.3 (only in the oracle)") in err


def test_paranoid_matching_rechecks_interval_covers(monkeypatch, capsys):
    # the unmatched cover 2 < 2.1 of the B3 interval [2, 2.3.2.1], dropped
    # from the cover table, leaves the matching, the shelling check and the
    # Morse counts intact; only the subword recheck of the covers under
    # --paranoid sees it
    import coxmorse.cli as cli
    from coxmorse import build_matching, build_system, labeled_interval, shortlex_order

    b3 = build_system("B3")  # fresh: never corrupt the session-cached system
    b3.bruhat   # the order is closed from the full cover table first
    x, y = b3.parse_word("2"), b3.parse_word("2.1")
    li = labeled_interval(b3, x, b3.parse_word("2.3.2.1"))
    lo, hi = li.index[x], li.index[y]
    assert build_matching(li, shortlex_order(b3)).partner[lo] != hi
    full = b3._covers_up
    set_up_covers(b3, [tuple(c for c in ups if (z, c[0]) != (x, y))
                       for z, ups in enumerate(full)])
    monkeypatch.setattr(cli, "_system_from_args", lambda args: b3)
    argv = ["matching", "--group", "B3", "--interval", "2", "2.3.2.1"]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--paranoid") == (
        3, "", "FALSIFIED: interval [2, 2.3.2.1] disagrees with the subword oracle at the "
               "cover 2 < 2.1 (only in the oracle)\n")
    # a relation of length gap two planted as a cover is named from the other side
    z = b3.parse_word("2.1.3")
    set_up_covers(b3, full[:x] + (full[x] + ((z, b3.mul(x, b3.inverse(z))),),) + full[x + 1:])
    assert run(capsys, *argv, "--paranoid") == (
        3, "", "FALSIFIED: interval [2, 2.3.2.1] disagrees with the subword oracle at the "
               "cover 2 < 2.1.3 (only in the extracted interval)\n")


def test_a_cover_across_dims_exits_as_falsification(monkeypatch, capsys):
    # the interval [e, w0] of B3 with the planted cover e < 1.2.1 is built,
    # matched and shelled; the acyclicity check finds the cover
    import coxmorse.cli as cli

    b3 = b3_with_a_cover_across_dims()
    monkeypatch.setattr(cli, "_system_from_args", lambda args: b3)
    assert run(capsys, "matching", "--group", "B3", "--interval", "e", b3.word_str(b3.w0)) == (
        3, "", "FALSIFIED: cover e < 1.2.1 does not join adjacent dims\n")


def test_suite_reports_an_impure_order_as_a_failed_check(monkeypatch, capsys):
    import coxmorse.verify as verify

    b3 = b3_with_a_cover_across_dims()
    monkeypatch.setattr(verify, "_quick_tasks", lambda: [lambda: verify.check_thinness(b3)])
    code, out, err = run(capsys, "suite")
    assert code == 3 and re.fullmatch(r"thinness and purity on B3: \d+\.\ds\n", err)
    assert out == ("FAIL thinness and purity on B3: 1 instances; 1 failures, first: full group "
                   "order is not pure\nsuite quick: FAILURES PRESENT\n")


@pytest.mark.parametrize("argv", [
    ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"],
    ["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"],
    ["fiber", "--group", "A3", "--K", "{1,2}", "--anchors", "e:e:e:1.2.3"],
])
def test_paranoid_rescans_the_unmatched_cells(monkeypatch, capsys, argv):
    import coxmorse.cli as cli

    clean = run(capsys, *argv)
    assert clean[0] == 0 and run(capsys, *argv, "--paranoid") == clean
    monkeypatch.setattr(cli, "oracle_unmatched_scan", lambda poset, matching: [poset.n])
    assert run(capsys, *argv) == clean
    assert run(capsys, *argv, "--paranoid") == (
        3, "", "FALSIFIED: unmatched rescan disagrees with the morse summary\n")


@pytest.mark.parametrize("paranoid", [False, True])
def test_fiber_runs_the_convexity_oracle_under_paranoid(monkeypatch, capsys, paranoid):
    import coxmorse.cli as cli
    from coxmorse.errors import CorollaryFalsified

    calls = []
    real = cli.oracle_convexity

    def counted(fp):
        calls.append(fp.anchors)
        return real(fp)

    argv = ["fiber", "--group", "A3", "--K", "{1,2}", "--anchors", "e:e:e:1.2.3"]
    flag = ["--paranoid"] if paranoid else []
    monkeypatch.setattr(cli, "oracle_convexity", counted)
    clean = run(capsys, *argv)
    assert clean[0] == 0 and run(capsys, *argv, *flag) == clean
    assert len(calls) == (1 if paranoid else 0)

    def failing(fp):
        raise CorollaryFalsified("planted")

    monkeypatch.setattr(cli, "oracle_convexity", failing)
    assert run(capsys, *argv, *flag) == ((3, "", "FALSIFIED: planted\n") if paranoid else clean)


@pytest.mark.parametrize("pair, side", [(("1", "1.2"), "the oracle"),
                                        (("2.1", "2.1"), "the fiber poset")])
def test_paranoid_fiber_rechecks_the_members(monkeypatch, capsys, pair, side):
    # one member dropped, or one comparable pair of W_K added, through the
    # poset: the defining-condition oracle under --paranoid names the pair
    import coxmorse.cli as cli

    real = cli.build_fiber_poset

    def tampered(qk, lower, upper):
        fp = real(qk, lower, upper)
        a, b = map(fp.system.parse_word, pair)
        if (a, b) in fp.index:
            return with_members(fp, tuple(p for p in fp.members if p != (a, b)))
        return with_members(fp, fp.members + ((a, b),))

    monkeypatch.setattr(cli, "build_fiber_poset", tampered)
    argv = ["fiber", "--group", "A3", "--K", "{1,2}", "--anchors", "e:e:e:1.2.3"]
    assert run(capsys, *argv, "--paranoid") == (
        3, "", f"FALSIFIED: fiber poset for K=[1, 2] disagrees with the defining-condition "
               f"oracle at ({pair[0]},{pair[1]}) (only in {side})\n")


@pytest.mark.parametrize("side", ["oracle_shelling_subsets", "verify_shelling_subsets"])
def test_paranoid_matching_exits_when_the_shelling_routes_differ(monkeypatch, capsys, side):
    # a differing report, or a message only one route raises, falsifies the
    # run under --paranoid and names the interval; without it the oracle
    # does not run
    import coxmorse.cli as cli
    from coxmorse.errors import TheoremFalsified
    from coxmorse.matchings import ShellingReport

    def fake(li, order, matching):
        if side == "oracle_shelling_subsets":
            return ShellingReport(4, 3)
        raise TheoremFalsified("planted")

    argv = ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"]
    monkeypatch.setattr(cli, side, fake)
    if side == "oracle_shelling_subsets":
        assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--paranoid")
    assert code == 3 and out == ""
    report = "ShellingReport(coatom_prefixes=4, atom_prefixes=4)"
    got, want = (("'planted'", report) if side == "verify_shelling_subsets"
                 else (report, "ShellingReport(coatom_prefixes=4, atom_prefixes=3)"))
    assert err == (f"FALSIFIED: shelling check on [2, 2.1.3.2] disagrees with the "
                   f"prefix-union oracle: {got} against {want}\n")


@pytest.mark.parametrize("paranoid", [False, True])
def test_matching_runs_each_shelling_route_once(monkeypatch, capsys, paranoid):
    # a failure both routes raise is reported as the theorem's falsification,
    # as without --paranoid, and no route runs twice
    import coxmorse.cli as cli
    from coxmorse.errors import TheoremFalsified

    calls = []

    def failing(name):
        def check(li, order, matching):
            calls.append(name)
            raise TheoremFalsified("planted")
        return check

    for name in ("verify_shelling_subsets", "oracle_shelling_subsets"):
        monkeypatch.setattr(cli, name, failing(name))
    argv = ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"]
    code, out, err = run(capsys, *argv, *(["--paranoid"] if paranoid else []))
    assert (code, out, err) == (3, "", "FALSIFIED: planted\n")
    assert calls == (["verify_shelling_subsets", "oracle_shelling_subsets"] if paranoid
                     else ["verify_shelling_subsets"])


def test_oversized_pair_order_exits_as_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 19 * 3 - 1)
    code, out, err = run(capsys, "springer", "--group", "A2", "--J", "{}", "--Jprime", "{}")
    assert code == 2 and out == ""
    assert err.startswith("error: springer pair poset on 19 elements needs 0 MiB of packed rows")


def test_oversized_bruhat_order_exits_as_usage_error(capsys, monkeypatch):
    import coxmorse.cli as cli
    from coxmorse import build_system

    a3 = build_system("A3")  # fresh: its closure is not cached yet
    monkeypatch.setattr(cli, "_system_from_args", lambda args: a3)
    monkeypatch.setattr(posets, "MAX_ORDER_BYTES", 24 * 3 - 1)
    code, out, err = run(capsys, "matching", "--group", "A3", "--interval", "e", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: the Bruhat order on 24 elements needs 0 MiB of packed rows")


def test_bad_order_word_exits_as_usage_error(capsys):
    code, out, err = run(capsys, "matching", "--group", "A2", "--interval", "e", "1",
                         "--order-word", "1.x")
    assert code == 2 and out == ""
    assert err == "error: bad element word '1.x'\n"


def test_unreadable_matrix_file_exits_as_usage_error(capsys, tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"1 3\n3 \xff\n")
    for path in (tmp_path / "missing.txt", binary):
        code, out, err = run(capsys, "group", "--matrix-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read matrix file: "), err


def test_wrong_degree_product_exits_as_falsification(capsys, monkeypatch):
    from coxmorse import coxeter

    real = coxeter._irreducible_degrees
    monkeypatch.setattr(coxeter, "_irreducible_degrees",
                        lambda rows, nodes: real(rows, nodes) + (2,))
    code, out, err = run(capsys, "group", "--group", "A3")
    assert code == 3 and out == ""
    assert err == ("FALSIFIED: A3 group table has 24 rows, but the degrees of its components "
                   "give |W| = 48\n")


def test_infinite_matrix_exits_as_usage_error(capsys, tmp_path):
    path = tmp_path / "affine.txt"
    path.write_text("1 3 3\n3 1 3\n3 3 1\n")
    code, out, err = run(capsys, "group", "--matrix-file", str(path))
    assert code == 2 and out == ""
    assert err == ("error: the Coxeter graph on generators [1, 2, 3] is not of type A_n, B_n, "
                   "D_n, E6-E8, F4, H3, H4 or I2(m), so the group is infinite\n")


def test_production_never_closes_a_poset_given_by_covers(monkeypatch, capsys):
    s = build_system("A3")   # fresh, with its Bruhat order closed before the kernel is patched
    s.bruhat
    qk_cells = build_qk(s, {1, 2}).members

    def refuse(*args):
        raise AssertionError("an order was closed from its covers")

    monkeypatch.setattr(PackedOrder, "layered_closure", refuse)
    monkeypatch.setattr(cli, "build_system", lambda matrix, max_elements: s)
    built, init = [], FinitePoset.__init__

    def record(poset, *args):
        init(poset, *args)
        built.append(poset)

    monkeypatch.setattr(FinitePoset, "__init__", record)
    for argv in (["matching", "--interval", "e", s.word_str(s.w0)],
                 ["springer", "--J", "{}", "--Jprime", "{}"],
                 ["fiber", "--K", "{1,2}", "--anchors", "e:e:e:1.2.3"]):
        built.clear()
        code, _, err = run(capsys, argv[0], "--group", "A3", *argv[1:])
        assert code == 0, err
        # the fiber query's Q_K is the one poset with an order, made by pair_poset
        ordered = [p.payload for p in built if p.leq is not None]
        assert ordered == ([qk_cells] if argv[0] == "fiber" else [])
        assert len(built) > len(ordered)
    built.clear()
    assert check_el_properties(s, all_orders(s)).ok
    assert built and all(p.leq is None for p in built)
