"""Command-line interface: reports, formats, determinism, exit codes."""

import json

import pytest

from coxmorse.cli import main, parse_subset
from coxmorse.errors import InvalidSubset


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
    code, _, _ = run(capsys, "suite", "--level", "quick", "--jobs", "4")
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "group", "--group", "A1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["size"] == 2


def test_suite_failure_exit_code(monkeypatch, capsys):
    import coxmorse.cli as cli
    from coxmorse.verify import CheckReport

    def fake_run_level(level, jobs=1):
        return [CheckReport("stub check", 1, ["synthetic failure"], 0.0)]

    monkeypatch.setattr(cli, "run_level", fake_run_level)
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
    # one flipped closure entry drops 2.3 from [2, 2.3.1.2]; only the
    # cover-search recheck under --paranoid can see it
    import coxmorse.cli as cli
    from coxmorse import build_system

    a3 = build_system("A3")  # fresh: never corrupt the session-cached system
    v, x = a3.parse_word("2"), a3.parse_word("2.3")
    assert a3.bruhat[v, x]
    a3.bruhat[v, x] = False
    monkeypatch.setattr(cli, "_system_from_args", lambda args: a3)
    argv = ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"]
    code, out, err = run(capsys, *argv, "--paranoid")
    assert code == 3 and out == ""
    assert ("FALSIFIED: interval [2, 2.1.3.2] disagrees with the cover-search oracle "
            "at 2.3 (only in the oracle)") in err
