"""CLI reports compared byte for byte with outputs committed in golden/."""

from pathlib import Path

import pytest

from coxmorse.cli import main

GOLDEN = Path(__file__).parent / "golden"
# the longest element of H3, and another reduced word of it for a second order
H3_W0 = "1.2.1.2.1.3.2.1.2.1.3.2.1.2.3"
H3_ORDER = "3.2.3.1.2.3.1.2.3.1.2.3.1.2.1"
COMMANDS = {
    "springer_A3_J-_Jp-": ["springer", "--group", "A3", "--J", "{}", "--Jprime", "{}"],
    "springer_A3_J1_Jp3": ["springer", "--group", "A3", "--J", "{1}", "--Jprime", "{3}"],
    "springer_A3_J2_Jp-": ["springer", "--group", "A3", "--J", "{2}", "--Jprime", "{}"],
    "springer_B3_J-_Jp-": ["springer", "--group", "B3", "--J", "{}", "--Jprime", "{}"],
    # both P_v and Q_v checked; and Q_v vacuous (J empty)
    "springer_A4_J2_Jp3": ["springer", "--group", "A4", "--J", "{2}", "--Jprime", "{3}"],
    "springer_A4_J-_Jp14": ["springer", "--group", "A4", "--J", "{}", "--Jprime", "{1,4}"],
    "fiber_A3_K12_e.e.e.1-2-3": ["fiber", "--group", "A3", "--K", "{1,2}",
                                 "--anchors", "e:e:e:1.2.3"],
    "fiber_A3_K13_2.2.e.2-1-3-2": ["fiber", "--group", "A3", "--K", "{1,3}",
                                   "--anchors", "2:2:e:2.1.3.2"],
    # Q_K of A4 for K = {} (W_K = {e}, so every fiber is one cell) and K = {1}
    "fiber_A4_K-_2.2-3.e.2-1-3-2": ["fiber", "--group", "A4", "--K", "{}",
                                    "--anchors", "2:2.3:e:2.1.3.2"],
    "fiber_A4_K1_2.2-3.e.2-1-3-2": ["fiber", "--group", "A4", "--K", "{1}",
                                    "--anchors", "2:2.3:e:2.1.3.2"],
    "matching_A3_2_2.3.1.2": ["matching", "--group", "A3", "--interval", "2", "2.3.1.2"],
    "matching_B3_e_1.2.1.3.2.1.3.2.3": ["matching", "--group", "B3",
                                        "--interval", "e", "1.2.1.3.2.1.3.2.3"],
    f"matching_H3_e_{H3_W0}": ["matching", "--group", "H3", "--interval", "e", H3_W0],
    f"matching_H3_e_{H3_W0}_order-{H3_ORDER}": ["matching", "--group", "H3",
                                                "--interval", "e", H3_W0,
                                                "--order-word", H3_ORDER],
}
FORMATS = ("json", "text", "dot")


def test_every_golden_file_has_a_command():
    assert {p.name for p in GOLDEN.iterdir()} == {
        f"{stem}.{fmt}" for stem in COMMANDS for fmt in FORMATS}


def check_golden(capsys, stem, fmt, *flags):
    assert main(COMMANDS[stem] + ["--format", fmt, *flags]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.encode() == (GOLDEN / f"{stem}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_cli_output_matches_the_golden_file(capsys, stem, fmt):
    check_golden(capsys, stem, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_paranoid_output_matches_the_golden_file(capsys, stem, fmt):
    # every oracle route agrees with the fast one on every pinned input
    check_golden(capsys, stem, fmt, "--paranoid")
