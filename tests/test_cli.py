"""Command-line surface: subcommands, JSON round trips, exit codes."""

import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import coxbalance
from coxbalance import posets, rootsys
from coxbalance.cli import COMMANDS, main, make_parser
from coxbalance.rootsys import RootSystem, fraction_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_table_and_json(tmp_path, capsys):
    out_file = tmp_path / "roots.json"
    code, out = run(capsys, "roots", "--type", "B", "--rank", "3",
                    "--out", str(out_file))
    assert code == 0
    assert "9 positive roots" in out
    data = json.loads(out_file.read_text())
    assert data["schema"] == 1
    assert len(data["roots"]["positive_roots"]) == 9


@pytest.mark.parametrize("argv,size,digest", [
    (["roots", "--type", "E", "--rank", "8"], 61242,
     "9076236742da6ee4c04c0688501ecad31738d40a01ed8847dc0c8af4352a3a2d"),
    (["roots", "--type", "B", "--rank", "3"], 2130,
     "bbf3ef3d7b9f5790d050afb935df469f21761cc8afff10b8de9dd91c46b4723f"),
    (["balance", "--type", "A", "--rank", "2", "--interval", "1 2"], 225,
     "8b0542d1f7dc29c0f68ccd0427d3b3708d494cb8ba55ea6f47e3e4dd67f4445f"),
    (["balance", "--type", "B", "--rank", "3", "--ideal-roots", "0,1,2"], 247,
     "547a16824a697b853b2083667d657fba2d17945bfc6f693c2594c323e6363d1b"),
    (["heap", "--type", "B", "--rank", "3", "--word", "3 2 3 1"], 566,
     "de6ee751f3da541fe18b39bad523a0b290c3d40d2ac0b8fbaaa760ef3c369530"),
], ids=["roots-E8", "roots-B3", "balance-A2", "balance-B3", "heap-B3"])
def test_readme_examples_out_exact_bytes(tmp_path, capsys, argv, size, digest):
    """The --out files of the README examples, byte for byte."""
    out_file = tmp_path / "out.json"
    code, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0
    data = out_file.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_roots_format_json_exact_bytes(capsys):
    code, out = run(capsys, "roots", "--type", "B", "--rank", "3", "--format", "json")
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        1798, "07fa159a600f11faca2409b8eff4e7c089112b0ba352c827be57201f331d3179")


def test_roots_dot(capsys):
    code, out = run(capsys, "roots", "--type", "A", "--rank", "2",
                    "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_group_counts(capsys):
    code, out = run(capsys, "group", "--type", "D", "--rank", "4")
    assert code == 0
    assert "192 elements" in out


def test_group_e6_matches_expected_bytes(capsys):
    code, out = run(capsys, "group", "--type", "E", "--rank", "6")
    assert code == 0
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected" / "group-E6.txt"
    assert out.encode() == expected.read_bytes()


def test_group_a1_exact_output(capsys):
    """A1 has one positive root, the one case where a getter of v's values
    would return a bare entry rather than a tuple."""
    code, out = run(capsys, "group", "--type", "A", "--rank", "1")
    assert code == 0
    assert out == "group of type A1: 2 elements\n  length  0: 1\n  length  1: 1\n"


@pytest.mark.parametrize("family,rank,expected", [
    ("D", 4, '{\n  "length_distribution": {\n    "0": 1,\n    "1": 4,\n    "10": 9,\n'
             '    "11": 4,\n    "12": 1,\n    "2": 9,\n    "3": 16,\n    "4": 23,\n'
             '    "5": 28,\n    "6": 30,\n    "7": 28,\n    "8": 23,\n    "9": 16\n  },\n'
             '  "order": 192,\n  "schema": 1,\n  "type": "D4"\n}\n'),
    ("A", 1, '{\n  "length_distribution": {\n    "0": 1,\n    "1": 1\n  },\n'
             '  "order": 2,\n  "schema": 1,\n  "type": "A1"\n}\n'),
], ids=["D4", "A1"])
def test_group_out_exact_bytes(tmp_path, capsys, family, rank, expected):
    out_file = tmp_path / "group.json"
    code, _ = run(capsys, "group", "--type", family, "--rank", str(rank),
                  "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == expected.encode()


def test_group_cap_reported_cleanly(capsys):
    code = main(["group", "--type", "A", "--rank", "3", "--cap", "5"])
    assert code == 2
    assert "cap of 5" in capsys.readouterr().err


def test_group_cap_zero_is_a_cap(capsys):
    code = main(["group", "--type", "A", "--rank", "1", "--cap", "0"])
    assert code == 2
    assert "cap of 0" in capsys.readouterr().err


def test_group_past_the_cap_is_refused_before_the_walk(capsys):
    """A20 has 21! elements and 210 roots: |W| is compared with the cap first."""
    code = main(["group", "--type", "A", "--rank", "20"])
    assert_error_line(capsys, code, "exceeded the element cap of 1000000")


def test_group_at_a_cap_of_21_factorial_reports_a20(capsys):
    """A cap of at least |W| lets ``group`` print A20's 21! elements and its
    211 lengths from the degrees, where no walk could go (210 roots)."""
    code, out = run(capsys, "group", "--type", "A", "--rank", "20", "--cap", str(factorial(21)))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"group of type A20: {factorial(21)} elements"
    assert len(lines) == 1 + 211
    assert lines[1:3] == ["  length  0: 1", "  length  1: 20"]
    assert lines[-1] == "  length 210: 1"


def test_group_negative_cap_is_reported(capsys):
    code = main(["group", "--type", "A", "--rank", "1", "--cap", "-1"])
    assert_error_line(capsys, code, "--cap must be a nonnegative element count")


@pytest.mark.parametrize("command", ["group", "roots"])
@pytest.mark.parametrize("rank", ["65", "99999"])
def test_type_rank_past_the_bound_is_refused(capsys, command, rank):
    """The rank is checked before the root system is built: A99999 would
    not finish building."""
    code = main([command, "--type", "A", "--rank", rank])
    assert_error_line(capsys, code, f"rank {rank} is above the largest supported rank, 64")


def test_type_rank_at_the_bound_builds(capsys):
    code, out = run(capsys, "roots", "--type", "A", "--rank", "64")
    assert code == 0
    assert "2080 positive roots" in out


def test_roots_graph_dot(capsys):
    code, out = run(capsys, "roots", "--type", "G", "--rank", "2",
                    "--format", "dot", "--graph")
    assert code == 0
    assert "graph rootgraph" in out


def test_balance_interval(capsys):
    code, out = run(capsys, "balance", "--type", "A", "--rank", "2",
                    "--interval", "1 2")
    assert code == 0
    assert "b(C) = 1/3" in out


@pytest.mark.parametrize("selector", ["--interval", "--hull", "--set", "--ideal-roots"])
def test_balance_empty_selector_is_the_identity(capsys, selector):
    code, out = run(capsys, "balance", "--type", "A", "--rank", "2", selector, "")
    assert code == 0
    assert "|C| = 1\n" in out


def assert_error_line(capsys, code, message):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


def test_balance_requires_one_selector(capsys):
    code = main(["balance", "--type", "A", "--rank", "2"])
    assert_error_line(capsys, code, "give exactly one of --interval")


@pytest.mark.parametrize("argv,message", [
    (["roots"], "--type and --rank are required"),
    (["alcove", "--type", "B"], "--type and --rank are required"),
    (["balance", "--type", "A", "--rank", "2", "--interval", "1", "--set", "1"],
     "give exactly one of --interval"),
    (["semiorder", "--type", "E", "--rank", "7"], "pass --e8 to run the large scan"),
    (["balance", "--type", "A", "--rank", "2", "--interval", "", "--hull", "1"],
     "give exactly one of --interval"),
    # int() alone reads "1_0" as 10 and non-ASCII digits as their values
    (["balance", "--type", "A", "--rank", "5", "--ideal-roots", "1_0"],
     "root indices must be decimal integers, not '1_0'"),
    (["balance", "--type", "A", "--rank", "3", "--ideal-roots", "0,\uff11"],
     "root indices must be decimal integers"),
    (["balance", "--type", "A", "--rank", "3", "--interval", "0_1"],
     "word letters must be decimal integers, not '0_1'"),
    (["balance", "--type", "A", "--rank", "3", "--hull", "1; 2 \u0662"],
     "word letters must be decimal integers"),
    (["heap", "--type", "A", "--rank", "3", "--word", "\uff13 2"],
     "word letters must be decimal integers"),
    (["alcove", "--type", "A", "--rank", "3", "--interval", "1 2_"],
     "word letters must be decimal integers, not '2_'"),
    # argparse's int() read these, and a bad one gave its two-line usage error
    (["roots", "--type", "A", "--rank", "\uff11"], "--rank must be a decimal integer"),
    (["roots", "--type", "A", "--rank", "x"], "--rank must be a decimal integer, not 'x'"),
    (["group", "--type", "A", "--rank", "3", "--cap", "1_0"],
     "--cap must be a decimal integer, not '1_0'"),
    (["semiorder", "--rank", "x", "--unit-interval", "0 1"],
     "--rank must be a decimal integer, not 'x'"),
    # Fraction() also reads "1_0" as 10 and non-ASCII digits as their values
    (["semiorder", "--unit-interval", "0 1_0"],
     "unit-interval values must be ASCII rationals, not '1_0'"),
    (["semiorder", "--unit-interval", "0 \u0661"],
     "unit-interval values must be ASCII rationals"),
])
def test_usage_errors_are_reported(capsys, argv, message):
    assert_error_line(capsys, main(argv), message)


@pytest.mark.parametrize("argv,message", [
    (["semiorder", "--unit-interval", "0 1/2", "--count-ideals"],
     "--unit-interval takes neither --count-ideals nor --e8"),
    (["semiorder", "--unit-interval", "0 1/2", "--e8"],
     "--unit-interval takes neither --count-ideals nor --e8"),
    (["roots", "--type", "A", "--rank", "2", "--graph"], "--graph needs --format dot"),
    (["roots", "--type", "A", "--rank", "2", "--graph", "--format", "json"],
     "--graph needs --format dot"),
])
def test_ignored_flag_combinations_are_refused(capsys, argv, message):
    """A flag that the rest of the command line would silently ignore."""
    assert_error_line(capsys, main(argv), message)


@pytest.mark.parametrize("argv", [
    ["group", "--type", "A", "--rank", "2", "--format", "table"],
    ["semiorder", "--type", "A", "--rank", "2", "--format", "table"],
    ["alcove", "--type", "A", "--rank", "2", "--format", "table"],
    ["balance", "--type", "A", "--rank", "2", "--interval", "1", "--format", "json"],
    ["heap", "--type", "A", "--rank", "2", "--word", "1", "--format", "json"],
])
def test_format_values_a_command_ignores_are_refused(capsys, argv):
    """group, semiorder and alcove print tables only; balance and heap have
    no JSON on standard output (their JSON goes to --out)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("members,size", [("1;1", 1), ("1 1;", 1), (";1;1", 2)])
def test_balance_set_with_repeated_elements(capsys, members, size):
    """A repeated element (here s1, or s1 s1 = e next to e) counts once."""
    code, out = run(capsys, "balance", "--type", "A", "--rank", "2", "--set", members)
    assert code == 0
    assert out.startswith(f"|C| = {size}\n")


def test_ideal_roots_with_diagram_is_reported(tmp_path, capsys):
    diagram = tmp_path / "a2.json"
    diagram.write_text(json.dumps({"rank": 2, "edges": [{"i": 1, "j": 2, "m": 3}]}))
    code = main(["balance", "--diagram", str(diagram), "--ideal-roots", "0"])
    assert_error_line(capsys, code, "--ideal-roots needs a Weyl type")


def test_verify_campaign_error_is_reported(monkeypatch, capsys):
    def refuse(name, include_big=False):
        raise ValueError(f"cannot run {name}")

    monkeypatch.setattr("coxbalance.cli.verify.run_campaign", refuse)
    assert_error_line(capsys, main(["verify", "table1"]), "cannot run table1")


def test_balance_hull_with_diagram(tmp_path, capsys):
    diagram = tmp_path / "path.json"
    diagram.write_text(json.dumps({
        "rank": 4,
        "edges": [
            {"i": 1, "j": 2, "m": "inf"},
            {"i": 2, "j": 3, "m": "inf"},
            {"i": 3, "j": 4, "m": "inf"},
        ],
    }))
    out_file = tmp_path / "set.json"
    code, out = run(capsys, "balance", "--diagram", str(diagram),
                    "--hull", "; 2 3 2 3; 1 4 2 3", "--out", str(out_file))
    assert code == 0
    assert "|C| = 10" in out
    assert "b(C) = 3/10" in out
    payload = json.loads(out_file.read_text())
    assert payload["balance"] == {"num": 3, "den": 10}
    assert payload["size"] == 10
    # The README diagram example, byte for byte: the only byte check of the
    # order in which a diagram's root keys are listed.
    data = out_file.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        423, "c92bcba5e879b9be4b6e88b537e83d863f293427770f20546d41a89a42260764")


def test_balance_ideal_roots_repeated_index(tmp_path, capsys):
    """A repeated root index names the same set A: the same table and bytes."""
    outputs = []
    for roots in ("0,0,1", "0,1"):
        out_file = tmp_path / f"{roots}.json"
        code, out = run(capsys, "balance", "--type", "B", "--rank", "3",
                        "--ideal-roots", roots, "--out", str(out_file))
        assert code == 0
        outputs.append((out, out_file.read_bytes()))
    assert outputs[0] == outputs[1]


def test_balance_ideal_roots(capsys):
    code, out = run(capsys, "balance", "--type", "A", "--rank", "2",
                    "--ideal-roots", "0,1")
    assert code == 0
    assert "b(C) = 1/3" in out


@pytest.mark.parametrize("index", ["999", "-1", "3"])
def test_balance_ideal_roots_out_of_range(capsys, index):
    code = main(["balance", "--type", "A", "--rank", "2",
                 "--ideal-roots", f"0,{index}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"root index {index} out of range 0..2" in captured.err


@pytest.mark.parametrize("diagram,field", [
    ({"edges": []}, "rank"),
    ([{"i": 1, "j": 2, "m": 3}], "rank"),
    ({"rank": 2, "edges": [{"j": 2, "m": 3}]}, '"i"'),
    ({"rank": 2, "edges": [{"i": 1, "m": 3}]}, '"j"'),
    ({"rank": 2, "edges": [{"i": 1, "j": 2}]}, '"m"'),
    ({"rank": 2, "edges": [{"i": "a", "j": 2, "m": 3}]}, '"i" must be an integer'),
    ({"rank": 2, "edges": [{"i": 1, "j": 2.0, "m": 3}]}, '"j" must be an integer'),
    ({"rank": 2, "edges": [{"i": True, "j": 2, "m": 3}]}, '"i" must be an integer'),
    ({"rank": True, "edges": []}, "rank"),
    ({"rank": 2, "edges": 5}, '"edges" must be a list'),
    ({"rank": 20000}, '"rank" must be between 1 and 64, not 20000'),
    ({"rank": 0}, '"rank" must be between 1 and 64, not 0'),
    ({"rank": -3}, '"rank" must be between 1 and 64, not -3'),
    ({"rank": 2, "edges": [{"i": 1, "j": 2, "m": 3}, {"i": 2, "j": 1, "m": "inf"}]},
     "edge (2, 1) is given twice"),
    ({"rank": 2, "edges": [{"i": 1, "j": 2, "m": 5}]}, "labels must be 2, 3, 4, 6 or inf"),
    ({"rank": 2, "edges": [{"i": 1, "j": 2, "m": 8}]}, "labels must be 2, 3, 4, 6 or inf"),
])
def test_malformed_diagram_is_reported(tmp_path, capsys, diagram, field):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram))
    code = main(["balance", "--diagram", str(path), "--interval", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


def write_diagram(tmp_path, rank, edges):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(
        {"rank": rank, "edges": [{"i": i, "j": j, "m": m} for i, j, m in edges]}
    ))
    return str(path)


@pytest.mark.parametrize("command", [["balance", "--interval", "1"], ["heap", "--word", "1"]],
                         ids=["balance", "heap"])
@pytest.mark.parametrize("flags", [["--type", "A", "--rank", "3"], ["--type", "A"], ["--rank", "3"]],
                         ids=["type-rank", "type", "rank"])
def test_diagram_with_type_or_rank_is_reported(tmp_path, capsys, command, flags):
    diagram = write_diagram(tmp_path, 3, [(1, 2, 3), (2, 3, 3)])
    code = main([*command, "--diagram", diagram, *flags])
    assert_error_line(capsys, code, "give either --diagram or --type/--rank, not both")


@pytest.mark.parametrize("label,family,word,balance", [
    (4, "B", "1 2 1", "1/2"), (6, "G", "2 1 2 1", "2/5"),
])
def test_rank_two_diagram_matches_type(tmp_path, capsys, label, family, word, balance):
    diagram = write_diagram(tmp_path, 2, [(1, 2, label)])
    code, by_diagram = run(capsys, "balance", "--diagram", diagram, "--interval", word)
    assert code == 0
    code, by_type = run(capsys, "balance", "--type", family, "--rank", "2", "--interval", word)
    assert code == 0
    assert by_diagram.splitlines()[:2] == by_type.splitlines()[:2]
    assert by_diagram.splitlines()[1] == f"b(C) = {balance}"


def test_heap_walks_the_ideals_once(tmp_path, capsys, monkeypatch):
    walks = []
    walk = posets.LabeledPoset.iter_ideal_masks

    def counted(self, *args, **kwargs):
        walks.append(self.n)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(posets.LabeledPoset, "iter_ideal_masks", counted)
    out_file = tmp_path / "heap.json"
    code, out = run(capsys, "heap", "--type", "B", "--rank", "3",
                    "--word", "3 2 3 1", "--out", str(out_file))
    assert code == 0
    assert walks == [4]
    assert out == (
        "heap of word [3, 2, 3, 1]: 4 elements, 6 order ideals, balance 1/3\n"
        "  position 1 (s3): ideal fraction 1/6\n"
        "  position 2 (s2): ideal fraction 1/3\n"
        "  position 3 (s3): ideal fraction 2/3\n"
        "  position 4 (s1): ideal fraction 2/3\n"
    )


def test_heap_command(tmp_path, capsys):
    out_file = tmp_path / "heap.json"
    code, out = run(capsys, "heap", "--type", "B", "--rank", "3",
                    "--word", "3 2 3 1", "--out", str(out_file))
    assert code == 0
    assert "balance 1/3" in out
    data = json.loads(out_file.read_text())
    assert data["balance"] == {"num": 1, "den": 3}
    assert data["ideal_count"] == 6


def test_heap_rejects_non_reduced(capsys):
    code = main(["heap", "--type", "A", "--rank", "2", "--word", "1 1"])
    assert code == 2


def test_semiorder_count_guard(capsys):
    code = main(["semiorder", "--type", "E", "--rank", "7", "--count-ideals"])
    assert_error_line(capsys, code, "pass --e8 to run the large scan")


def test_semiorder_ideal_cap(capsys, monkeypatch):
    """A20 has about 2.4 * 10^10 root-poset ideals: the command compares
    the closed-form count with the cap and stops with one error line
    before it walks any ideal, with or without --count-ideals.  Within the
    cap, --count-ideals prints the closed form, also with no walk.  Under a
    smaller cap the count stops with the same error (A3 has 14 ideals)."""

    def refuse(*args, **kwargs):
        raise AssertionError("the command walked the root poset")

    with monkeypatch.context() as patch:
        patch.setattr(rootsys, "walk_order_ideals", refuse)
        for extra in ([], ["--count-ideals"]):
            code = main(["semiorder", "--type", "A", "--rank", "20", "--e8"] + extra)
            assert_error_line(capsys, code, f"more than {rootsys.ROOT_IDEAL_CAP} order ideals")
        for family, rank, count in (("A", 13, 2674440), ("E", 8, 25080)):
            code, out = run(capsys, "semiorder", "--type", family, "--rank", str(rank),
                            "--count-ideals", "--e8")
            assert code == 0
            assert out == f"{family}{rank}: {count} root-poset order ideals\n"
    monkeypatch.setattr(rootsys, "ROOT_IDEAL_CAP", 13)
    code = main(["semiorder", "--type", "A", "--rank", "3", "--count-ideals"])
    assert_error_line(capsys, code, "more than 13 order ideals")


def test_semiorder_scan(tmp_path, capsys):
    out_file = tmp_path / "semi.json"
    code, out = run(capsys, "semiorder", "--type", "B", "--rank", "3",
                    "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["lemma46_ok"] is True
    assert data["ideals_scanned"] == 19
    assert data["min_balance"] == {"num": 1, "den": 3}


def test_semiorder_unit_interval(capsys):
    code, out = run(capsys, "semiorder", "--type", "A", "--rank", "2",
                    "--unit-interval", "0 1/2 7/5")
    assert code == 0
    assert "|W^A| = 3" in out


def test_semiorder_unit_interval_ascii_forms(capsys):
    """Signs, decimals and exponents stay readable, as Fraction reads them."""
    code, out = run(capsys, "semiorder", "--unit-interval", "-1/2 0.5 1e0 +2")
    assert code == 0
    assert "unit-interval semiorder on 4 points" in out


def test_semiorder_unit_interval_zero_denominator(capsys):
    code = main(["semiorder", "--unit-interval", "1/0 2"])
    assert_error_line(capsys, code, "'1/0' has a zero denominator")


@pytest.mark.parametrize("argv", [
    ["--type", "B", "--rank", "3"], ["--type", "A", "--rank", "3"], ["--type", "B"],
    ["--rank", "1"],
])
def test_semiorder_unit_interval_type_mismatch(capsys, argv):
    code = main(["semiorder", *argv, "--unit-interval", "0 1/2 7/5"])
    assert_error_line(capsys, code, "3 unit-interval values give type A2")


@pytest.mark.parametrize("argv", [[], ["--type", "A", "--rank", "2"], ["--type", "A"]])
def test_semiorder_unit_interval_label(tmp_path, capsys, argv):
    out_file = tmp_path / "semi.json"
    code, out = run(capsys, "semiorder", *argv, "--unit-interval", "0 1/2 7/5",
                    "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["type"] == "A2"
    assert data["ideal"] == [0, 1] and data["size"] == 3


@pytest.mark.parametrize("values", ["0 1/2 7/5", "0 1/3 2/3 1 4/3 5/3 2", "0 0 0 0"])
def test_semiorder_unit_interval_reads_no_fraction_views(tmp_path, capsys, monkeypatch,
                                                         values):
    """The unit-interval semiorder gives the same bytes on the integer tables
    alone."""
    def outputs(name):
        out_file = tmp_path / name
        code, out = run(capsys, "semiorder", "--unit-interval", values,
                        "--out", str(out_file))
        assert code == 0
        return out, out_file.read_bytes()

    before = outputs("before.json")

    def unused(rs):
        raise AssertionError("Fraction view read")

    monkeypatch.setattr(RootSystem, "positive_roots", property(unused))
    monkeypatch.setattr(RootSystem, "coweights", property(unused))
    assert outputs("after.json") == before


def test_alcove_params(capsys):
    code, out = run(capsys, "alcove", "--type", "E", "--rank", "8")
    assert code == 0
    assert "exponent 21/2" in out


ALCOVE_VERTEX_OUTPUT = {
    ("B", "3"): (
        "type B3: min_mark 1, max_mark 2, height 5, margin 1, exponent 2\n"
        "alcove vertices:\n"
        "  (0, 0, 0)\n"
        "  (1, 0, 0)\n"
        "  (1/2, 1/2, 0)\n"
        "  (1/2, 1/2, 1/2)\n"
        "short-root alcove vertices:\n"
        "  (0, 0, 0)\n"
        "  (1, 0, 0)\n"
        "  (1, 1, 0)\n"
        "  (1, 1, 1)\n"
    ),
    ("G", "2"): (
        "type G2: min_mark 2, max_mark 3, height 5, margin 1/2, exponent 3/2\n"
        "alcove vertices:\n"
        "  (0, 0, 0)\n"
        "  (0, -1/3, 1/3)\n"
        "  (-1/6, -1/6, 1/3)\n"
        "short-root alcove vertices:\n"
        "  (0, 0, 0)\n"
        "  (0, -1/2, 1/2)\n"
        "  (-1/3, -1/3, 2/3)\n"
    ),
    ("E", "8"): (
        "type E8: min_mark 2, max_mark 6, height 29, margin 7/4, exponent 21/2\n"
        "alcove vertices:\n"
        "  (0, 0, 0, 0, 0, 0, 0, 0)\n"
        "  (0, 0, 0, 0, 0, 0, 0, 1)\n"
        "  (-1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 7/8)\n"
        "  (0, 0, 1/6, 1/6, 1/6, 1/6, 1/6, 5/6)\n"
        "  (0, 0, 0, 1/5, 1/5, 1/5, 1/5, 4/5)\n"
        "  (0, 0, 0, 0, 1/4, 1/4, 1/4, 3/4)\n"
        "  (0, 0, 0, 0, 0, 1/3, 1/3, 2/3)\n"
        "  (0, 0, 0, 0, 0, 0, 1/2, 1/2)\n"
        "  (1/6, 1/6, 1/6, 1/6, 1/6, 1/6, 1/6, 5/6)\n"
    ),
}


def alcove_payload(text):
    """The ``--out`` payload that an ``alcove`` vertex printout stands for."""
    lines = text.splitlines()
    label, params = lines[0].removeprefix("type ").split(": ")
    fields = dict(item.split(" ") for item in params.split(", "))
    payload = {"schema": 1, "type": label}
    for name, value in fields.items():
        exact = name in ("margin", "exponent")
        payload[name] = fraction_json(Fraction(value)) if exact else int(value)
    for line in lines[1:]:
        if line.endswith(":"):
            key = "vertices" if line == "alcove vertices:" else "short_vertices"
            payload[key] = []
        else:
            point = line.strip()[1:-1].split(", ")
            payload[key].append([fraction_json(Fraction(x)) for x in point])
    return payload


@pytest.mark.parametrize("family,rank", sorted(ALCOVE_VERTEX_OUTPUT))
def test_alcove_vertices_exact_output(tmp_path, capsys, family, rank):
    """The vertex printout and its ``--out`` file, byte for byte."""
    out_file = tmp_path / "alcove.json"
    code, out = run(capsys, "alcove", "--type", family, "--rank", rank,
                    "--out", str(out_file))
    assert code == 0
    text = ALCOVE_VERTEX_OUTPUT[family, rank]
    assert out == text
    expected = json.dumps(alcove_payload(text), indent=2, sort_keys=True) + "\n"
    assert out_file.read_text() == expected


def test_alcove_interval(capsys):
    code, out = run(capsys, "alcove", "--type", "B", "--rank", "3",
                    "--interval", "3 2 3 1")
    assert code == 0
    assert out == (
        "type B3: min_mark 1, max_mark 2, height 5, margin 1, exponent 2\n"
        "|C| = 6, balance = 1/3, centroid = (1/4, 5/12, -1/12)\n"
        "mean-height witness root index: 0 (h = -2/3)\n"
        "centroid-split witness root index: 0\n"
        "balance above 1/(2 e^exponent): True\n"
        "balance above 1/(2e): True\n"
    )


def test_verify_exit_code_and_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify", "table1", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["schema"] == 1
    assert data["campaigns"][0]["summary"]["failed"] == 0


@pytest.mark.parametrize("argv", [
    ["roots", "--type", "A", "--rank", "2"],
    ["group", "--type", "A", "--rank", "2"],
    ["balance", "--type", "A", "--rank", "2", "--interval", "1 2"],
    ["heap", "--type", "A", "--rank", "2", "--word", "1 2"],
    ["semiorder", "--type", "A", "--rank", "2"],
    ["alcove", "--type", "A", "--rank", "2"],
    ["verify", "table1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, argv):
    """--out is opened before the command computes or prints anything."""
    out_file = tmp_path / "missing" / "out.json"
    code = main([*argv, "--out", str(out_file)])
    assert_error_line(capsys, code, "No such file or directory")
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["group", "--type", "A", "--rank", "2"],
    ["verify", "table1"],
], ids=lambda argv: argv[0])
def test_directory_out_fails_before_the_work(tmp_path, capsys, argv):
    """An --out path that is a directory fails before the command prints."""
    code = main([*argv, "--out", str(tmp_path)])
    assert_error_line(capsys, code, f"Is a directory: '{tmp_path}'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [b'{"schema": 1}\n', None], ids=["existing", "absent"])
def test_failing_command_keeps_the_out_file(tmp_path, capsys, existing):
    """A command that fails after --out is opened leaves an existing file
    byte for byte, creates none, and leaves no temporary file behind."""
    out_file = tmp_path / "prev.json"
    if existing is not None:
        out_file.write_bytes(existing)
    code = main(["group", "--type", "A", "--rank", "3", "--cap", "5", "--out", str(out_file)])
    assert_error_line(capsys, code, "cap of 5")
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [out_file]
        assert out_file.read_bytes() == existing


def test_out_replaces_the_file_and_leaves_no_temporary(tmp_path, capsys):
    out_file = tmp_path / "group.json"
    out_file.write_text("stale")
    code, _ = run(capsys, "group", "--type", "A", "--rank", "1", "--out", str(out_file))
    assert code == 0
    assert list(tmp_path.iterdir()) == [out_file]
    assert json.loads(out_file.read_text())["order"] == 2


# argv that argparse answers itself: help, usage errors and unknown commands
PARSER_EXITS = [[], ["-h"], ["bogus"], ["bogus", "-h"], ["--", "group"],
                ["heap", "--type", "A", "--rank", "2"], ["verify"], ["verify", "nope"],
                ["verify", "table1", "extra"], ["roots", "--type", "A", "--format", "xml"]]
for name in COMMANDS:
    PARSER_EXITS += [[name, "-h"], [name, "--bogus"]]
    if name != "verify":
        PARSER_EXITS += [[name, "--type", "Z"], [name, "--type", "A", "--rank", "2", "extra"]]


def parser_exit(capsys, call):
    """The exit code, standard output and standard error of an argparse exit."""
    with pytest.raises(SystemExit) as exc:
        call()
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, columns, argv):
    """main builds one subcommand's parser when argv names one, with the same
    help, usage and errors, byte for byte, as the parser of every subcommand."""
    monkeypatch.setenv("COLUMNS", columns)
    assert parser_exit(capsys, lambda: main(argv)) == \
        parser_exit(capsys, lambda: make_parser().parse_args(argv))


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["group", "--type", "A", "--rank", "2"]) == 0
    assert built == ["group"]
    assert "group of type A2: 6 elements" in capsys.readouterr().out
    make_parser()
    assert built[1:] == list(COMMANDS)


def test_verify_unknown_campaign():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_invalid_type_is_reported(capsys):
    code = main(["roots", "--type", "D", "--rank", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Start-up cost: a fresh interpreter that imports ``coxbalance.cli``
    adds neither ``dataclasses`` nor ``inspect`` to ``sys.modules``.  Only
    the modules the import adds count, so what the interpreter preloads
    (a ``.pth`` file, say) cannot fail the test."""
    src = str(Path(coxbalance.__file__).resolve().parent.parent)
    child = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import coxbalance.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    added = set(out.split())
    assert "coxbalance.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"}), sorted(added)
