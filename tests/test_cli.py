"""Command-line surface: subcommands, JSON round trips, exit codes."""

import json

import pytest

from coxbalance.cli import main


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


def test_roots_dot(capsys):
    code, out = run(capsys, "roots", "--type", "A", "--rank", "2",
                    "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_group_counts(capsys):
    code, out = run(capsys, "group", "--type", "D", "--rank", "4")
    assert code == 0
    assert "192 elements" in out


def test_group_cap_reported_cleanly(capsys):
    code = main(["group", "--type", "A", "--rank", "3", "--cap", "5"])
    assert code == 2
    assert "cap of 5" in capsys.readouterr().err


def test_group_cap_zero_is_a_cap(capsys):
    code = main(["group", "--type", "A", "--rank", "1", "--cap", "0"])
    assert code == 2
    assert "cap of 0" in capsys.readouterr().err


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


def test_balance_requires_one_selector(capsys):
    with pytest.raises(SystemExit):
        main(["balance", "--type", "A", "--rank", "2"])


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
])
def test_malformed_diagram_is_reported(tmp_path, capsys, diagram, field):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram))
    code = main(["balance", "--diagram", str(path), "--interval", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


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
    with pytest.raises(SystemExit, match="--e8"):
        main(["semiorder", "--type", "E", "--rank", "7", "--count-ideals"])


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


def test_alcove_params(capsys):
    code, out = run(capsys, "alcove", "--type", "E", "--rank", "8")
    assert code == 0
    assert "exponent 21/2" in out


def test_alcove_interval(capsys):
    code, out = run(capsys, "alcove", "--type", "B", "--rank", "3",
                    "--interval", "3 2 3 1")
    assert code == 0
    assert "|C| = 6" in out


def test_verify_exit_code_and_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify", "table1", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["schema"] == 1
    assert data["campaigns"][0]["summary"]["failed"] == 0


def test_verify_unwritable_out_fails_before_the_campaign(tmp_path, capsys):
    out_file = tmp_path / "missing" / "report.json"
    code = main(["verify", "table1", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not out_file.exists()


def test_verify_unknown_campaign():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_invalid_type_is_reported(capsys):
    code = main(["roots", "--type", "D", "--rank", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err
