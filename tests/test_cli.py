"""Command-line behavior: outputs, formats, exit codes."""

import json

import pytest

from resnet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- resistance ---

def test_resistance_exact_prints_fraction(capsys):
    code, out, _ = run(capsys, "resistance", "--builder", "hypercube", "3",
                       "--u", "0", "--v", "7", "--mode", "exact")
    assert code == 0 and out == "5/6\n"


def test_resistance_integer_result_prints_bare(capsys):
    code, out, _ = run(capsys, "resistance", "--builder", "path", "4",
                       "--u", "0", "--v", "3")
    assert code == 0 and out == "3\n"


def test_resistance_block_tower_corner(capsys):
    code, out, _ = run(capsys, "resistance", "--builder", "block_tower", "2",
                       "--u", "0", "--v", "6", "--mode", "exact")
    assert code == 0 and out == "5/6\n"


def test_resistance_spectral_fifteen_digits(capsys):
    code, out, _ = run(capsys, "resistance", "--builder", "hypercube", "3",
                       "--u", "0", "--v", "7", "--mode", "spectral")
    assert code == 0 and out == "0.833333333333333\n"


def test_resistance_accepts_labels(capsys):
    code, out, _ = run(capsys, "resistance", "--builder", "fan", "3", "2",
                       "--u", "a1", "--v", "b")
    assert code == 0


def test_resistance_from_file(tmp_path, capsys):
    f = tmp_path / "net.txt"
    f.write_text("0 1 2\n1 2 2\n")
    code, out, _ = run(capsys, "resistance", "--graph", str(f), "--u", "0", "--v", "2")
    assert code == 0 and out == "4\n"


def test_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0 1 oops\n")
    code, _, err = run(capsys, "resistance", "--graph", str(f), "--u", "0", "--v", "1")
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize("mode", ["exact", "spectral"])
@pytest.mark.parametrize("command", ["resistance", "diameter"])
def test_disconnected_exits_3(tmp_path, capsys, command, mode):
    f = tmp_path / "disc.txt"
    f.write_text("0 1 1\n2 3 1\n")
    pair = ["--u", "0", "--v", "3"] if command == "resistance" else []
    code, _, err = run(capsys, command, "--graph", str(f), *pair, "--mode", mode)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def sparse_file(tmp_path):
    """A path on the file ids 1..4, which every answer must keep."""
    f = tmp_path / "sparse.txt"
    f.write_text("1 2 1\n2 3 5\n3 4 1\n")
    return str(f)


@pytest.mark.parametrize("mode", ["exact", "spectral"])
@pytest.mark.parametrize("u,v,want", [("1", "2", "1"), ("3", "4", "1"),
                                      ("1", "4", "7")])
def test_resistance_uses_file_ids(sparse_file, capsys, mode, u, v, want):
    code, out, _ = run(capsys, "resistance", "--graph", sparse_file,
                       "--u", u, "--v", v, "--mode", mode)
    assert code == 0 and out == want + "\n"


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_diameter_lists_file_ids(sparse_file, capsys, mode):
    code, out, _ = run(capsys, "diameter", "--graph", sparse_file, "--format", "json",
                       "--mode", mode)
    assert code == 0
    assert [(p["u"], p["v"]) for p in json.loads(out)["pairs"]] == [(1, 4)]


def test_reduce_keeps_file_ids(sparse_file, capsys):
    code, out, _ = run(capsys, "reduce", "--graph", sparse_file, "--terminals", "1,4",
                       "--certify")
    obj = json.loads(out)
    assert code == 0
    assert obj["initial"]["vertices"] == [1, 2, 3, 4]
    assert obj["final"]["vertices"] == [1, 4]
    assert obj["certificates"][0] == {"1,4": "7"}


def test_plain_diameter_prints_ids_once_without_labels(sparse_file, capsys):
    code, out, _ = run(capsys, "diameter", "--graph", sparse_file)
    assert code == 0 and out == "D_r = 7\n  1 4\n"


@pytest.mark.parametrize("argv", [
    ["resistance", "--graph", "SUPERSCRIPT_FILE", "--u", "0", "--v", "1"],
    ["resistance", "--builder", "path", "3", "--u", "²", "--v", "0"],
    ["reduce", "--builder", "path", "3", "--terminals", "²,0"],
])
def test_non_ascii_digits_exit_2(tmp_path, capsys, argv):
    # str.isdigit() holds for a superscript two, but int() rejects it
    f = tmp_path / "superscript.txt"
    f.write_text("0 ² 1\n", encoding="utf-8")
    argv = [str(f) if a == "SUPERSCRIPT_FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_singular_exits_4(tmp_path, capsys):
    f = tmp_path / "sing.txt"
    f.write_text("0 1 1\n0 1 -1 gadget\n")
    code, _, _ = run(capsys, "resistance", "--graph", str(f), "--u", "0", "--v", "1")
    assert code == 4


def test_zero_pivot_everywhere_exits_4(tmp_path, capsys):
    # every vertex but the ground (2) has a zero conductance sum, so the
    # symmetric star-mesh elimination finds no pivot; no 2x2 pivot is tried
    f = tmp_path / "zero_pivots.txt"
    f.write_text("0 1 -1 gadget\n0 2 1\n1 2 1\n")
    code, out, err = run(capsys, "resistance", "--graph", str(f),
                         "--u", "0", "--v", "2")
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_same_vertex_exits_2(capsys):
    code, _, _ = run(capsys, "resistance", "--builder", "path", "3",
                     "--u", "1", "--v", "1")
    assert code == 2


# --- reduce ---

def test_reduce_two_terminals_exits_0(capsys):
    code, out, err = run(capsys, "reduce", "--builder", "cycle", "4",
                         "--terminals", "0,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["final"]["vertices"] == [0, 2]
    assert "4 -> 2 vertices" in err


def test_reduce_already_reduced_empty_trace(capsys):
    code, out, _ = run(capsys, "reduce", "--builder", "path", "2",
                       "--terminals", "0,1")
    assert code == 0 and json.loads(out)["steps"] == []


def test_reduce_stuck_exits_5(capsys):
    # the fan needs triangle steps; without --fan nothing applies
    code, out, _ = run(capsys, "reduce", "--builder", "fan", "5", "2",
                       "--terminals", "a1,a5,b")
    assert code == 5
    assert json.loads(out)["steps"] == []


def test_reduce_fan_flag_reaches_star(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    code, _, err = run(capsys, "reduce", "--builder", "fan", "5", "2",
                       "--terminals", "a1,a5,b", "--fan", "--certify",
                       "--out", str(out_file))
    assert code == 5  # the star keeps one helper vertex beyond the terminals
    obj = json.loads(out_file.read_text())
    assert len(obj["final"]["vertices"]) == 4
    assert len(set(json.dumps(c, sort_keys=True) for c in obj["certificates"])) == 1


def test_reduce_certify_embeds_tables(capsys):
    code, out, _ = run(capsys, "reduce", "--builder", "cycle", "4",
                       "--terminals", "0,2", "--certify")
    obj = json.loads(out)
    assert obj["certificates"][0]["0,2"] == "1"


# --- scan ---

def test_scan_csv_row_convention(capsys):
    code, out, err = run(capsys, "scan", "--k", "2", "--max-n", "8",
                         "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,R_n,diff,abs_dev_from_limit"
    # one baseline row plus max-n minus 2 data rows
    assert len(lines) - 1 == 7
    assert lines[1] == "2,5/6,,"
    assert "limit 1/4" in err


def test_scan_single_baseline_row(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2", "--max-n", "2")
    assert code == 0
    assert "2 5/6 - -" in out


def test_scan_json_round_trips(capsys):
    code, out, _ = run(capsys, "scan", "--k", "1", "--max-n", "5",
                       "--format", "json")
    obj = json.loads(out)
    assert obj["k"] == 1 and obj["limit"] == "1/2"
    assert len(obj["rows"]) == 4


def test_scan_budget_exits_6(capsys, monkeypatch):
    monkeypatch.setenv("RESNET_VERTEX_BUDGET", "16")
    code, _, err = run(capsys, "scan", "--k", "2", "--max-n", "10")
    assert code == 6 and "budget" in err


def test_scan_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("RESNET_VERTEX_BUDGET", "16")
    code, _, _ = run(capsys, "scan", "--k", "2", "--max-n", "10",
                     "--budget", "4096")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--max-n", "4", "--pair", "a,b"],
    ["--k", "2", "--max-n", "4", "--pair", "0,9"],
    ["--k", "0", "--max-n", "4"],
    ["--k", "2", "--max-n", "1"],
])
def test_scan_malformed_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, "scan", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_non_integer_budget_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("RESNET_VERTEX_BUDGET", "lots")
    code, _, err = run(capsys, "scan", "--k", "2", "--max-n", "4")
    assert code == 2
    assert err == "error: RESNET_VERTEX_BUDGET must be an integer, got 'lots'\n"


def test_scan_outputs_byte_identical(capsys):
    _, first, _ = run(capsys, "scan", "--k", "2", "--max-n", "6", "--format", "csv")
    _, second, _ = run(capsys, "scan", "--k", "2", "--max-n", "6", "--format", "csv")
    assert first == second


# --- diameter ---

def test_diameter_tower_lists_four_pairs(capsys):
    code, out, _ = run(capsys, "diameter", "--builder", "block_tower", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("D_r = ")
    assert len(lines) == 5
    assert "(a1,b1) (a5,b3)" in lines[1]


def test_diameter_square_csv(capsys):
    code, out, _ = run(capsys, "diameter", "--builder", "hypercube", "2",
                       "--format", "csv")
    rows = out.strip().split("\n")
    assert rows[0] == "u,v,label_u,label_v,R"
    assert rows[1] == "0,3,b1,b4,1"


def test_diameter_path_single_pair(capsys):
    code, out, _ = run(capsys, "diameter", "--builder", "path", "3")
    assert code == 0 and out.splitlines()[0] == "D_r = 2"
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_diameter_one_vertex_exits_2(capsys, mode):
    code, out, err = run(capsys, "diameter", "--builder", "path", "1", "--mode", mode)
    assert code == 2 and out == ""
    assert err == "error: network has no vertex pair\n"


def test_unknown_builder_exits_2(capsys):
    code, _, err = run(capsys, "resistance", "--builder", "mystery", "3",
                       "--u", "0", "--v", "1")
    assert code == 2 and "unknown builder" in err
