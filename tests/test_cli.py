from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from omsr import search
from omsr.cli import GROUP_HELP, main, parse_group_spec
from omsr.constructions import family_matrix
from omsr.groups import MAX_GROUP_ORDER, make_cyclic, standard_two_generated
from omsr.mcayley import MAX_BLOCKS


def _stdout_json(capsys) -> dict:
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def test_parse_group_spec_kinds(tmp_path) -> None:
    group, spec = parse_group_spec("cyclic:6")
    assert group.n == 6 and spec.x == 1

    group, _ = parse_group_spec("product:2,3")
    assert group.n == 6

    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "kind": "perm", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]],
    }))
    group, _ = parse_group_spec(f"perm:{path}")
    assert group.n == 6

    for bad in ("cyclic", "cyclic:", "weird:3"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_catalog_group_spec_names_the_catalog(capsys) -> None:
    for name, order in (("A4", 12), ("Q8", 8), ("Z2xZ4", 8)):
        parsed = parse_group_spec(f"catalog:{name}")
        assert parsed == standard_two_generated(name)
        assert parsed[0].n == order
    assert main(["construct", "--group", "catalog:A4", "--m", "12"]) == 0
    assert _stdout_json(capsys)["group"] == {"name": "A4", "order": 12}
    for command in (["construct", "--m", "2"], ["verify", "--m", "2"], ["search", "--m", "2"]):
        assert main([*command, "--group", "catalog:A5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown group 'A5'")
        assert "known: A4, D4, D5, Q8, S3, Z2xZ4" in err


def test_group_option_has_one_help_text(capsys) -> None:
    for command in ("construct", "verify", "search"):
        assert main([command, "--help"]) == 0
        # argparse wraps the help text, so compare with whitespace collapsed
        assert f"--group GROUP {GROUP_HELP}" in " ".join(capsys.readouterr().out.split())
    assert "catalog:NAME" in GROUP_HELP


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_dispatches_cyclic(capsys) -> None:
    assert main(["construct", "--group", "cyclic:7", "--m", "2"]) == 0
    report = _stdout_json(capsys)
    assert report["family"] == "cyclic-m2"
    assert report["vertices"] == 14
    assert report["arcs"] == 42
    assert report["matrix"]["m"] == 2


def test_construct_exception_verdict_exits_2(capsys) -> None:
    assert main(["construct", "--group", "cyclic:3", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert "no construction" in err
    assert "cyclic-group-of-order-three-or-four-with-two-blocks" in err
    assert "status impossible" in err


def test_construct_open_case_exits_2(capsys) -> None:
    assert main(["construct", "--group", "cyclic:1", "--m", "3"]) == 2
    assert "status open" in capsys.readouterr().err


def test_construct_forced_family(capsys) -> None:
    assert main([
        "construct", "--group", "cyclic:7", "--m", "3",
        "--family", "cyclic-general",
    ]) == 0
    assert _stdout_json(capsys)["family"] == "cyclic-general"


def test_construct_forced_family_outside_domain_exits_1(capsys) -> None:
    assert main([
        "construct", "--group", "cyclic:7", "--m", "3", "--family", "klein-m3",
    ]) == 1
    assert "error" in capsys.readouterr().err


def test_construct_names_the_designated_pair_that_does_not_generate(capsys) -> None:
    # Z2^3 needs three generators; Z2xZ2xZ3 has two, but not the designated pair
    for spec, name in (("product:2,2,2", "Z2xZ2xZ2"), ("product:2,2,3", "Z2xZ2xZ3")):
        assert main(["construct", "--group", spec, "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: the designated pair x = ((x,1),1), y = ((1,x),1) does not generate {name}"
        )
        assert "x from its first factor and y from its second" in err
        assert "perm:file.json" in err


def test_construct_writes_out_and_dot(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    dot = tmp_path / "graph.dot"
    assert main([
        "construct", "--group", "product:2,2", "--m", "3",
        "--out", str(out), "--dot", str(dot),
    ]) == 0
    report = json.loads(out.read_text())
    assert report["family"] == "klein-m3"
    text = dot.read_text()
    assert text.startswith("digraph klein_m3")
    assert "->" in text


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_family_prints_table_and_json(tmp_path, capsys) -> None:
    out = tmp_path / "verdict.json"
    assert main([
        "verify", "--group", "product:2,2", "--family", "klein-m3",
        "--m", "3", "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "verdict" in stdout and "OMSR" in stdout
    assert "weakly connected" in stdout
    saved = json.loads(out.read_text())
    assert saved["checks"]["verdict"] == "OMSR"
    assert saved["checks"]["aut_order"] == 4


def test_verify_accepts_bare_matrix_file(tmp_path, capsys) -> None:
    z7, spec = make_cyclic(7)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(family_matrix("cyclic-m2", z7, spec, 2).to_json()))
    assert main(["verify", "--group", "cyclic:7", "--matrix", str(path)]) == 0
    payload = _stdout_json(capsys)
    assert payload["checks"]["verdict"] == "OMSR"
    assert payload["checks"]["aut_order"] == 7


def test_verify_accepts_construct_report(tmp_path, capsys) -> None:
    report = tmp_path / "construct.json"
    assert main([
        "construct", "--group", "cyclic:7", "--m", "2", "--out", str(report),
    ]) == 0
    capsys.readouterr()
    assert main(["verify", "--group", "cyclic:7", "--matrix", str(report)]) == 0
    assert _stdout_json(capsys)["checks"]["verdict"] == "OMSR"


def test_verify_not_omsr_still_exits_0(tmp_path, capsys) -> None:
    # the pipeline succeeded; the verdict is data, not an error
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 2, "sets": {}}))
    assert main(["verify", "--group", "cyclic:3", "--matrix", str(path)]) == 0
    assert _stdout_json(capsys)["checks"]["verdict"] == "NOT-OMSR"


def test_verify_usage_errors(capsys) -> None:
    assert main(["verify", "--group", "cyclic:5"]) == 1
    assert main(["verify", "--group", "cyclic:5", "--family", "cyclic-m2"]) == 1
    assert main(["verify", "--group", "cyclic:5", "--matrix", "missing.json"]) == 1
    capsys.readouterr()


def test_verify_matrix_file_not_an_object_exits_1(tmp_path, capsys) -> None:
    for payload in ([1, 2], 7, {"matrix": [1, 2]}):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--group", "cyclic:5", "--matrix", str(path)]) == 1
        assert "not a JSON object" in capsys.readouterr().err


def test_verify_malformed_matrix_exits_1(tmp_path, capsys) -> None:
    payloads = (
        {},
        {"m": "2", "sets": {}},
        {"m": 2, "sets": [1]},
        {"m": 2, "sets": {"0-1": [1]}},
        {"m": 2, "sets": {"0,1,2": [1]}},
        {"m": 2, "sets": {"0,1": 3}},
        {"m": 2, "sets": {"0,1": [1.5]}},
        # without "sets" this once verified as the empty matrix and exited 0
        {"m": 2},
        {"m": 2, "rows": {}},
    )
    for payload in payloads:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--group", "cyclic:5", "--matrix", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_matrix_naming_a_cell_twice_exits_1(tmp_path, capsys) -> None:
    # "0,1" and "00,1" name one cell, and "1,0" lists x twice; each was once
    # merged silently, so the file verified as another matrix
    for sets, key in (
        ({"0,1": [1], "00,1": [0], "1,0": [1]}, "'00,1'"),
        ({"0,1": [1], "1,0": [1, 1]}, "'1,0'"),
    ):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"m": 2, "sets": sets}))
        assert main(["verify", "--group", "cyclic:5", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
    # one key spelt the same twice, which json would read as its last value
    path.write_text('{"m": 2, "sets": {"0,1": [1], "0,1": [0], "1,0": [1]}}')
    assert main(["verify", "--group", "cyclic:5", "--matrix", str(path)]) == 1
    assert "'0,1' twice" in capsys.readouterr().err


def test_verify_a_search_past_the_recursion_limit_exits_1(tmp_path, capsys) -> None:
    # 100 empty blocks of Z2: the search descends 199 levels, past the limit
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"m": 100, "sets": {}}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert main(["verify", "--group", "cyclic:2", "--matrix", str(path)]) == 1
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().err.startswith("error: search tree depth")


def test_past_the_block_count_limit_exits_1(tmp_path, capsys) -> None:
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"m": MAX_BLOCKS + 1, "sets": {}}))
    assert main(["verify", "--group", "cyclic:2", "--matrix", str(path)]) == 1
    assert f"block count {MAX_BLOCKS + 1} exceeds the limit" in capsys.readouterr().err
    assert main(["construct", "--group", "cyclic:2", "--m", str(MAX_BLOCKS + 1)]) == 1
    assert "exceeds the limit" in capsys.readouterr().err


def test_construct_past_the_group_order_limit_exits_1(capsys) -> None:
    for group in (f"cyclic:{MAX_GROUP_ORDER + 1}", "cyclic:100000", "product:40,40"):
        assert main(["construct", "--group", group, "--m", "2"]) == 1
        assert "exceeds the limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_exhausted(tmp_path, capsys) -> None:
    out = tmp_path / "search.json"
    assert main([
        "search", "--group", "cyclic:4", "--m", "2", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "EXHAUSTED"
    assert payload["candidates_tested"] == 24
    capsys.readouterr()


def test_search_found(capsys) -> None:
    assert main(["search", "--group", "cyclic:5", "--m", "2", "--connected"]) == 0
    payload = _stdout_json(capsys)
    assert payload["status"] == "FOUND"
    assert payload["witness"]["m"] == 2


def test_search_malformed_checkpoint_exits_1(tmp_path, capsys) -> None:
    path = tmp_path / "ckpt.json"
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 0
    payload = json.loads(path.read_text())
    del payload["last_completed_branch"]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_search_checkpoint_past_the_end_or_overcounted_exits_1(tmp_path, capsys) -> None:
    path = tmp_path / "ckpt.json"
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 0
    payload = json.loads(path.read_text())
    for changed in (
        {**payload, "last_completed_branch": 999},
        {**payload, "aut_order_histogram": {"8": payload["candidates_tested"] + 1}},
    ):
        path.write_text(json.dumps(changed))
        written = path.read_bytes()
        capsys.readouterr()
        assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert path.read_bytes() == written


def test_search_checkpoint_in_a_missing_directory_exits_1_before_searching(
    monkeypatch, tmp_path, capsys
) -> None:
    path = tmp_path / "missing" / "x.json"
    monkeypatch.setattr(search, "_search_branch", lambda *args: pytest.fail("searched"))
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {path} cannot be written: {path.parent} is not a directory\n"
    assert not path.parent.exists()


def test_search_checkpoint_for_other_space_exits_1(tmp_path, capsys) -> None:
    path = tmp_path / "c.json"
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--checkpoint", str(path)]) == 0
    written = path.read_bytes()
    capsys.readouterr()
    assert main(["search", "--group", "cyclic:3", "--m", "2", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"group": "Z4"' in err and '"group": "Z3"' in err
    assert path.read_bytes() == written
    assert json.loads(written)["space"]["group"] == "Z4"


def test_search_budget_exits_3(capsys) -> None:
    assert main(["search", "--group", "cyclic:2", "--m", "3", "--budget", "10"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_negative_budget_exits_1(capsys) -> None:
    for args in (
        ["search", "--group", "cyclic:4", "--m", "2"],
        ["explore", "--n", "8"],
        ["explore", "--n", "8", "--mode", "exhaustive"],
    ):
        assert main([*args, "--budget", "-3"]) == 1, args
        captured = capsys.readouterr()
        assert captured.err == "error: budget must be nonnegative, got -3\n"
        assert captured.out == ""
    # a budget of 0 is valid: the search stops at its first row
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--budget", "0"]) == 3
    assert "budget of 0 in branch 0" in capsys.readouterr().err


def test_search_budget_stop_resumes_from_its_checkpoint(tmp_path, capsys) -> None:
    args = ["search", "--group", "cyclic:2", "--m", "4"]
    assert main(args) == 0
    clean = capsys.readouterr().out
    path = str(tmp_path / "ckpt.json")
    # branches 0..6 do 3,017 units of work, and branch 7 passes that budget
    assert main([*args, "--budget", "3017", "--checkpoint", path]) == 3
    assert json.loads(Path(path).read_text())["last_completed_branch"] == 6
    capsys.readouterr()
    assert main([*args, "--budget", "5000", "--checkpoint", path]) == 0
    assert capsys.readouterr().out == clean


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def test_explore_found(capsys) -> None:
    assert main(["explore", "--n", "1", "--k", "0", "--mode", "exhaustive"]) == 0
    payload = _stdout_json(capsys)
    assert payload["status"] == "FOUND"
    assert payload["exploratory"] is True


def test_explore_budget_exits_3(capsys) -> None:
    assert main([
        "explore", "--n", "9", "--k", "3", "--mode", "randomized",
        "--budget", "3",
    ]) == 3
    assert _stdout_json(capsys)["status"] == "BUDGET"


def test_explore_bad_valency_or_switches_exits_1(capsys) -> None:
    for extra in (["--k", "-1"], ["--switches", "-1"], ["--switches", "0"]):
        assert main(["explore", "--n", "7", "--budget", "5", *extra]) == 1, extra
        assert capsys.readouterr().err.startswith("error: ")


def test_explore_randomized_ten_vertices(capsys) -> None:
    assert main([
        "explore", "--n", "10", "--k", "3", "--mode", "randomized",
        "--budget", "50", "--seed", "0",
    ]) == 0
    payload = _stdout_json(capsys)
    assert payload["status"] == "FOUND"
    assert payload["witness"]["nv"] == 10


# ---------------------------------------------------------------------------
# suite and argument handling
# ---------------------------------------------------------------------------

def test_suite_only_first_criterion(capsys) -> None:
    assert main(["suite", "--only", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1/1 criteria passed" in out


def test_suite_only_out_of_range_exits_1(capsys) -> None:
    for only in ("0", "12", "1,12"):
        assert main(["suite", "--only", only]) == 1
        captured = capsys.readouterr()
        assert "criteria are numbered 1..11" in captured.err
        assert "PASS" not in captured.out


def test_suite_only_takes_ascii_digits_and_commas(capsys) -> None:
    # "１" is a fullwidth digit, which int() would read as 1
    for only in ("x", "1,,2", "１", "", "1, 2", "-1"):
        assert main(["suite", "--only", only]) == 1
        captured = capsys.readouterr()
        assert "argument --only: want criterion numbers 1..11" in captured.err
        assert "invalid literal" not in captured.err and captured.out == ""


def test_usage_errors_exit_1(capsys) -> None:
    assert main(["no-such-command"]) == 1
    assert main(["construct", "--group", "cyclic:5"]) == 1  # missing --m
    assert main([]) == 1
    capsys.readouterr()
    # the search runs in one process and has no --jobs option
    assert main(["search", "--group", "cyclic:4", "--m", "2", "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_bad_group_spec_exits_1(capsys) -> None:
    assert main(["construct", "--group", "weird:5", "--m", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_group_file_exits_1(tmp_path, capsys) -> None:
    payloads = (
        [1, 2],
        {"kind": "cyclic"},
        {"kind": "cyclic", "n": "5"},
        {"kind": "product", "factors": [2, {"kind": "cyclic"}]},
        {"kind": "product", "factors": 5},
        {"kind": "product", "factors": [2, "3"]},
        {"kind": "perm", "degree": 3},
        {"kind": "perm", "degree": 3, "generators": [5]},
        {"kind": "perm", "degree": 3, "generators": [[1, 2, "0"]]},
    )
    path = tmp_path / "g.json"
    for payload in payloads:
        path.write_text(json.dumps(payload))
        for command in (
            ["construct", "--m", "2"],
            ["verify", "--family", "cyclic-general", "--m", "2"],
            ["search", "--m", "2"],
        ):
            assert main([*command, "--group", f"perm:{path}"]) == 1, (payload, command)
            assert capsys.readouterr().err.startswith("error: ")
