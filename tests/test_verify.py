from __future__ import annotations

import json

from omsr.autgroup import is_automorphism
from omsr.cli import main
from omsr.constructions import family_matrix
from omsr.groups import klein_four, make_cyclic
from omsr.mcayley import ConnectionMatrix, build
from omsr.perms import cycle_string
from omsr.suite import z4_block_example
from omsr.verify import SCHEMA, VerificationReport, verify_connection


def test_z4_example_fails_only_on_aut_order() -> None:
    group, conn = z4_block_example()
    report = verify_connection(group, conn)
    assert report.oriented and report.regular3 and report.connected
    assert report.aut_order == 8
    assert report.group_order == 4
    assert report.verdict == "NOT-OMSR"
    assert report.m == 2


def test_klein_m3_report_is_omsr() -> None:
    group, spec = klein_four()
    conn = family_matrix("klein-m3", group, spec, 3)
    report = verify_connection(group, conn, family="klein-m3")
    assert report.verdict == "OMSR"
    assert report.aut_order == 4
    assert report.family == "klein-m3"
    assert report.checks == {
        "oriented": True,
        "regular3": True,
        "connected": True,
        "aut_order": 4,
        "group_order_expected": 4,
        "verdict": "OMSR",
    }


def test_arcless_matrix_fails_regularity() -> None:
    group, _ = make_cyclic(3)
    report = verify_connection(group, ConnectionMatrix.from_entries(2, {}))
    assert report.oriented  # no arcs, so no digons
    assert not report.regular3
    assert not report.connected
    assert report.verdict == "NOT-OMSR"
    # six isolated vertices admit every permutation
    assert report.aut_order == 720


def test_generators_are_automorphisms_of_the_built_digraph() -> None:
    group, spec = klein_four()
    conn = family_matrix("klein-m3", group, spec, 3)
    report = verify_connection(group, conn)
    graph = build(group, conn)
    assert len(report.aut_generators) == len(report.aut_generator_images)
    for images in report.aut_generator_images:
        assert is_automorphism(graph, images)
    for text, images in zip(report.aut_generators, report.aut_generator_images):
        assert cycle_string(images) == text


def test_report_json_roundtrip_reverifies_identically(tmp_path, capsys) -> None:
    group, conn = z4_block_example()
    report = verify_connection(group, conn, family=None)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["schema"] == SCHEMA
    assert payload["group"] == {"name": group.name, "order": 4}
    assert payload["checks"]["verdict"] == "NOT-OMSR"

    # the embedded matrix is enough to reproduce the whole verdict
    again = verify_connection(group, ConnectionMatrix.from_json(payload["matrix"]))
    assert again.checks == report.checks

    # and so is the report file that `omsr verify --out` writes
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(payload["matrix"]))
    path = tmp_path / "report.json"
    assert main(["verify", "--group", "cyclic:4", "--matrix", str(matrix), "--out", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["checks"] == payload["checks"]


def test_human_table_lines() -> None:
    group, spec = make_cyclic(2)
    conn = family_matrix("z2-general", group, spec, 11)
    report = verify_connection(group, conn, family="z2-general")
    table = report.human_table()
    lines = dict(
        (line.split(None, 1)[0], line) for line in table.splitlines()
    )
    assert "OMSR" in lines["verdict"]
    assert "yes" in lines["oriented"]
    assert "Z2 (order 2)" in lines["group"]
    assert "|Aut|" in table and "weakly connected" in table
    assert report.aut_order == 2


def test_report_is_frozen() -> None:
    group, conn = z4_block_example()
    report = verify_connection(group, conn)
    assert isinstance(report, VerificationReport)
    try:
        report.verdict = "OMSR"  # type: ignore[misc]
    except AttributeError:
        return
    raise AssertionError("report should be immutable")
