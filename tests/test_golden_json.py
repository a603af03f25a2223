"""The exact --json text of the documents no other test pins: the relation
profile, the set classification with its prediction row, both `conn`
details (the cpss projections and the brute count) and the full report.
Each file under golden/ is the stdout of the command line named beside it."""

from __future__ import annotations

from pathlib import Path

import pytest

from relconn.cli import main

TESTS = Path(__file__).resolve().parent
SAMPLES = TESTS.parent / "samples"
GOLDEN = TESTS / "golden"

RUNS = {
    "classify-relation-rconp.json": ["classify-relation", "rconp.rel"],
    "classify-set-m.json": ["classify-set", "m.rel"],
    "conn-triangle.json": ["conn", "triangle.cnfs"],
    "conn-conp-brute.json": ["conn", "conp.cnfs", "--method", "brute"],
    "report-conp.json": ["report", "conp.cnfs"],
}


def test_every_golden_file_is_run():
    assert {p.name for p in GOLDEN.glob("*.json")} == set(RUNS)


@pytest.mark.parametrize("golden", RUNS)
def test_json_document(capsys, golden):
    command, name, *rest = RUNS[golden]
    assert main([command, str(SAMPLES / name), *rest, "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / golden).read_text()
