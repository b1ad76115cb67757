"""Byte-for-byte CLI outputs for the count commands.

The files under ``tests/golden/`` hold the exact stdout of each command
(``ellsuper <argv> > file``).  The counts behind them were computed by the
partition-sum recursion; the series recursion that replaced it must print the
same bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ellsuper.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("superpotential_d30_a7-3.json", ["superpotential", "--d", "30", "--a", "7/3"]),
    ("superpotential_d12_a13-2plus.json", ["superpotential", "--d", "12", "--a", "13/2+"]),
    ("superpotential_d9_inf.json", ["superpotential", "--d", "9", "--a", "inf"]),
    ("table_d8_refine.json", ["table", "--d", "8", "--min", "1", "--max", "inf", "--refine-orbit-id"]),
    (
        "table_d8_refine.csv",
        ["table", "--d", "8", "--min", "1", "--max", "inf", "--refine-orbit-id", "--format", "csv"],
    ),
    ("bound_d4_a1-7-3.json", ["bound", "--d", "4", "--a", "1,7/3"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden_file(capsys, name, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()
