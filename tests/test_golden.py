"""Byte-for-byte CLI outputs.

The files under ``tests/golden/`` hold the exact stdout of each command
(``ellsuper <argv> > file``).  The count outputs were computed by the
partition-sum recursion, the jump values by the set-partition recursion, the
transfer-stack outputs (``jumps``, ``check``, ``gamma``, ``spectrum``,
``descendant``) by L-infinity maps with a word-length bound, and the
``gamma``/``spectrum`` outputs by a walk over dual-number perturbed actions
(now ``oracle.DualRational``); the code that replaced them must print the
same bytes.  ``descendant --orbits 1500`` sits at the index-sum cap, where the
printed denominator has 3,719 digits, and ``jumps --a 1/3 --orbits
2,3,3,3,3,3,3,3 --route all`` at the ξ arity cap (8 indices), where both
routes give -4188800/2187, was printed before ε's levels were computed on
integers and η's rule read F̂ in one pass.  ``superpotential --d 60 --a inf`` and
``table --d 20 --min 1 --max inf`` were computed by the ``Fraction``
exp-series kernel (now ``oracle.exp_series_pass_fractions``): deep counts
with large numerators, where a denominator or rescaling slip of the integer
kernel would show.  ``table --d 32 --min 1 --max inf --refine-orbit-id`` was
printed before the count kernel resumed from its last pass and keyed its memo
by signature: at the ``table --d`` cap, where 486 signatures are swept.
The bounded-range tables (``table --d 8 --min 9/2 --max 23/2``, ``--d 2
--min 3 --max 7/2``, ``--d 5 --min 2 --max 14``, all ``--refine-orbit-id``)
were printed while each gap's points still came from their own walk: ends
that are not candidates, a range narrower than 1 with no candidate inside,
and ends that are candidates, so the first gap's sample and a finite upper
end are reached.
``check --suite jumps --bound 20`` was printed at the jumps cap before each
support-scan pass was seeded and pruned to the support rule's targets.
``check --suite genfun --bound 30`` was printed at the genfun cap by the
check that multiplied ``Fraction`` series over the full length.

``check_aug_b6.json`` and ``check_linf_b6.json`` (``check --suite aug|linf
--bound 6``, at the caps) were printed before the engine skipped heads with
no odd letter.  They take about 3 s together, so ``CASES`` leaves them out;
CI compares them with ``cmp`` under the fixed hash seeds and again through
the installed script.  The installed-entry-point step also runs every case
of ``CASES`` through the installed ``ellsuper`` script and compares its
stdout with the golden file.
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
    ("superpotential_d60_inf.json", ["superpotential", "--d", "60", "--a", "inf"]),
    ("table_d20_inf.json", ["table", "--d", "20", "--min", "1", "--max", "inf"]),
    ("table_d8_refine.json", ["table", "--d", "8", "--min", "1", "--max", "inf", "--refine-orbit-id"]),
    ("table_d14_refine.json", ["table", "--d", "14", "--min", "1", "--max", "inf", "--refine-orbit-id"]),
    ("table_d32_refine.json", ["table", "--d", "32", "--min", "1", "--max", "inf", "--refine-orbit-id"]),
    ("table_d8_9-2_23-2_refine.json", ["table", "--d", "8", "--min", "9/2", "--max", "23/2", "--refine-orbit-id"]),
    ("table_d2_3_7-2_refine.json", ["table", "--d", "2", "--min", "3", "--max", "7/2", "--refine-orbit-id"]),
    (
        "table_d5_2_14_refine.csv",
        ["table", "--d", "5", "--min", "2", "--max", "14", "--refine-orbit-id", "--format", "csv"],
    ),
    (
        "table_d8_refine.csv",
        ["table", "--d", "8", "--min", "1", "--max", "inf", "--refine-orbit-id", "--format", "csv"],
    ),
    ("bound_d4_a1-7-3.json", ["bound", "--d", "4", "--a", "1,7/3"]),
    ("jumps_a5-4_o2-8.json", ["jumps", "--a", "5/4", "--orbits", "2,8"]),
    ("jumps_a1-2_o1-2-2.json", ["jumps", "--a", "1/2", "--orbits", "1,2,2"]),
    ("jumps_a3-2_o1-1-2_xi.json", ["jumps", "--a", "3/2", "--orbits", "1,1,2", "--route", "xi"]),
    ("jumps_a1-2_o2-2-2-2-2_xi.json", ["jumps", "--a", "1/2", "--orbits", "2,2,2,2,2", "--route", "xi"]),
    ("check_linf.json", ["check", "--suite", "linf"]),
    ("check_jumps_b7.json", ["check", "--suite", "jumps", "--bound", "7"]),
    ("check_jumps_b12.json", ["check", "--suite", "jumps", "--bound", "12"]),
    ("check_jumps_b20.json", ["check", "--suite", "jumps", "--bound", "20"]),
    ("jumps_a1-2_o2-2-2-2_all.json", ["jumps", "--a", "1/2", "--orbits", "2,2,2,2", "--route", "all"]),
    ("jumps_a1-2_o1-2-2-2_recursive.json", ["jumps", "--a", "1/2", "--orbits", "1,2,2,2", "--route", "recursive"]),
    ("jumps_a2-9_o1-10_all.json", ["jumps", "--a", "2/9", "--orbits", "1,10", "--route", "all"]),
    (
        "jumps_a1-3_o2-3-3-3-3-3-3-3_all.json",
        ["jumps", "--a", "1/3", "--orbits", "2,3,3,3,3,3,3,3", "--route", "all"],
    ),
    ("check_aug_b3.json", ["check", "--suite", "aug", "--bound", "3"]),
    ("check_genfun_b30.json", ["check", "--suite", "genfun", "--bound", "30"]),
    ("gamma_a1-3-2_k0-8.csv", ["gamma", "--a", "1,3/2", "--k", "0..8", "--format", "csv"]),
    ("spectrum_a1-3-2_c10.json", ["spectrum", "--a", "1,3/2", "--count", "10"]),
    ("descendant_a1-3_o2-2.json", ["descendant", "--a", "1,3", "--orbits", "2,2"]),
    ("descendant_a1-7-3_o1500.json", ["descendant", "--a", "1,7/3", "--orbits", "1500"]),
    ("gamma_a1-7-3_k30000.json", ["gamma", "--a", "1,7/3", "--k", "30000..30000"]),
    ("gamma_a1-3-2plus_k5-60.csv", ["gamma", "--a", "1,3/2+", "--k", "5..60", "--format", "csv"]),
    ("gamma_a1-3-2minus_k5-60.json", ["gamma", "--a", "1,3/2-", "--k", "5..60"]),
    ("gamma_a2-3-5-2-7_k0-90.json", ["gamma", "--a", "2,3,5/2,7", "--k", "0..90"]),
    ("spectrum_a4-3-5-2_c40.json", ["spectrum", "--a", "4/3,5/2", "--count", "40"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden_file(capsys, name, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()
