"""Tests for the command-line front end.

Every command is exercised in-process through ``main(argv)``: JSON schema
(``{"command", "input", "result"}``), CSV flattening, side-suffix parsing,
exit codes (0 success, 1 invalid input, 2 internal breach / failing suite),
and byte-for-byte determinism.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellsuper
from ellsuper import cli, orbits
from ellsuper.cli import (
    AUG_MAX_BOUND,
    COUNT_MAX_DEGREE,
    DESCENDANT_MAX_INDEX_SUM,
    GAMMA_MAX_OUTPUT_DIGITS,
    GAMMA_MAX_WIDTH,
    GAMMA_SUITE_MAX_BOUND,
    GENFUN_MAX_BOUND,
    JUMPS_MAX_INDEX_SUM,
    JUMPS_MAX_SPLIT_WORK,
    JUMPS_XI_MAX_INDEX_SUM,
    JUMPS_XI_MAX_ORBITS,
    PARAMS_MAX_AXES,
    TABLE_MAX_DEGREE,
    _build_parser,
    _SUITES,
    main,
)
from ellsuper.jumps import ScanHit, jump_pants
from ellsuper.report import Report


def run_cli(capsys, argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    """Invoke the CLI, require success, and parse the JSON payload."""
    code, out, err = run_cli(capsys, argv)
    assert code == 0, f"expected success, got exit {code}; stderr: {err}"
    assert err == ""
    return json.loads(out)


def run_error(capsys, argv):
    """Invoke the CLI, require exit code 1, and parse the stderr error object."""
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    return json.loads(err)["error"]


# ---------------------------------------------------------------- gamma


GAMMA_PATH = [
    [0, 0],
    [1, 0],
    [1, 1],
    [2, 1],
    [3, 1],
    [3, 2],
    [4, 2],
    [4, 3],
    [5, 3],
]


def test_gamma_json_schema_and_path(capsys):
    payload = run_json(capsys, ["gamma", "--a", "1,3/2", "--k", "0..8"])
    assert set(payload) == {"command", "input", "result"}
    assert payload["command"] == "gamma"
    assert payload["input"] == {"a": "1,3/2", "k": "0..8"}
    points = payload["result"]["points"]
    assert [row["k"] for row in points] == list(range(9))
    assert [row["gamma"] for row in points] == GAMMA_PATH


def test_gamma_single_index(capsys):
    payload = run_json(capsys, ["gamma", "--a", "1,3/2", "--k", "8"])
    assert payload["result"]["points"] == [{"k": 8, "gamma": [5, 3]}]


def test_gamma_side_suffix_equals_flag(capsys):
    code1, out1, _ = run_cli(capsys, ["gamma", "--a", "1,2+", "--k", "2"])
    code2, out2, _ = run_cli(capsys, ["gamma", "--a", "1,2", "--k", "2", "--side", "plus"])
    assert code1 == code2 == 0
    assert out1 == out2
    minus = run_json(capsys, ["gamma", "--a", "1,2-", "--k", "2"])
    assert json.loads(out1)["result"]["points"][0]["gamma"] == [2, 0]
    assert minus["result"]["points"][0]["gamma"] == [1, 1]


def test_gamma_conflicting_sides(capsys):
    message = run_error(capsys, ["gamma", "--a", "1,2+", "--k", "1", "--side", "minus"])
    assert "conflicting sides" in message


def test_gamma_csv(capsys):
    code, out, err = run_cli(capsys, ["gamma", "--a", "1,3/2", "--k", "0..8", "--format", "csv"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "k,v1,v2"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "8,5,3"
    assert len(lines) == 10


def test_gamma_csv_three_axes_header(capsys):
    _, out, _ = run_cli(capsys, ["gamma", "--a", "1,1,1", "--k", "3", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "k,v1,v2,v3"
    assert lines[1] == "3,1,1,1"


@pytest.mark.parametrize("bad_k", ["5..2", "x", "1..y", "-3"])
def test_gamma_bad_k_range(capsys, bad_k):
    code, _, err = run_cli(capsys, ["gamma", "--a", "1,2", "--k", bad_k])
    assert code == 1
    assert "error" in json.loads(err)


def test_gamma_output_over_the_digit_cap_exits_1_before_walking(capsys, monkeypatch):
    """A full-width range from 10^4000 would print about 0.8 billion digits;
    one from 10^12 at 16 axes (13-digit indices) stays accepted."""
    monkeypatch.setattr("ellsuper.cli.gamma_range", lambda *args: iter(()))
    lo = 10**12
    argv = ["gamma", "--a", _axes(PARAMS_MAX_AXES), "--k", f"{lo}..{lo + GAMMA_MAX_WIDTH - 1}"]
    assert run_json(capsys, argv)["result"]["points"] == []

    def boom(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    monkeypatch.setattr("ellsuper.orbits.gamma_closed_form", boom)
    lo = 10**4000
    error = run_error(capsys, ["gamma", "--a", "1,7/3", "--k", f"{lo}..{lo + GAMMA_MAX_WIDTH - 1}"])
    assert f"would print about {GAMMA_MAX_WIDTH * 2 * 4001} digits" in error
    assert f"cap is {GAMMA_MAX_OUTPUT_DIGITS} (GAMMA_MAX_OUTPUT_DIGITS)" in error


def test_gamma_large_single_index_is_fast(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, ["gamma", "--a", "1,7/3", "--k", "3000000..3000000"])
    elapsed = time.perf_counter() - start
    assert payload["result"]["points"] == [{"k": 3000000, "gamma": [2100000, 900000]}]
    assert elapsed < 5.0


# ---------------------------------------------------------------- spectrum


def test_spectrum_json(capsys):
    payload = run_json(capsys, ["spectrum", "--a", "1,3/2", "--count", "5"])
    rows = payload["result"]["orbits"]
    assert [row["action"] for row in rows] == ["1", "3/2", "2", "3", "3"]
    assert [row["k"] for row in rows] == [1, 2, 3, 4, 5]
    assert rows[0] == {"k": 1, "axis": 1, "multiplicity": 1, "action": "1"}


def test_spectrum_csv(capsys):
    _, out, _ = run_cli(capsys, ["spectrum", "--a", "1,3/2", "--count", "3", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines == ["k,axis,multiplicity,action", "1,1,1,1", "2,2,1,3/2", "3,1,2,2"]


def test_spectrum_count_must_be_positive(capsys):
    message = run_error(capsys, ["spectrum", "--a", "1,2", "--count", "0"])
    assert "--count" in message


def test_spectrum_output_over_the_digit_cap_exits_1_before_walking(capsys, monkeypatch):
    """Axes of about 4,000 digits print about 4 MB at --count 1000 and stay
    accepted, as do 16 small axes at the full count; the full count on the
    large axes would print about 400 MB."""
    monkeypatch.setattr("ellsuper.cli.gamma_range", lambda *args: [])
    x = 10**3990
    assert run_json(capsys, ["spectrum", "--a", f"{x},{x + 1}", "--count", "1000"])["result"]["orbits"] == []
    argv = ["spectrum", "--a", _axes(PARAMS_MAX_AXES), "--count", str(GAMMA_MAX_WIDTH)]
    assert run_json(capsys, argv)["result"]["orbits"] == []

    def boom(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    error = run_error(capsys, ["spectrum", "--a", f"{x},{x + 1}", "--count", str(GAMMA_MAX_WIDTH)])
    assert f"would print about {GAMMA_MAX_WIDTH * 2 * (6 + 3991 + 1)} digits" in error
    assert f"cap is {GAMMA_MAX_OUTPUT_DIGITS} (GAMMA_MAX_OUTPUT_DIGITS)" in error


def test_spectrum_action_too_long_to_print_exits_1(capsys):
    # N has 4,300 digits, the most Python prints; the third orbit's action 2N has one more
    n = "9" * 4300
    assert len(run_json(capsys, ["spectrum", "--a", f"{n},{n}", "--count", "2"])["result"]["orbits"]) == 2
    error = run_error(capsys, ["spectrum", "--a", f"{n},{n}", "--count", "3"])
    assert "action of orbit 3" in error
    assert "more than 4300 digits" in error


def test_spectrum_memoizes_nothing(capsys):
    payload = run_json(capsys, ["spectrum", "--a", "1,3/2,1000003/7919", "--count", "12"])
    assert len(payload["result"]["orbits"]) == 12
    assert not any(p.a[-1] == Fraction(1000003, 7919) for p in orbits._WALKS)


# ---------------------------------------------------------------- descendant


def test_descendant_payload(capsys):
    payload = run_json(capsys, ["descendant", "--a", "1,3", "--orbits", "2,2"])
    assert payload["input"] == {"a": "1,3", "orbits": [2, 2]}
    assert payload["result"] == {"count": "1/24", "psi_power": 4}


def test_descendant_rejects_nonpositive_orbits(capsys):
    message = run_error(capsys, ["descendant", "--a", "1,3", "--orbits", "0,2"])
    assert "positive" in message


@pytest.mark.parametrize("a, orbits", [("1,7/3", str(DESCENDANT_MAX_INDEX_SUM + 1)), ("1,1", "800,800,800")])
def test_descendant_index_sum_above_cap_exits_1_before_counting(capsys, monkeypatch, a, orbits):
    def boom(params, indices):
        raise AssertionError("the count must not start")

    monkeypatch.setattr("ellsuper.cli.local_descendant", boom)
    error = run_error(capsys, ["descendant", "--a", a, "--orbits", orbits])
    assert "DESCENDANT_MAX_INDEX_SUM" in error
    assert f"cap is {DESCENDANT_MAX_INDEX_SUM}" in error


def _axes(n):
    return ",".join(str(i) for i in range(1, n + 1))


def test_axes_at_the_cap_pass(capsys):
    a = _axes(PARAMS_MAX_AXES)
    assert len(run_json(capsys, ["gamma", "--a", a, "--k", "40"])["result"]["points"][0]["gamma"]) == PARAMS_MAX_AXES
    assert len(run_json(capsys, ["spectrum", "--a", a, "--count", "40"])["result"]["orbits"]) == 40
    assert run_json(capsys, ["descendant", "--a", a, "--orbits", "2,3"])["input"]["a"] == a


@pytest.mark.parametrize("argv", [["gamma", "--k", "3"], ["spectrum", "--count", "3"], ["descendant", "--orbits", "2"]])
def test_axes_above_the_cap_exit_1_before_any_work(capsys, monkeypatch, argv):
    def boom(*args):
        raise AssertionError("the work must not start")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    monkeypatch.setattr("ellsuper.cli.local_descendant", boom)
    error = run_error(capsys, [argv[0], "--a", _axes(PARAMS_MAX_AXES + 1), *argv[1:]])
    assert f"{PARAMS_MAX_AXES + 1} axes" in error
    assert f"cap is {PARAMS_MAX_AXES} (PARAMS_MAX_AXES)" in error


def test_parameter_too_long_to_print_exits_1(capsys):
    error = run_error(capsys, ["descendant", "--a", "1,1e5000", "--orbits", "3"])
    assert "not a rational number: '1e5000'" in error


# ---------------------------------------------------------------- superpotential


def test_superpotential_sided_value(capsys):
    payload = run_json(capsys, ["superpotential", "--target", "cp2", "--d", "5", "--a", "13/2+"])
    assert payload["result"] == {"wt_T": "13", "multiplicity": 13, "T": "1"}
    assert payload["input"]["a"] == "1,13/2+"


def test_superpotential_infinite_parameter(capsys):
    payload = run_json(capsys, ["superpotential", "--d", "3", "--a", "inf"])
    assert payload["result"] == {"wt_T": "32", "multiplicity": 8, "T": "4"}
    assert payload["input"]["a"] == "inf"


def test_superpotential_infinite_parameter_rejects_side(capsys):
    for argv in (
        ["superpotential", "--d", "3", "--a", "inf+"],
        ["superpotential", "--d", "3", "--a", "inf", "--side", "plus"],
    ):
        message = run_error(capsys, argv)
        assert "side" in message


def count_must_not_start(*args):
    raise AssertionError("the count must not start")


@pytest.mark.parametrize("a", ["inf", "13/2+"])
def test_superpotential_degree_above_cap_exits_1_before_counting(capsys, monkeypatch, a):
    for name in ("wt_T", "T", "wt_T_infinity", "T_infinity"):
        monkeypatch.setattr(f"ellsuper.cli.{name}", count_must_not_start)
    error = run_error(capsys, ["superpotential", "--d", str(COUNT_MAX_DEGREE + 1), "--a", a])
    assert f"--d {COUNT_MAX_DEGREE + 1}" in error
    assert f"cap is {COUNT_MAX_DEGREE} (COUNT_MAX_DEGREE)" in error


def test_superpotential_degree_at_cap_runs(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.wt_T_infinity", lambda d: Fraction(d))
    monkeypatch.setattr("ellsuper.cli.T_infinity", lambda d: Fraction(1))
    payload = run_json(capsys, ["superpotential", "--d", str(COUNT_MAX_DEGREE), "--a", "inf"])
    assert payload["result"]["wt_T"] == str(COUNT_MAX_DEGREE)


@pytest.mark.parametrize(
    "argv",
    [
        ["superpotential", "--d", "0", "--a", "2"],
        ["superpotential", "--d", "1", "--a", "1"],
        ["superpotential", "--d", "1", "--a", "2", "--target", "hirzebruch"],
    ],
)
def test_superpotential_input_validation(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert "error" in json.loads(err)


# ---------------------------------------------------------------- table


def test_table_json(capsys):
    payload = run_json(capsys, ["table", "--d", "2", "--min", "1", "--max", "4"])
    table = payload["result"]["wt_T_table"]
    assert table["intervals"] == [
        {"lo": "1", "hi": "2", "value": "0"},
        {"lo": "2", "hi": "4", "value": "1"},
    ]
    assert table["breakpoints"] == [{"a": "2", "minus": "0", "plus": "1"}]
    assert "T_table" not in payload["result"]


def test_table_unbounded_max(capsys):
    payload = run_json(capsys, ["table", "--d", "1", "--min", "1", "--max", "inf"])
    table = payload["result"]["wt_T_table"]
    assert table["intervals"][-1]["hi"] == "inf"
    assert table["intervals"][-1]["value"] == "2"


def test_table_refine_adds_unweighted_table(capsys):
    payload = run_json(
        capsys, ["table", "--d", "2", "--min", "1", "--max", "4", "--refine-orbit-id"]
    )
    assert set(payload["result"]) == {"wt_T_table", "T_table"}
    refined = payload["result"]["T_table"]
    assert refined["intervals"][0]["value"] == "0"


def test_table_csv(capsys):
    _, out, _ = run_cli(
        capsys, ["table", "--d", "2", "--min", "1", "--max", "4", "--format", "csv"]
    )
    lines = out.strip().splitlines()
    assert lines == ["quantity,lo,hi,value", "wt_T,1,2,0", "wt_T,2,4,1"]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    lo=st.fractions(min_value=1, max_value=30, max_denominator=6),
    width=st.none() | st.fractions(min_value=Fraction(1, 6), max_value=20, max_denominator=6),
    refine=st.booleans(),
)
def test_table_csv_rows_are_the_json_intervals(d, lo, width, refine):
    """Row for row, the CSV holds each table's JSON intervals, wt_T first."""
    hi = None if width is None else lo + width
    argv = ["table", "--d", str(d), "--min", str(lo), "--max", "inf" if hi is None else str(hi)]
    argv += ["--refine-orbit-id"] * refine
    outputs = []
    for fmt in ("json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--format", fmt]) == 0
        outputs.append(out.getvalue())
    result = json.loads(outputs[0])["result"]
    assert list(result) == ["wt_T_table", "T_table"][: 1 + refine]
    rows = [
        f"{quantity},{row['lo']},{row['hi']},{row['value']}"
        for quantity in ("wt_T", "T")[: 1 + refine]
        for row in result[f"{quantity}_table"]["intervals"]
    ]
    assert outputs[1].splitlines() == ["quantity,lo,hi,value", *rows]


@pytest.mark.parametrize("refine", [[], ["--refine-orbit-id"]])
def test_table_degree_above_cap_exits_1_before_tabulating(capsys, monkeypatch, refine):
    for name in ("piecewise_table", "normalized_table"):
        monkeypatch.setattr(f"ellsuper.cli.{name}", count_must_not_start)
    argv = ["table", "--d", str(TABLE_MAX_DEGREE + 1), "--min", "1", "--max", "inf", *refine]
    error = run_error(capsys, argv)
    assert f"--d {TABLE_MAX_DEGREE + 1}" in error
    assert f"cap is {TABLE_MAX_DEGREE} (TABLE_MAX_DEGREE)" in error


# ---------------------------------------------------------------- jumps


def test_jumps_all_routes_agree(capsys):
    payload = run_json(capsys, ["jumps", "--a", "5/4", "--orbits", "2,8"])
    assert payload["result"]["value"] == "-1/4"
    assert payload["result"]["routes"] == {
        "closed": "-1/4",
        "recursive": "-1/4",
        "xi": "-1/4",
    }


def test_jumps_single_route_selection(capsys):
    payload = run_json(capsys, ["jumps", "--a", "5/4", "--orbits", "2,8", "--route", "xi"])
    assert payload["result"]["routes"] == {"xi": "-1/4"}
    assert payload["result"]["value"] == "-1/4"


def test_jumps_closed_route_needs_few_orbits(capsys):
    message = run_error(capsys, ["jumps", "--a", "2", "--orbits", "1,1,1", "--route", "closed"])
    assert "closed route" in message


def test_jumps_three_orbits_default_route(capsys):
    payload = run_json(capsys, ["jumps", "--a", "2", "--orbits", "1,1,1"])
    assert set(payload["result"]["routes"]) == {"recursive", "xi"}
    assert payload["result"]["value"] == payload["result"]["routes"]["recursive"]


def route_must_not_start(*args):
    raise AssertionError("the route must not start")


@pytest.mark.parametrize("route", ["xi", "all"])
def test_jumps_xi_route_above_orbit_cap_exits_1_before_work(capsys, monkeypatch, route):
    for name in ("jump_general", "jump_via_xi"):
        monkeypatch.setattr(f"ellsuper.cli.{name}", route_must_not_start)
    orbits = ",".join(str(i) for i in range(1, JUMPS_XI_MAX_ORBITS + 2))
    error = run_error(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", route])
    assert f"--orbits has {JUMPS_XI_MAX_ORBITS + 1} indices for the xi route" in error
    assert f"the cap is {JUMPS_XI_MAX_ORBITS} (JUMPS_XI_MAX_ORBITS)" in error


def test_jumps_xi_route_at_orbit_cap_runs(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_via_xi", lambda a, indices: Fraction(len(indices)))
    orbits = ",".join(str(i) for i in range(1, JUMPS_XI_MAX_ORBITS + 1))
    payload = run_json(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "xi"])
    assert payload["result"]["value"] == str(JUMPS_XI_MAX_ORBITS)


JUMP_ROUTES = ("jump_cylinder", "jump_pants", "jump_general", "jump_via_xi")


@pytest.mark.parametrize("route", ["closed", "recursive", "xi", "all"])
@pytest.mark.parametrize("shape", ["one", "two"])
def test_jumps_index_sum_above_cap_exits_1_before_work(capsys, monkeypatch, route, shape):
    for name in JUMP_ROUTES:
        monkeypatch.setattr(f"ellsuper.cli.{name}", route_must_not_start)
    # w(I) = Σ i_s + k is one above the cap
    indices = [JUMPS_MAX_INDEX_SUM] if shape == "one" else [1, JUMPS_MAX_INDEX_SUM - 2]
    error = run_error(capsys, ["jumps", "--a", "1/2", "--orbits", ",".join(map(str, indices)), "--route", route])
    assert f"sum(i_s) + k = {JUMPS_MAX_INDEX_SUM + 1}" in error
    assert f"the cap is {JUMPS_MAX_INDEX_SUM} (JUMPS_MAX_INDEX_SUM)" in error


@pytest.mark.parametrize("route", ["closed", "recursive"])
def test_jumps_index_sum_at_cap_runs(capsys, route):
    index = JUMPS_MAX_INDEX_SUM - 1  # w(I) is the cap; a = 1/2 jumps at i exactly when 3 | i + 1
    payload = run_json(capsys, ["jumps", "--a", "1/2", "--orbits", str(index), "--route", route])
    assert payload["result"]["value"] == ("1/2" if (index + 1) % 3 == 0 else "1")


@pytest.mark.parametrize("route", ["xi", "all"])
def test_jumps_xi_route_above_index_sum_cap_exits_1_before_work(capsys, monkeypatch, route):
    for name in JUMP_ROUTES:
        monkeypatch.setattr(f"ellsuper.cli.{name}", route_must_not_start)
    error = run_error(capsys, ["jumps", "--a", "1/2", "--orbits", str(JUMPS_XI_MAX_INDEX_SUM), "--route", route])
    assert f"sum(i_s) + k = {JUMPS_XI_MAX_INDEX_SUM + 1} for the xi route" in error
    assert f"the cap is {JUMPS_XI_MAX_INDEX_SUM} (JUMPS_XI_MAX_INDEX_SUM)" in error


@pytest.mark.parametrize("indices", [[JUMPS_XI_MAX_INDEX_SUM - 1], [98, 100]])
def test_jumps_xi_route_at_index_sum_cap_runs(capsys, indices):
    assert sum(indices) + len(indices) == JUMPS_XI_MAX_INDEX_SUM
    payload = run_json(capsys, ["jumps", "--a", "1/2", "--orbits", ",".join(map(str, indices)), "--route", "all"])
    assert set(payload["result"]["routes"]) >= {"recursive", "xi"}


def split_work(indices):
    """The recursive route's cost measure: the splits Π (m_i + 1)(m_i + 2)/2 times w(I) = Σ i_s + k."""
    return math.prod((m + 1) * (m + 2) // 2 for m in Counter(indices).values()) * (sum(indices) + len(indices))


def test_jumps_recursive_route_above_split_work_cap_exits_1_before_work(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_general", route_must_not_start)
    for indices in (
        [1] * 362,  # one more than the most ones at the cap
        [1] * 63 + [2] * 63,  # 4,096 sub-multisets, 4,326,400 splits
        [1] * 4095,  # 4,096 sub-multisets
        [1] * 1029,  # 530,965 splits
        [i for i in (1, 2, 3, 4) for _ in range(7)],
    ):
        assert split_work(indices) > JUMPS_MAX_SPLIT_WORK
        orbits = ",".join(map(str, indices))
        error = run_error(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "recursive"])
        assert f"--orbits needs {split_work(indices)} units of split work for the recursive route" in error
        assert f"the cap is {JUMPS_MAX_SPLIT_WORK} (JUMPS_MAX_SPLIT_WORK)" in error


def test_jumps_recursive_route_at_split_work_cap_runs(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_general", lambda a, indices: Fraction(len(indices)))
    assert split_work(list(range(1, 13))) == JUMPS_MAX_SPLIT_WORK  # 3**12 splits of weight 90
    for indices in (list(range(1, 13)), [1] * 361):
        assert split_work(indices) <= JUMPS_MAX_SPLIT_WORK
        orbits = ",".join(map(str, indices))
        payload = run_json(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "recursive"])
        assert payload["result"]["value"] == str(len(indices))


# ---------------------------------------------------------------- bound


def test_bound_two_component_parameters(capsys):
    payload = run_json(capsys, ["bound", "--d", "5", "--a", "2,13+"])
    assert payload["result"] == {"bound": "5/26"}


@pytest.mark.parametrize("a", ["0", "-3", "0+"])
def test_bound_rejects_nonpositive_parameter(capsys, a):
    assert "positive" in run_error(capsys, ["bound", "--d", "2", "--a", a])


def test_bound_vanishing_count_reports_no_obstruction(capsys):
    payload = run_json(capsys, ["bound", "--d", "2", "--a", "3/2"])
    assert payload["result"]["bound"] is None
    assert "no obstruction" in payload["result"]["note"]


@pytest.mark.parametrize("d", ["3", "5", "9"])
def test_bound_too_long_to_print_exits_1(capsys, d):
    # 1/N with N of 4,300 digits prints, but the bound d·N/m has one digit more
    n = "9" * 4300
    error = run_error(capsys, ["bound", "--d", d, "--a", f"1/{n},1"])
    assert f"the bound area/action at d = {d}" in error
    assert "more than 4300 digits" in error
    assert run_json(capsys, ["bound", "--d", d, "--a", f"1/{n[1:]},1"])["result"]["bound"]


# ---------------------------------------------------------------- check


def test_check_genfun_suite_passes(capsys):
    payload = run_json(capsys, ["check", "--suite", "genfun", "--bound", "4"])
    assert payload["result"] == {"ok": True, "checked": 4, "failures": []}


@pytest.mark.parametrize("suite, bound", [("genfun", "0"), ("gamma", "-1")])
def test_check_rejects_bound_below_one(capsys, suite, bound):
    assert "--bound" in run_error(capsys, ["check", "--suite", suite, "--bound", bound])


def test_check_jumps_lists_an_energy_violation(capsys, monkeypatch):
    # at a = 5, A(o_1) + A(o_2) = 3 < A(o_4) = 4; the value is the true jump, so only the energy check fails
    a = Fraction(5)
    hit = ScanHit(a, (1, 2), jump_pants(a, 1, 2))
    monkeypatch.setattr("ellsuper.cli.support_scan", lambda bound: (hit,))
    code, out, err = run_cli(capsys, ["check", "--suite", "jumps", "--bound", "4"])
    assert code == 2
    assert err == ""
    result = json.loads(out)["result"]
    assert result["ok"] is False and result["checked"] == 1
    assert result["failures"] == [f"energy inequality violated at {hit}: 3 < 4"]


@pytest.mark.parametrize(
    "suite, cap, expensive",
    [
        ("gamma", GAMMA_SUITE_MAX_BOUND, "gamma"),
        ("aug", AUG_MAX_BOUND, "verify_aug"),
        ("genfun", GENFUN_MAX_BOUND, "genfun_check"),
    ],
)
def test_check_bound_above_cap_exits_1_before_checking(capsys, monkeypatch, suite, cap, expensive):
    def boom(*args):
        raise AssertionError("the check must not start")

    monkeypatch.setattr(f"ellsuper.cli.{expensive}", boom)
    error = run_error(capsys, ["check", "--suite", suite, "--bound", str(cap + 1)])
    assert f"--bound {cap + 1}" in error
    assert f"cap is {cap}" in error


def _jumps_argv(a, indices, route):
    return ["jumps", "--a", a, "--orbits", ",".join(map(str, indices)), "--route", route]


_HUGE_AXIS = 10**3990  # 3,991 digits

# one input per row, one step above its cap: (cap, argument list, the work it
# guards, a fragment of the message's <what>); a name of the work without a
# dot lives in ``cli``, and each is patched to fail
CAP_ROWS = [
    *(
        ("PARAMS_MAX_AXES", [command, "--a", _axes(PARAMS_MAX_AXES + 1), *rest], ["gamma_range", "local_descendant"],
         f"--a has {PARAMS_MAX_AXES + 1} axes")
        for command, *rest in (["gamma", "--k", "3"], ["spectrum", "--count", "3"], ["descendant", "--orbits", "2"])
    ),
    (
        "GAMMA_MAX_WIDTH",
        ["gamma", "--a", "1,7/3", "--k", f"{10**9}..{10**9 + GAMMA_MAX_WIDTH}"],
        ["gamma_range", "ellsuper.orbits.gamma_closed_form"],
        f"spans {GAMMA_MAX_WIDTH + 1} indices",
    ),
    (
        "GAMMA_MAX_WIDTH",
        ["spectrum", "--a", "1,7/3", "--count", str(GAMMA_MAX_WIDTH + 1)],
        ["gamma_range"],
        f"--count {GAMMA_MAX_WIDTH + 1} asks for too many orbits",
    ),
    # 1 axis at full width: hi of 250 digits prints exactly the cap, of 251 one step above it
    (
        "GAMMA_MAX_OUTPUT_DIGITS",
        ["gamma", "--a", "1", "--k", f"{10**250}..{10**250 + GAMMA_MAX_WIDTH - 1}"],
        ["gamma_range", "ellsuper.orbits.gamma_closed_form"],
        f"would print about {GAMMA_MAX_WIDTH * 251} digits",
    ),
    # a full-width range from 10^4000 would print about 0.8 billion digits
    (
        "GAMMA_MAX_OUTPUT_DIGITS",
        ["gamma", "--a", "1,7/3", "--k", f"{10**4000}..{10**4000 + GAMMA_MAX_WIDTH - 1}"],
        ["gamma_range", "ellsuper.orbits.gamma_closed_form"],
        f"would print about {GAMMA_MAX_WIDTH * 2 * 4001} digits",
    ),
    # the full count on two axes of about 4,000 digits would print about 400 MB
    (
        "GAMMA_MAX_OUTPUT_DIGITS",
        ["spectrum", "--a", f"{_HUGE_AXIS},{_HUGE_AXIS + 1}", "--count", str(GAMMA_MAX_WIDTH)],
        ["gamma_range"],
        f"would print about {GAMMA_MAX_WIDTH * 2 * (6 + 3991 + 1)} digits",
    ),
    *(
        ("DESCENDANT_MAX_INDEX_SUM", ["descendant", "--a", a, "--orbits", ",".join(map(str, indices))],
         ["local_descendant"], f"--orbits indices sum to {sum(indices)}")
        for a, indices in (("1,7/3", [DESCENDANT_MAX_INDEX_SUM + 1]), ("1,1", [800, 800, 800]))
    ),
    *(
        ("COUNT_MAX_DEGREE", ["superpotential", "--d", str(COUNT_MAX_DEGREE + 1), "--a", a],
         ["wt_T", "T", "wt_T_infinity", "T_infinity"], f"--d {COUNT_MAX_DEGREE + 1} is too large")
        for a in ("inf", "13/2+")
    ),
    (
        "COUNT_MAX_DEGREE",
        ["bound", "--d", str(COUNT_MAX_DEGREE + 1), "--a", "1,7/3"],
        ["embedding_bound"],
        f"--d {COUNT_MAX_DEGREE + 1} is too large",
    ),
    *(
        ("TABLE_MAX_DEGREE", ["table", "--d", str(TABLE_MAX_DEGREE + 1), "--min", "1", "--max", "inf", *refine],
         ["piecewise_table", "normalized_table"], f"--d {TABLE_MAX_DEGREE + 1} is too large")
        for refine in ([], ["--refine-orbit-id"])
    ),
    # w(I) = Σ i_s + k one above the cap, on one index and on two, on every route
    *(
        ("JUMPS_MAX_INDEX_SUM", _jumps_argv("1/2", indices, route), JUMP_ROUTES,
         f"--orbits has sum(i_s) + k = {JUMPS_MAX_INDEX_SUM + 1}")
        for indices in ([JUMPS_MAX_INDEX_SUM], [1, JUMPS_MAX_INDEX_SUM - 2])
        for route in ("closed", "recursive", "xi", "all")
    ),
    *(
        ("JUMPS_XI_MAX_ORBITS", _jumps_argv("2", range(1, JUMPS_XI_MAX_ORBITS + 2), route), JUMP_ROUTES,
         f"--orbits has {JUMPS_XI_MAX_ORBITS + 1} indices for the xi route")
        for route in ("xi", "all")
    ),
    *(
        ("JUMPS_XI_MAX_INDEX_SUM", _jumps_argv("1/2", [JUMPS_XI_MAX_INDEX_SUM], route), JUMP_ROUTES,
         f"--orbits has sum(i_s) + k = {JUMPS_XI_MAX_INDEX_SUM + 1} for the xi route")
        for route in ("xi", "all")
    ),
    *(
        ("JUMPS_MAX_SPLIT_WORK", _jumps_argv("2", indices, "recursive"), JUMP_ROUTES,
         f"--orbits needs {split_work(indices)} units of split work for the recursive route")
        for indices in (
            [1] * 362,  # one more than the most ones at the cap
            [1] * 63 + [2] * 63,  # 4,096 sub-multisets, 4,326,400 splits
            [1] * 4095,  # 4,096 sub-multisets
            [1] * 1029,  # 530,965 splits
            [i for i in (1, 2, 3, 4) for _ in range(7)],
        )
    ),
    *(
        (cap, ["check", "--suite", suite, "--bound", str(vars(cli)[cap] + 1)], work,
         f"--bound {vars(cli)[cap] + 1} is too large for the {suite} suite")
        for cap, suite, work in (
            ("GAMMA_SUITE_MAX_BOUND", "gamma", ["gamma"]),
            ("LINF_MAX_BOUND", "linf", ["inverse_check", "xi_chain_check", "structure_window_check"]),
            ("AUG_MAX_BOUND", "aug", ["verify_aug", "psi_factorization"]),
            ("JUMPS_MAX_BOUND", "jumps", ["support_scan"]),
            ("GENFUN_MAX_BOUND", "genfun", ["genfun_check"]),
        )
    ),
]


@pytest.mark.parametrize("name", sorted({row[0] for row in CAP_ROWS}))
def test_every_cap_rejects_an_input_above_it_by_name(capsys, monkeypatch, name):
    """Every row of a cap exits 1 before its work, naming the cap's value and
    constant after its <what>; a new cap needs a row."""
    assert {row[0] for row in CAP_ROWS} == {constant for constant in vars(cli) if "_MAX_" in constant}
    for _, argv, guarded, what in (row for row in CAP_ROWS if row[0] == name):
        with monkeypatch.context() as patched:
            for work in guarded:
                patched.setattr(work if "." in work else f"ellsuper.cli.{work}", route_must_not_start)
            error = run_error(capsys, argv)
        assert what in error, argv
        assert error.endswith(f"; the cap is {vars(cli)[name]} ({name})"), argv


def test_check_failing_suite_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        "ellsuper.cli.genfun_check", lambda bound: Report(1, ["forced failure"])
    )
    code, out, err = run_cli(capsys, ["check", "--suite", "genfun", "--bound", "1"])
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    assert payload["result"] == {"ok": False, "checked": 1, "failures": ["forced failure"]}


# ---------------------------------------------------------------- exit codes / plumbing


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# one minimal valid argument list per subcommand
_MINIMAL_ARGV = {
    "gamma": ["--a", "1,2", "--k", "3"],
    "spectrum": ["--a", "1,2", "--count", "3"],
    "descendant": ["--a", "1,3", "--orbits", "2"],
    "superpotential": ["--d", "2", "--a", "3"],
    "table": ["--d", "2", "--min", "1", "--max", "4"],
    "jumps": ["--a", "3/2", "--orbits", "1,2"],
    "bound": ["--d", "2", "--a", "5/2"],
    "check": ["--suite", "genfun", "--bound", "1"],
}


@pytest.mark.parametrize("command", list(_subparsers(_build_parser())))
def test_every_subcommand_prints_its_name(capsys, command):
    """Every subcommand the parser defines runs and names itself; a new one needs a case here."""
    assert command in _MINIMAL_ARGV, f"no minimal argument list for {command!r}"
    payload = run_json(capsys, [command, *_MINIMAL_ARGV[command]])
    assert list(payload) == ["command", "input", "result"]
    assert payload["command"] == command


def test_suite_choices_are_the_suite_table():
    (suite,) = [a for a in _subparsers(_build_parser())["check"]._actions if a.dest == "suite"]
    assert suite.choices == list(_SUITES)
    for name, (_, default, cap_name) in _SUITES.items():
        assert 1 <= default <= vars(cli)[cap_name], name
    assert _SUITE_BOUNDS.keys() == _SUITES.keys()  # the random argument lists draw every suite


def test_internal_error_exits_2(capsys, monkeypatch):
    def boom(params, lo, hi):
        raise RuntimeError("boom")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    code, out, err = run_cli(capsys, ["gamma", "--a", "1,2", "--k", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "internal: RuntimeError: boom"


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--a", "0,2", "--k", "1"],
        ["gamma", "--a", "x", "--k", "1"],
        ["gamma", "--a", "", "--k", "1"],
        ["gamma", "--a", "1,2,3+", "--k", "1"],
        ["nonsense"],
        ["gamma", "--a", "1,2"],
        ["jumps", "--a", "-1", "--orbits", "2"],
    ],
)
def test_invalid_inputs_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


# ---------------------------------------------------------------- random argument lists

_RATIONALS = ["2", "3/2", "7/3", "13/2", "1", "5/4", "1/2", "2.5", "3"]
# largest --bound drawn per suite; a suite whose default bound is slow always gets one
_SUITE_BOUNDS = {"gamma": 8, "linf": 2, "aug": 3, "jumps": 8, "genfun": 8}
_SLOW_DEFAULT = {"gamma", "aug"}


@st.composite
def cli_argv(draw):
    """A random ``ellsuper`` argument list, each value from a small range per command.

    At most one value is malformed (pick number ``bad``, if it is reached)
    and at most one flag is missing, a required one or not; the simplest
    draw is a valid list.  Sizes stay small, so one list runs in milliseconds.
    """
    bad = draw(st.integers(0, 40)) - 1
    picks = iter(range(100))

    def pick(valid, malformed):
        return draw(st.sampled_from(malformed if next(picks) == bad else valid))

    def rational():
        return pick(_RATIONALS, ["0", "-1", "1/0", "x", ""])

    def count(high):
        return pick([str(n) for n in range(1, high + 1)], ["0", "-1", "x"])

    def a_text(axes):
        return ",".join(rational() for _ in range(pick([axes], [axes - 1, axes + 1])))

    def orbits(most, high):
        indices = [count(high) for _ in range(draw(st.integers(1, most)))]
        return pick([",".join(indices)], ["", "1,,x"])

    command = draw(st.sampled_from(["gamma", "spectrum", "descendant", "superpotential", "table", "jumps", "bound", "check"]))
    flags: dict[str, str | None] = {}
    if command == "gamma":
        flags["--a"] = a_text(2)
        flags["--k"] = pick([count(60), f"{count(40)}..{count(60)}", "1000000..1000003"], ["5..2", "1..x"])
    elif command == "spectrum":
        flags["--a"] = a_text(2)
        flags["--count"] = count(40)
    elif command == "descendant":
        flags["--a"] = a_text(2)
        flags["--orbits"] = orbits(4, 15)
    elif command == "superpotential":
        flags["--d"] = count(8)
        flags["--a"] = pick([rational(), "inf"], [a_text(2)])
    elif command == "table":
        flags["--d"] = count(5)
        flags["--min"] = rational()
        flags["--max"] = pick(["inf", rational()], ["-inf"])
        if draw(st.booleans()):
            flags["--refine-orbit-id"] = None
    elif command == "jumps":
        flags["--a"] = rational()
        flags["--orbits"] = orbits(3, 5)
        flags["--route"] = pick(["all", "closed", "recursive", "xi"], ["other"])
    elif command == "bound":
        flags["--d"] = count(6)
        flags["--a"] = a_text(2)
    else:
        suite = pick(sorted(_SUITE_BOUNDS), ["other"])
        flags["--suite"] = suite
        if suite in _SLOW_DEFAULT or draw(st.booleans()):
            flags["--bound"] = count(_SUITE_BOUNDS.get(suite, 3))
    if command in ("gamma", "spectrum", "descendant", "superpotential", "bound"):
        # a side goes as a suffix of --a or as --side; a conflicting one is malformed
        side = draw(st.sampled_from(["canonical", "minus", "plus"]))
        form = draw(st.sampled_from(["none", "suffix", "flag"]))
        if form == "suffix":
            flags["--a"] += {"canonical": "", "minus": "-", "plus": "+"}[side]
        if form == "flag" or pick([False], [True]):
            flags["--side"] = pick([side], ["up", "canonical" if side != "canonical" else "plus"])
    if command in ("gamma", "spectrum", "table") and draw(st.booleans()):
        flags["--format"] = pick(["json", "csv"], ["xml"])
    if draw(st.integers(0, 4)) == 4:
        del flags[draw(st.sampled_from(sorted(flags)))]
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(deadline=None, max_examples=250, derandomize=True)
@given(cli_argv())
def test_random_argument_lists_never_exit_2(argv):
    """Exit 2 means an internal breach; no argument list may cause one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())


def test_csv_unavailable_for_scalar_commands(capsys):
    code, _, err = run_cli(
        capsys, ["descendant", "--a", "1,3", "--orbits", "2", "--format", "csv"]
    )
    assert code == 1
    assert "--format" in json.loads(err)["error"]


def test_output_is_deterministic(capsys):
    argv = ["table", "--d", "5", "--min", "1", "--max", "20"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_rationals_never_serialized_as_floats(capsys):
    _, out, _ = run_cli(capsys, ["spectrum", "--a", "1,3/2", "--count", "8"])
    assert "1.5" not in out
    assert "3/2" in out


def _fresh_python(probe: str) -> str:
    """Stdout of ``probe`` run by a new interpreter that imports this ``ellsuper``."""
    src = str(Path(ellsuper.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_the_oracle_unloaded():
    """The brute-force oracle loads only for a check suite or a test."""
    loaded = _fresh_python(
        "import sys, ellsuper, ellsuper.cli; print(sorted(m for m in sys.modules if m.startswith('ellsuper')))"
    )
    assert "'ellsuper.cli'" in loaded
    assert "ellsuper.oracle" not in loaded


@pytest.mark.parametrize("modules", ["ellsuper, ellsuper.cli", "ellsuper.oracle"])
def test_cold_import_loads_no_dataclass_machinery(modules):
    """Start-up imports neither ``dataclasses`` nor the modules it pulls in.

    Only what the import adds counts, so a module that the interpreter's own
    start-up (a site hook, say) already loaded cannot fail the test.
    """
    added = _fresh_python(
        f"import json, sys; before = set(sys.modules); import {modules}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert {"dataclasses", "inspect", "ast", "dis"}.isdisjoint(json.loads(added))


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ellsuper.__path__)))
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition moved away is caught here."""
    module = importlib.import_module(f"ellsuper.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
