"""Tests for the command-line front end.

Every command is exercised in-process through ``main(argv)``: JSON schema
(``{"command", "input", "result"}``), CSV flattening, side-suffix parsing,
exit codes (0 success, 1 invalid input, 2 internal breach / failing suite),
and byte-for-byte determinism.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ellsuper
from ellsuper import orbits
from ellsuper.cli import (
    AUG_MAX_BOUND,
    DESCENDANT_MAX_INDEX_SUM,
    GAMMA_MAX_WIDTH,
    GAMMA_SUITE_MAX_BOUND,
    GENFUN_MAX_BOUND,
    JUMPS_MAX_BOUND,
    JUMPS_MAX_SUBMULTISETS,
    JUMPS_XI_MAX_ORBITS,
    LINF_MAX_BOUND,
    main,
)
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


def test_gamma_range_wider_than_cap_exits_1_before_walking(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    monkeypatch.setattr("ellsuper.orbits.gamma_closed_form", boom)
    lo = 10**9
    error = run_error(capsys, ["gamma", "--a", "1,7/3", "--k", f"{lo}..{lo + GAMMA_MAX_WIDTH}"])
    assert f"{GAMMA_MAX_WIDTH + 1} indices" in error
    assert f"cap is {GAMMA_MAX_WIDTH}" in error


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


def test_spectrum_count_above_cap_exits_1_before_walking(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    error = run_error(capsys, ["spectrum", "--a", "1,7/3", "--count", str(GAMMA_MAX_WIDTH + 1)])
    assert f"--count {GAMMA_MAX_WIDTH + 1}" in error
    assert f"cap is {GAMMA_MAX_WIDTH}" in error


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
    assert f"--orbits has {JUMPS_XI_MAX_ORBITS + 1} indices" in error
    assert f"cap for the xi route is {JUMPS_XI_MAX_ORBITS} (JUMPS_XI_MAX_ORBITS)" in error


def test_jumps_xi_route_at_orbit_cap_runs(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_via_xi", lambda a, indices: Fraction(len(indices)))
    orbits = ",".join(str(i) for i in range(1, JUMPS_XI_MAX_ORBITS + 1))
    payload = run_json(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "xi"])
    assert payload["result"]["value"] == str(JUMPS_XI_MAX_ORBITS)


def test_jumps_recursive_route_above_submultiset_cap_exits_1_before_work(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_general", route_must_not_start)
    # (16 + 1) * (240 + 1) = 4097 sub-multisets, one above the cap
    orbits = ",".join(["1"] * 16 + ["2"] * 240)
    error = run_error(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "recursive"])
    assert f"--orbits has {JUMPS_MAX_SUBMULTISETS + 1} sub-multisets" in error
    assert f"is {JUMPS_MAX_SUBMULTISETS} (JUMPS_MAX_SUBMULTISETS)" in error


def test_jumps_recursive_route_at_submultiset_cap_runs(capsys, monkeypatch):
    monkeypatch.setattr("ellsuper.cli.jump_general", lambda a, indices: Fraction(len(indices)))
    orbits = ",".join(str(i) for i in range(1, 13))  # 2**12 = 4096 sub-multisets
    payload = run_json(capsys, ["jumps", "--a", "2", "--orbits", orbits, "--route", "recursive"])
    assert payload["result"]["value"] == "12"


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


# ---------------------------------------------------------------- check


def test_check_genfun_suite_passes(capsys):
    payload = run_json(capsys, ["check", "--suite", "genfun", "--bound", "4"])
    assert payload["result"] == {"ok": True, "checked": 4, "failures": []}


@pytest.mark.parametrize("suite, bound", [("genfun", "0"), ("gamma", "-1")])
def test_check_rejects_bound_below_one(capsys, suite, bound):
    assert "--bound" in run_error(capsys, ["check", "--suite", suite, "--bound", bound])


def test_check_jumps_bound_above_cap_exits_1_before_scanning(capsys, monkeypatch):
    def boom(bound):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr("ellsuper.cli.support_scan", boom)
    error = run_error(capsys, ["check", "--suite", "jumps", "--bound", str(JUMPS_MAX_BOUND + 1)])
    assert f"--bound {JUMPS_MAX_BOUND + 1}" in error
    assert f"cap is {JUMPS_MAX_BOUND}" in error


def test_check_linf_bound_above_cap_exits_1_before_checking(capsys, monkeypatch):
    def boom(params, bound):
        raise AssertionError("the check must not start")

    monkeypatch.setattr("ellsuper.cli.inverse_check", boom)
    error = run_error(capsys, ["check", "--suite", "linf", "--bound", str(LINF_MAX_BOUND + 1)])
    assert f"--bound {LINF_MAX_BOUND + 1}" in error
    assert f"cap is {LINF_MAX_BOUND}" in error


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


def test_check_failing_suite_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        "ellsuper.cli.genfun_check", lambda bound: Report(False, 1, ["forced failure"])
    )
    code, out, err = run_cli(capsys, ["check", "--suite", "genfun", "--bound", "1"])
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    assert payload["result"] == {"ok": False, "checked": 1, "failures": ["forced failure"]}


# ---------------------------------------------------------------- exit codes / plumbing


def test_internal_error_exits_2(capsys, monkeypatch):
    def boom(params, lo, hi):
        raise RuntimeError("boom")

    monkeypatch.setattr("ellsuper.cli.gamma_range", boom)
    code, out, err = run_cli(capsys, ["gamma", "--a", "1,2", "--k", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "internal: boom"


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


def test_cli_import_leaves_the_oracle_unloaded():
    """The brute-force oracle loads only for a check suite or a test."""
    src = str(Path(ellsuper.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, ellsuper, ellsuper.cli; print(sorted(m for m in sys.modules if m.startswith('ellsuper')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = result.stdout.strip()
    assert "'ellsuper.cli'" in loaded
    assert "ellsuper.oracle" not in loaded


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ellsuper.__path__)))
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition moved away is caught here."""
    module = importlib.import_module(f"ellsuper.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
