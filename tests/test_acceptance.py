"""Acceptance suite: the runnable exit criteria for this package.

Each test covers one criterion, prints exactly one ``PASS``/``FAIL`` line
(visible with ``pytest -s``), and measures only the computation under test
with ``time.perf_counter``.  All comparisons are exact — rational arithmetic
throughout, no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from ellsuper.jumps import jump_general, jump_pants, jump_via_xi, support_scan
from ellsuper.linf import Word, compose
from ellsuper.oracle import action_dual, gamma_bruteforce, perturbed_value
from ellsuper.orbits import (
    Side,
    SpectrumParams,
    action,
    gamma,
    jump_set,
    normalized,
)
from ellsuper.rounding import psi_factorization, verify_aug
from ellsuper.sft import inverse_check, o_key, xi, xi_chain_check
from ellsuper.superpotential import (
    CP2Target,
    T,
    T_infinity,
    genfun_check,
    piecewise_table,
    wt_T,
    wt_T_infinity,
)

F = Fraction

# One line per criterion; conftest echoes these in the terminal summary so the
# report survives pytest's output capture.
REPORT_LINES: list[str] = []


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float | None = None) -> None:
    """Print the single pass/fail line for one criterion."""
    status = "PASS" if ok else "FAIL"
    budget_note = f" [budget {budget:g} s]" if budget is not None else ""
    line = f"{status} criterion {number:02d} — {label}: {elapsed:.4f} s{budget_note}"
    REPORT_LINES.append(line)
    print(line)


# ---------------------------------------------------------------- 1


def test_01_lattice_path_first_nine_points():
    params = SpectrumParams((F(1), F(3, 2)), Side.CANONICAL)
    expected = ((0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3))
    start = time.perf_counter()
    points = tuple(gamma(params, k) for k in range(9))
    elapsed = time.perf_counter() - start
    ok = points == expected and elapsed < 0.001
    _report(1, "first nine lattice-path points on E(1, 3/2)", ok, elapsed, budget=0.001)
    assert points == expected
    assert elapsed < 0.001


# ---------------------------------------------------------------- 2


def test_02_counts_at_infinite_parameter():
    expected = (F(1), F(1), F(4), F(26), F(217))
    start = time.perf_counter()
    values = tuple(T_infinity(d) for d in range(1, 6))
    elapsed = time.perf_counter() - start
    ok = values == expected and elapsed < 1.0
    _report(2, "unweighted counts at infinite parameter, degrees 1..5", ok, elapsed, budget=1.0)
    assert values == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------- 3


def test_03_degree_five_interval_table():
    target = CP2Target()
    expected_intervals = (
        (F(1), F(5)),
        (F(5), F(13, 2)),
        (F(13, 2), F(8)),
        (F(8), F(11)),
        (F(11), F(14)),
        (F(14), None),
    )
    expected_values = (F(0), F(2), F(13), F(113), F(217), F(3038))
    start = time.perf_counter()
    table = piecewise_table(target, 5, F(1), None)
    elapsed = time.perf_counter() - start
    ok = (
        tuple(table.intervals()) == expected_intervals
        and tuple(table.values) == expected_values
        and elapsed < 10.0
    )
    _report(3, "degree-5 weighted count over its six intervals", ok, elapsed, budget=10.0)
    assert tuple(table.intervals()) == expected_intervals
    assert tuple(table.values) == expected_values
    assert elapsed < 10.0


# ---------------------------------------------------------------- 4


def test_04_degree_one_base_case():
    target = CP2Target()
    low = [F(5, 4), F(3, 2), F(7, 4), F(15, 8)]
    high = [F(3), F(7), F(50)]
    start = time.perf_counter()
    low_values = [wt_T(target, 1, normalized(a)) for a in low]
    at_two = (wt_T(target, 1, normalized(2, Side.MINUS)), wt_T(target, 1, normalized(2, Side.PLUS)))
    high_values = [wt_T(target, 1, normalized(a)) for a in high]
    table = piecewise_table(target, 1, F(1), None)
    elapsed = time.perf_counter() - start
    ok = (
        low_values == [F(1)] * len(low)
        and at_two == (F(1), F(2))
        and high_values == [F(2)] * len(high)
        and tuple(table.breakpoints) == (F(2),)
        and tuple(table.values) == (F(1), F(2))
    )
    _report(4, "degree-1 weighted count is 1 on (1,2) and 2 on (2,inf)", ok, elapsed)
    assert low_values == [F(1)] * len(low)
    assert at_two == (F(1), F(2))
    assert high_values == [F(2)] * len(high)
    assert tuple(table.breakpoints) == (F(2),)
    assert tuple(table.values) == (F(1), F(2))


# ---------------------------------------------------------------- 5


def test_05_jump_value_on_all_three_routes():
    a = F(5, 4)
    expected = F(-1, 4)
    start = time.perf_counter()
    routes = (jump_pants(a, 2, 8), jump_general(a, (2, 8)), jump_via_xi(a, (2, 8)))
    elapsed = time.perf_counter() - start
    ok = routes == (expected, expected, expected)
    _report(5, "jump at 5/4 with inputs (2, 8) equals -1/4 on all three routes", ok, elapsed)
    assert routes == (expected, expected, expected)


# ---------------------------------------------------------------- 6


def test_06_fibonacci_ratio_counts_are_one():
    target = CP2Target()
    base_cases = [(1, 2, 1), (2, 5, 1), (5, 13, 2)]
    start = time.perf_counter()
    base_values = [T(target, d, normalized(F(p, q), Side.PLUS)) for d, p, q in base_cases]
    base_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    stretch_value = T(target, 13, normalized(F(34, 5), Side.PLUS))
    stretch_elapsed = time.perf_counter() - start
    ok = (
        base_values == [F(1)] * 3
        and stretch_value == F(1)
        and base_elapsed < 5.0
        and stretch_elapsed < 600.0
    )
    _report(
        6,
        "unweighted count is 1 at Fibonacci-ratio parameters (d=1,2,5; stretch d=13 "
        f"{stretch_elapsed:.4f} s)",
        ok,
        base_elapsed,
        budget=5.0,
    )
    assert base_values == [F(1)] * 3
    assert base_elapsed < 5.0
    assert stretch_value == F(1)
    assert stretch_elapsed < 600.0


# ---------------------------------------------------------------- 7


def test_07_generating_function_identity():
    start = time.perf_counter()
    report = genfun_check(6)
    elapsed = time.perf_counter() - start
    ok = report.ok and report.checked == 6 and elapsed < 30.0
    _report(7, "power-series identity for the counts through degree 6", ok, elapsed, budget=30.0)
    assert report.ok, report.failures
    assert report.checked == 6
    assert elapsed < 30.0


# ---------------------------------------------------------------- 8


def test_08_greedy_path_matches_bruteforce():
    rng = random.Random(20250817)
    samples = []
    for _ in range(200):
        n = rng.randint(1, 4)
        a = tuple(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n))
        side = rng.choice((Side.MINUS, Side.CANONICAL, Side.PLUS)) if n == 2 else Side.CANONICAL
        samples.append((SpectrumParams(a, side), rng.randint(0, 25)))
    start = time.perf_counter()
    mismatches = [
        (params.describe(), k)
        for params, k in samples
        if gamma(params, k) != gamma_bruteforce(params, k)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(8, "greedy path equals brute-force argmin on 200 random cases", ok, elapsed)
    assert not mismatches, mismatches


# ---------------------------------------------------------------- 9


def test_09_inverse_and_chain_identities():
    params_list = [
        normalized(F(3, 2)),
        normalized(2, Side.MINUS),
        normalized(2, Side.PLUS),
        normalized(3),
        normalized(F(13, 2), Side.MINUS),
        normalized(F(13, 2), Side.PLUS),
    ]
    triples = [
        (normalized(F(3, 2)), normalized(2, Side.PLUS), normalized(3)),
        (normalized(F(5, 4), Side.MINUS), normalized(F(5, 4), Side.PLUS), normalized(2)),
        (normalized(2, Side.MINUS), normalized(4), normalized(F(13, 2), Side.PLUS)),
    ]
    start = time.perf_counter()
    inverse_reports = [inverse_check(p, 4) for p in params_list]
    chain_reports = [xi_chain_check(low, mid, high, 3) for low, mid, high in triples]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in inverse_reports + chain_reports)
    _report(9, "two-sided inverse to length 4 and transfer chaining to length 3", ok, elapsed)
    for report in inverse_reports + chain_reports:
        assert report.ok, report.failures
        assert report.checked > 0


# ---------------------------------------------------------------- 10


def _chain_through_breakpoints(d: int, a_top: Fraction | None = None) -> Fraction:
    """Compose the infinitesimal transfer maps across every candidate
    breakpoint (ascending) and read off the degree-d weighted count."""
    candidates = sorted(
        {
            b
            for s in range(1, 3 * d)
            for b in jump_set(s)
            if b > 1 and (a_top is None or b <= a_top)
        }
    )
    total = None
    for b in candidates:
        step = xi(normalized(b, Side.MINUS), normalized(b, Side.PLUS))
        total = step if total is None else compose(step, total)
    word = Word((o_key(2),) * d)
    coefficient = total.level(word)[(o_key(3 * d - 1),)]
    return coefficient / math.factorial(d)


def test_10_breakpoint_chain_rebuilds_counts():
    target = CP2Target()
    start = time.perf_counter()
    full_chain = _chain_through_breakpoints(3)
    capped_chain = _chain_through_breakpoints(5, F(13, 2))
    elapsed = time.perf_counter() - start
    expected_full = wt_T_infinity(3)
    expected_capped = wt_T(target, 5, normalized(F(13, 2), Side.PLUS))
    ok = full_chain == expected_full == F(32) and capped_chain == expected_capped == F(13)
    _report(10, "composed breakpoint transfers rebuild the counts 32 and 13", ok, elapsed)
    assert full_chain == expected_full == F(32)
    assert capped_chain == expected_capped == F(13)


# ---------------------------------------------------------------- 11


def test_11_homotopy_transfer_verification():
    params_list = [
        normalized(F(3, 2)),
        normalized(2, Side.PLUS),
        normalized(3),
        normalized(F(13, 2), Side.MINUS),
        normalized(F(13, 2), Side.PLUS),
    ]
    start = time.perf_counter()
    aug_report = verify_aug(6, 4)
    psi_reports = [psi_factorization(p, 3) for p in params_list]
    elapsed = time.perf_counter() - start
    ok = aug_report.ok and all(r.ok for r in psi_reports) and elapsed < 30.0
    _report(
        11,
        "intertwining on the index-6/length-4 window and factorization at five parameters",
        ok,
        elapsed,
        budget=30.0,
    )
    assert aug_report.ok, aug_report.failures
    for report in psi_reports:
        assert report.ok, report.failures
    assert elapsed < 30.0


# ---------------------------------------------------------------- 12


def _check_path_shape(params: SpectrumParams, k_max: int) -> None:
    """Unit steps, running total, and the projection characterization."""
    for k in range(1, k_max + 1):
        prev = gamma(params, k - 1)
        cur = gamma(params, k)
        diffs = sorted(c - q for c, q in zip(cur, prev))
        assert sum(cur) == k
        assert diffs == [0] * (params.n - 1) + [1]
        budget = action_dual(params, k)
        for i in range(1, params.n + 1):
            count = 0
            m = 1
            while perturbed_value(params, i, m) <= budget:
                count += 1
                m += 1
            assert cur[i - 1] == count


def _check_maximality(params: SpectrumParams, k_max: int) -> None:
    """Every lattice vector fitting under the k-th action is dominated."""
    for k in range(1, k_max + 1):
        budget = action_dual(params, k)
        point = gamma(params, k)
        for v in itertools.product(range(k + 1), repeat=params.n):
            if sum(v) == 0:
                continue
            worst = max(
                perturbed_value(params, i, m) for i, m in enumerate(v, start=1) if m > 0
            )
            if worst <= budget:
                assert all(vi <= pi for vi, pi in zip(v, point)), (params.describe(), k, v)


def test_12_path_property_suites():
    shape_profiles = [
        SpectrumParams((F(1), F(3, 2)), Side.CANONICAL),
        normalized(2, Side.PLUS),
        normalized(2, Side.MINUS),
        SpectrumParams((F(2), F(13)), Side.PLUS),
        SpectrumParams((F(1), F(1), F(1)), Side.CANONICAL),
        SpectrumParams((F(1), F(7, 3), F(5)), Side.CANONICAL),
    ]
    maximality_profiles = [
        normalized(F(3, 2)),
        normalized(F(13, 2)),
        SpectrumParams((F(1), F(2), F(7, 3)), Side.CANONICAL),
    ]
    start = time.perf_counter()
    failure: AssertionError | None = None
    try:
        for params in shape_profiles:
            _check_path_shape(params, 25)
        for params in maximality_profiles:
            _check_maximality(params, 12)
        hits = support_scan(11)
        assert len(hits) > 100
        for hit in hits:
            p = normalized(hit.a)
            out_index = sum(hit.indices) + len(hit.indices) - 1
            assert sum(action(p, i) for i in hit.indices) >= action(p, out_index), hit
        rng = random.Random(31337)
        for _ in range(50):
            a = F(rng.randint(1, 24), rng.randint(1, 12))
            c = F(rng.randint(1, 16), rng.randint(1, 8))
            k = rng.randint(1, 25)
            base = SpectrumParams((F(1), a), Side.CANONICAL)
            scaled = SpectrumParams((c, c * a), Side.CANONICAL)
            assert gamma(base, k) == gamma(scaled, k)
            assert action(scaled, k) == c * action(base, k)
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    _report(12, "path shape, domination, jump energy, and scaling properties", failure is None, elapsed)
    if failure is not None:
        raise failure


# ---------------------------------------------------------------- 13


def test_13_counts_at_infinity_are_positive_integers():
    start = time.perf_counter()
    values = [T_infinity(d) for d in range(1, 9)]
    elapsed = time.perf_counter() - start
    ok = all(v > 0 and v.denominator == 1 for v in values) and elapsed < 120.0
    _report(13, "unweighted counts at infinity are positive integers for d <= 8", ok, elapsed, budget=120.0)
    for d, v in zip(range(1, 9), values):
        assert v > 0, (d, v)
        assert v.denominator == 1, (d, v)
    assert elapsed < 120.0
