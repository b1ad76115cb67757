"""Tests for the superpotential recursion, interval tables and related checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellsuper import cli, exact, orbits, superpotential
from ellsuper.exact import CACHE_CAP
from ellsuper.linf import Word
from ellsuper.oracle import exp_series_pass_fractions
from ellsuper.orbits import (
    Side,
    SpectrumParams,
    candidate_discontinuities,
    gamma,
    gamma_points,
    jump_set,
    jump_union,
    normalized,
)
from ellsuper.sft import o_key, xi
from ellsuper.superpotential import (
    CP2Target,
    T,
    T_infinity,
    embedding_bound,
    genfun_check,
    normalized_table,
    piecewise_table,
    wt_T,
    wt_T_infinity,
)

CP2 = CP2Target()


class TestCP2Target:
    def test_fields(self):
        assert CP2.chern(4) == 12
        assert CP2.area(4) == 4

    # every entry that takes a CP^2 degree, as a function of the degree alone
    DEGREE_ENTRIES = {
        "wt_T": lambda d: wt_T(CP2, d, normalized(7)),
        "T": lambda d: T(CP2, d, normalized(7)),
        "embedding_bound": lambda d: embedding_bound(CP2, d, normalized(7)),
        "piecewise_table": lambda d: piecewise_table(CP2, d, 1, None),
        "normalized_table": lambda d: normalized_table(CP2, d, 1, None),
        "wt_T_infinity": wt_T_infinity,
        "T_infinity": T_infinity,
        "genfun_check": genfun_check,
        "CP2Target.chern": CP2.chern,
        "CP2Target.area": CP2.area,
    }

    @pytest.mark.parametrize("bad", [True, False, 2.0, 0, "2"], ids=repr)
    @pytest.mark.parametrize("entry", sorted(DEGREE_ENTRIES))
    def test_every_degree_entry_rejects_a_non_degree(self, entry, bad):
        """A degree is an int >= 1 and not a bool; a bool once counted as T̃_1
        and a float reached ``range``."""
        with pytest.raises(ValueError, match="CP2 degrees are integers >= 1"):
            self.DEGREE_ENTRIES[entry](bad)


class TestWtT:
    def test_base_case(self):
        assert wt_T(CP2, 1, normalized("3/2")) == 1
        assert wt_T(CP2, 1, normalized("7/4")) == 1
        assert wt_T(CP2, 1, normalized(2, Side.PLUS)) == 2
        assert wt_T(CP2, 1, normalized(2, Side.MINUS)) == 1
        assert wt_T(CP2, 1, normalized(7)) == 2

    def test_degree_two_vanishes_below_two(self):
        assert wt_T(CP2, 2, normalized("3/2")) == 0

    def test_degree_five_sample_values(self):
        assert wt_T(CP2, 5, normalized(7)) == 13       # a in (13/2, 8)
        assert wt_T(CP2, 5, normalized(6)) == 2        # a in (5, 13/2)
        assert wt_T(CP2, 5, normalized("13/2", Side.PLUS)) == 13
        assert wt_T(CP2, 5, normalized("13/2", Side.MINUS)) == 2

    def test_normalized_superpotential(self):
        assert T(CP2, 5, normalized("13/2", Side.PLUS)) == 1
        assert T(CP2, 5, normalized(20)) == 217
        assert T(CP2, 3, normalized(10)) == 4

    def test_fibonacci_points(self):
        for d, p, q in ((1, 2, 1), (2, 5, 1), (5, 13, 2), (13, 34, 5)):
            assert T(CP2, d, normalized(Fraction(p, q), Side.PLUS)) == 1

    def test_memo_distinguishes_sides(self):
        plus = wt_T(CP2, 5, normalized("13/2", Side.PLUS))
        minus = wt_T(CP2, 5, normalized("13/2", Side.MINUS))
        assert (plus, minus) == (13, 2)


class TestSignatureCache:
    def test_cache_is_bounded_and_counts_survive(self, monkeypatch):
        monkeypatch.setattr(superpotential, "_WT_CACHE", exact.Memo(superpotential._signature_pass))
        side = math.isqrt(CACHE_CAP + 10) + 1
        points = [(x, y) for x in range(side) for y in range(side)][: CACHE_CAP + 10]
        for x, y in points:  # one-degree signatures: T̃_1 = x! y!
            assert superpotential._WT_CACHE[(x, y),] == math.factorial(x) * math.factorial(y)
        assert len(superpotential._WT_CACHE) <= CACHE_CAP
        assert (points[0],) not in superpotential._WT_CACHE
        assert wt_T(CP2, 5, normalized("13/2", Side.PLUS)) == 13

    def test_prefixes_of_the_last_pass_cost_one_step(self, monkeypatch):
        fresh_count_state(monkeypatch)
        steps = count_kernel_steps(monkeypatch)
        assert wt_T_infinity(4) == 286
        assert steps == [4]
        for d, expected in ((1, 2), (2, 5), (3, 32)):
            calls = len(steps)
            assert wt_T_infinity(d) == expected
            assert sum(steps[calls:]) <= 1, d
        signatures = {tuple((3 * e - 1, 0) for e in range(1, d + 1)) for d in range(1, 5)}
        assert set(superpotential._WT_CACHE) == signatures  # one entry per signature
        calls = len(steps)
        assert [wt_T_infinity(d) for d in range(1, 5)] == [2, 5, 32, 286]
        assert len(steps) == calls  # all four are memoized

    def test_one_table_fits_a_small_cap(self, monkeypatch):
        """A d = 11 table has 63 signatures but 266 prefixes: keyed per
        signature, a cap of 100 holds both sweeps, and the normalized sweep
        reads every count from the memo."""
        weighted, unweighted = piecewise_table(CP2, 11, 1, None), normalized_table(CP2, 11, 1, None)
        fresh_count_state(monkeypatch)
        monkeypatch.setattr(exact, "CACHE_CAP", 100)
        steps = count_kernel_steps(monkeypatch)
        assert piecewise_table(CP2, 11, 1, None) == weighted
        assert len(superpotential._WT_CACHE) <= 100
        calls = len(steps)
        assert normalized_table(CP2, 11, 1, None) == unweighted
        assert len(steps) == calls
        assert len(superpotential._WT_CACHE) <= 100


def fresh_count_state(monkeypatch):
    """An empty count memo and no last pass, restored after the test."""
    monkeypatch.setattr(superpotential, "_WT_CACHE", exact.Memo(superpotential._signature_pass))
    monkeypatch.setattr(superpotential, "_last_signature", ())
    monkeypatch.setattr(superpotential, "_LAST_STATE", ({}, {}))


def count_kernel_steps(monkeypatch):
    """Wrap the count path's kernel; the returned list gets each pass's step count."""
    counts = []

    def counting_pass(steps, *args):
        steps = list(steps)
        counts.append(len(steps))
        return exact.exp_series_pass(steps, *args)

    monkeypatch.setattr(superpotential, "exp_series_pass", counting_pass)
    return counts


def degree_count_steps(signature):
    """The CP^2 count's kernel steps for a signature, as the Fraction reference takes them."""
    return [
        (n, n, 1, tuple((k, n - k, k) for k in range(1, n)), point, Fraction(1, math.factorial(n) ** 3))
        for n, point in enumerate(signature, start=1)
    ]


lattice_points = st.tuples(st.integers(0, 6), st.integers(0, 6))


@st.composite
def signature_sequences(draw):
    """2-5 signatures of length <= 8, each repeating, cutting, or diverging from the one before."""
    sequence = [tuple(draw(st.lists(lattice_points, min_size=1, max_size=8)))]
    for _ in range(draw(st.integers(1, 4))):
        last = sequence[-1]
        kind = draw(st.sampled_from(("same", "prefix", "first", "shared")))
        if kind == "same":
            sequence.append(last)
        elif kind == "prefix" and len(last) > 1:
            sequence.append(last[: draw(st.integers(1, len(last) - 1))])
        else:
            keep = 0 if kind == "first" else draw(st.integers(0, len(last)))
            tail = draw(st.lists(lattice_points, min_size=max(1 - keep, 0), max_size=8 - keep))
            if tail and keep < len(last) and tail[0] == last[keep]:
                tail[0] = (tail[0][0] + 1, tail[0][1])  # diverge exactly after the kept prefix
            sequence.append(last[:keep] + tuple(tail))
    return sequence


class TestResume:
    """Each count that resumes the last pass equals a fresh pass of the ``Fraction`` kernel."""

    def check(self, sequence):
        with pytest.MonkeyPatch.context() as mp:
            fresh_count_state(mp)
            for signature in sequence:
                superpotential._WT_CACHE.clear()  # every count runs the resume
                expected = exp_series_pass_fractions(degree_count_steps(signature))[len(signature)]
                assert superpotential._WT_CACHE[signature] == expected, (sequence, signature)

    def test_fixed_sequence_of_every_kind(self):
        a = ((2, 0), (5, 0), (3, 2), (4, 4), (1, 6))
        self.check([
            a,
            a,  # identical
            a[:3],  # strict prefix
            a[:3] + ((0, 0), (6, 6), (2, 2)),  # longer than the last, shared prefix 3
            ((3, 3),) + a[1:],  # divergence at step 1
            ((3, 3), (5, 0), (6, 1)),  # shared prefix 2
        ])

    def test_zero_counts_leave_no_stale_monomial(self):
        """T̃_e vanishes for e >= 3 at a = 4 and for e >= 2 at a = 3/2 but not at
        a = 11/2 or 7, so a stale F_e kept from the last pass would show."""
        sig = {a: gamma_points(normalized(a), range(2, 18, 3)) for a in ("3/2", 4, "11/2", 7)}
        assert sig[4][0] == sig["11/2"][0] and sig[7][0] != sig["3/2"][0]
        self.check([sig["11/2"], sig[4], sig[7], sig["3/2"], sig[4][:4], sig["11/2"]])

    @given(sequence=signature_sequences())
    @settings(derandomize=True, deadline=None, max_examples=80)
    def test_random_sequences_match_the_fraction_kernel(self, sequence):
        self.check(sequence)


class TestInfinity:
    def test_weighted_values(self):
        assert [wt_T_infinity(d) for d in range(1, 6)] == [2, 5, 32, 286, 3038]

    def test_normalized_values(self):
        assert [T_infinity(d) for d in range(1, 6)] == [1, 1, 4, 26, 217]

    def test_matches_recursion_beyond_last_jump(self):
        """Any a > 3d - 1 realizes the infinite-parameter value."""
        for d in range(1, 6):
            params = normalized(3 * d)
            assert wt_T(CP2, d, params) == wt_T_infinity(d)

    def test_positive_integers_through_degree_eight(self):
        for d in range(1, 9):
            value = T_infinity(d)
            assert value.denominator == 1
            assert value > 0


class TestPiecewiseTable:
    def test_degree_five_table(self):
        table = piecewise_table(CP2, 5, 1, 20)
        assert table.breakpoints == (
            Fraction(5), Fraction(13, 2), Fraction(8), Fraction(11), Fraction(14),
        )
        assert table.values == (0, 2, 13, 113, 217, 3038)
        assert table.intervals() == (
            (Fraction(1), Fraction(5)),
            (Fraction(5), Fraction(13, 2)),
            (Fraction(13, 2), Fraction(8)),
            (Fraction(8), Fraction(11)),
            (Fraction(11), Fraction(14)),
            (Fraction(14), None),
        )

    def test_degree_one_table(self):
        table = piecewise_table(CP2, 1, 1, 3)
        assert table.breakpoints == (Fraction(2),)
        assert table.values == (1, 2)
        assert table.intervals()[-1][1] is None  # unbounded above 2

    def test_degree_two_constant_below_two(self):
        table = piecewise_table(CP2, 2, 1, 2)
        assert table.breakpoints == ()
        assert len(table.values) == 1

    def test_side_values_and_value_at(self):
        table = piecewise_table(CP2, 5, 1, 20)
        assert table.value_at(Fraction(7)) == 13
        assert table.value_at(Fraction(13, 2), Side.MINUS) == 2
        assert table.value_at(Fraction(13, 2), Side.PLUS) == 13

    def test_lookups_match_a_linear_scan(self):
        tables = [piecewise_table(CP2, d, 1, None) for d in range(1, 9)]
        tables += [normalized_table(CP2, d, 1, None) for d in range(1, 9)]
        tables.append(piecewise_table(CP2, 8, 2, 10))
        assert tables[-1].hi == 10 and len(tables[-1].breakpoints) > 3
        for table in tables:
            ends = (table.lo, *table.breakpoints, *((table.hi,) if table.hi is not None else ()))
            queries = [*ends, *((x + y) / 2 for x, y in zip(ends, ends[1:])), ends[-1] + 1]
            for a in queries:
                for side in Side:
                    assert lookup(table.value_at, a, side) == linear_value_at(table, a, side), (table, a, side)
            for b in table.breakpoints:
                sides = table.value_at(b, Side.MINUS), table.value_at(b, Side.PLUS)
                assert sides == linear_side_values(table, b)

    def test_sides_equal_the_point_queries(self):
        """Both sides of every candidate equal the per-ratio wt_T and T: a
        kept breakpoint's from its two values, any other candidate's from the
        value of the gap it lies in.  The range (5, 14) starts and ends at
        candidates."""
        for d in range(1, 15):
            weighted = set(candidate_discontinuities(d, 1))
            for tabulate, count, candidates in (
                (piecewise_table, wt_T, weighted),
                (normalized_table, T, weighted | set(jump_set(CP2.chern(d) - 2))),
            ):
                for lo, hi in ((1, None), (2, 10), (5, 14)):
                    table = tabulate(CP2, d, lo, hi)
                    for b in sorted(c for c in candidates if lo < c and (hi is None or c < hi)):
                        for side in (Side.MINUS, Side.PLUS):
                            read = table.value_at(b, side if b in table.breakpoints else Side.CANONICAL)
                            assert read == count(CP2, d, normalized(b, side)), (tabulate, d, lo, hi, b, side)

    def test_one_walk_per_table(self, monkeypatch):
        """Each table walks Γ once, at its first gap, and moves the tracked
        points at every later candidate."""
        for tabulate in (piecewise_table, normalized_table):
            monkeypatch.setattr(orbits, "_WALKS", exact.Memo(orbits._Walk))
            tabulate(CP2, 11, 1, None)
            assert len(orbits._WALKS) == 1, tabulate

    def test_jumps_lie_in_candidate_set(self):
        for d in (1, 2, 3, 4):
            table = piecewise_table(CP2, d, 1, 20)
            candidates = set(candidate_discontinuities(d, 1))
            assert set(table.breakpoints) <= candidates

    def test_normalized_table_degree_one_is_constant(self):
        """T_1 = 1 for every a: the weighted count and the multiplicity jump
        together at a = 2."""
        table = normalized_table(CP2, 1, 1, 4)
        assert table.breakpoints == ()
        assert table.values == (1,)


@st.composite
def tracked_indices(draw):
    """Indices a table tracks: a CP² signature 2, 5, ..., 3d - 1 up to the
    table cap, with or without 3d - 2, or a small set in any order."""
    if draw(st.booleans()):
        d = draw(st.integers(1, cli.TABLE_MAX_DEGREE))
        signature = tuple(range(2, 3 * d, 3))
        return (*signature, 3 * d - 2) if draw(st.booleans()) else signature
    return tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=5, unique=True)))


@st.composite
def sweep_cases(draw):
    """(lo, hi, indices) with lo >= 1 and hi None or above lo; the ends are
    candidates or not, and some ranges are narrower than 1 with no candidate inside."""
    indices = draw(tracked_indices())
    candidates = [c for c in jump_union(indices) if c >= 1]
    lo = draw(st.one_of(st.fractions(1, 40, max_denominator=12), st.sampled_from(candidates or [Fraction(1)])))
    above = [c for c in candidates if c > lo]
    widths = st.fractions("1/60", 2, max_denominator=60).filter(bool)
    hi = draw(st.one_of(st.none(), widths.map(lo.__add__), st.sampled_from(above or [None])))
    return lo, hi, indices


class TestSweepWalk:
    """The sweep's walked-once points against a fresh walk per gap."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(sweep_cases())
    @example((Fraction(3), Fraction(7, 2), (2, 5, 4)))  # no candidate inside; lo + 1 = 4 is one
    def test_each_gap_holds_the_points_of_its_interior(self, case):
        """Compare the points, not only the counts: below a = 5 most counts
        vanish, so a wrong signature can still give the right value."""
        lo, hi, indices = case
        inner = [c for c in jump_union(indices) if lo < c and (hi is None or c < hi)]
        gaps = list(superpotential._gaps(lo, hi, indices))
        assert [left for left, _ in gaps] == [lo, *inner]
        for (left, points), right in zip(gaps, [*inner, hi]):
            interior = left + 1 if right is None else (left + right) / 2
            assert points == gamma_points(normalized(interior), indices), (left, right)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(tracked_indices(), st.integers(1, cli.TABLE_MAX_DEGREE), st.fractions(0, 40, max_denominator=12))
    def test_jump_union_is_the_union_of_the_jump_sets(self, indices, d, lower):
        assert jump_union(indices) == tuple(sorted(set().union(*map(jump_set, indices))))
        expected = sorted({v for e in range(1, d + 1) for v in jump_set(3 * e - 1) if v > lower})
        assert candidate_discontinuities(d, lower) == tuple(expected)


def lookup(fn, *args):
    """The value, or the exception type it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def linear_side_values(table, b):
    idx = table.breakpoints.index(b)
    return table.values[idx], table.values[idx + 1]


def linear_value_at(table, a, side):
    """PiecewiseTable.value_at by a scan of the breakpoints: the value, or the exception type."""
    if a in table.breakpoints:
        minus, plus = linear_side_values(table, a)
        return {Side.MINUS: minus, Side.PLUS: plus}.get(side, ValueError)
    if a <= table.lo or (table.hi is not None and a >= table.hi):
        return ValueError
    return table.values[sum(1 for b in table.breakpoints if b < a)]


class TestEmbeddingBound:
    def test_known_obstructions(self):
        scaled = SpectrumParams((Fraction(2), Fraction(13)), Side.PLUS)
        assert embedding_bound(CP2, 5, scaled) == Fraction(5, 26)
        round_ball = SpectrumParams((Fraction(1), Fraction(1)), Side.CANONICAL)
        assert embedding_bound(CP2, 1, round_ball) == 1
        # The 14th action at a = 11/2 is 12: the merge has thirteen values
        # at most 11 (integers 1..11, 11/2, and the doubled 11/2).
        assert embedding_bound(CP2, 5, normalized("11/2")) == Fraction(5, 12)

    def test_zero_superpotential_gives_no_bound(self):
        assert embedding_bound(CP2, 2, normalized("3/2")) is None


class TestInvariantsToTheCliCaps:
    """The paper's closed forms up to the degrees the CLI serves (``cli`` caps)."""

    def test_counts_at_infinity_are_positive_integers(self):
        for d in range(1, cli.COUNT_MAX_DEGREE + 1):
            value = T_infinity(d)
            assert value > 0 and value.denominator == 1, (d, value)

    def test_fibonacci_counts_and_staircase_corners(self):
        """At a = g_{n+2}/g_n and d = g_{n+1}, over g = 1, 2, 5, 13, 34, 89, 233
        (g_{n+2} = 3 g_{n+1} - g_n), T_d = 1 on both sides and the bound is
        g_{n+1}/g_{n+2}, the reciprocal of the Fibonacci-staircase corner."""
        g = [1, 2]
        while g[-1] <= cli.COUNT_MAX_DEGREE:
            g.append(3 * g[-1] - g[-2])
        # d runs over g[1:-1], every term up to the cap
        for low, d, high in zip(g, g[1:-1], g[2:]):
            for side in (Side.MINUS, Side.PLUS):
                params = normalized(Fraction(high, low), side)
                assert T(CP2, d, params) == 1, (d, side)
                assert embedding_bound(CP2, d, params) == Fraction(d, high), (d, side)


    def test_table_at_the_cap_breaks_only_at_candidates(self):
        """At d = TABLE_MAX_DEGREE every kept breakpoint is a candidate
        discontinuity (with J_{c1-2} for T), and at 40 seeded candidates both
        sides of each table equal wt_T and T."""
        d = cli.TABLE_MAX_DEGREE
        weighted, unweighted = piecewise_table(CP2, d, 1, None), normalized_table(CP2, d, 1, None)
        candidates = set(candidate_discontinuities(d, 0))
        assert set(weighted.breakpoints) <= candidates
        candidates.update(jump_set(CP2.chern(d) - 2))
        assert set(unweighted.breakpoints) <= candidates
        for a in random.Random(d).sample(sorted(c for c in candidates if c > 1), 40):
            for side in (Side.MINUS, Side.PLUS):
                params = normalized(a, side)
                assert weighted.value_at(a, side) == wt_T(CP2, d, params), (a, side)
                assert unweighted.value_at(a, side) == T(CP2, d, params), (a, side)


class TestGenfun:
    def test_small_coefficients_by_hand(self):
        # d=1: 3 * wt_T_1 = 6 = 3!/1; d=2: 6 * wt_T_2 + 15 * wt_T_1^2 = 90.
        assert 3 * wt_T_infinity(1) == 6
        assert 6 * wt_T_infinity(2) + 15 * wt_T_infinity(1) ** 2 == 90
        assert math.factorial(6) // 8 == 90

    def test_check_passes(self):
        report = genfun_check(5)
        assert report.ok
        assert report.checked == 5

    def test_a_perturbed_count_fails_without_raising(self, monkeypatch):
        counts = superpotential.wt_T_infinity
        monkeypatch.setattr(
            superpotential, "wt_T_infinity", lambda e: counts(e) + (Fraction(1, 7) if e == 3 else 0)
        )
        report = genfun_check(6)
        assert not report.ok
        assert report.checked == 6
        assert [line.split(":")[0] for line in report.failures] == ["d=3", "d=4", "d=5", "d=6"]
        assert report.failures[0].endswith(f"expected {math.factorial(9) // 6**3}")


class TestCrossFormulation:
    def test_single_cobordism_map_reproduces_recursion(self):
        """wt_T equals the d-th level coefficient of the cobordism map from a
        parameter just above 1, divided by d!, in every degree-4 interval."""
        src = normalized("3/2")
        samples = [
            Fraction(7, 4), Fraction(5, 2), Fraction(13, 4), Fraction(4),
            Fraction(6), Fraction(9), Fraction(12),
        ]
        for a in samples:
            tgt = normalized(a)
            for d in range(1, 5):
                F = xi(src, tgt)
                w = Word(tuple([o_key(2)] * d))
                coeff = F.level(w)[(o_key(3 * d - 1),)]
                assert coeff / math.factorial(d) == wt_T(CP2, d, tgt), (a, d)

    def test_depends_only_on_path_values(self):
        """Two parameters with the same path points at indices 2, 5, ..., 3d-1
        have the same superpotential."""
        rng = random.Random(55321)
        buckets = {}
        for _ in range(250):
            a = Fraction(rng.randint(2, 60), rng.randint(1, 12))
            if a <= 1:
                continue
            p = normalized(a)
            d = rng.randint(1, 4)
            signature = (d, tuple(gamma(p, 3 * i - 1) for i in range(1, d + 1)))
            value = wt_T(CP2, d, p)
            if signature in buckets:
                assert buckets[signature] == value, (a, signature)
            else:
                buckets[signature] = value
