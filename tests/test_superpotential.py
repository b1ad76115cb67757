"""Tests for the superpotential recursion, interval tables and related checks."""

import math
import random
from fractions import Fraction

from ellsuper import superpotential
from ellsuper.exact import CACHE_CAP
from ellsuper.linf import Word
from ellsuper.orbits import (
    Side,
    SpectrumParams,
    candidate_discontinuities,
    gamma,
    normalized,
)
from ellsuper.sft import o_key, single_coefficient, xi
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
        monkeypatch.setattr(superpotential, "_WT_CACHE", {})
        side = math.isqrt(CACHE_CAP + 10) + 1
        points = [(x, y) for x in range(side) for y in range(side)][: CACHE_CAP + 10]
        for x, y in points:  # one-degree signatures: T̃_1 = x! y!
            assert superpotential._signature_count(((x, y),)) == math.factorial(x) * math.factorial(y)
        assert len(superpotential._WT_CACHE) <= CACHE_CAP
        assert (points[0],) not in superpotential._WT_CACHE
        assert wt_T(CP2, 5, normalized("13/2", Side.PLUS)) == 13

    def test_every_prefix_is_cached(self, monkeypatch):
        monkeypatch.setattr(superpotential, "_WT_CACHE", {})
        wt_T_infinity(4)
        prefixes = {tuple((3 * e - 1, 0) for e in range(1, d + 1)) for d in range(1, 5)}
        assert set(superpotential._WT_CACHE) == prefixes


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
        assert table.side_values(Fraction(13, 2)) == (2, 13)
        assert table.value_at(Fraction(7)) == 13
        assert table.value_at(Fraction(13, 2), Side.MINUS) == 2
        assert table.value_at(Fraction(13, 2), Side.PLUS) == 13

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
                coeff = single_coefficient(F.level(d, w), o_key(3 * d - 1))
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
