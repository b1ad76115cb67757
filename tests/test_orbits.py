"""Tests for ellipsoid Reeb spectra: the lattice path, actions and jump sets."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import jumps, orbits, sft
from ellsuper.exact import CACHE_CAP
from ellsuper.oracle import DualRational, action_dual, gamma_bruteforce, merge_spectrum, perturbed_value
from ellsuper.orbits import (
    OrbitId,
    Side,
    SpectrumParams,
    action,
    candidate_discontinuities,
    gamma,
    gamma_closed_form,
    gamma_points,
    gamma_range,
    jump_set,
    jump_union,
    normalized,
    orbit,
)

positive_rationals = st.fractions(min_value="1/12", max_value=40, max_denominator=12)


def params_strategy(max_n=4):
    return st.lists(positive_rationals, min_size=1, max_size=max_n).map(
        lambda a: SpectrumParams(tuple(a), Side.CANONICAL)
    )


class TestSpectrumParams:
    def test_coercion_and_describe(self):
        p = SpectrumParams(("1", Fraction(3, 2)), Side.CANONICAL)
        assert p.a == (Fraction(1), Fraction(3, 2))
        assert p.n == 2
        assert p.describe() == "1,3/2"
        assert normalized("13/2", Side.PLUS).describe() == "1,13/2+"

    def test_normalized_builds_two_axes(self):
        p = normalized("3/2")
        assert p.a == (Fraction(1), Fraction(3, 2))
        assert p.side is Side.CANONICAL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpectrumParams((Fraction(0), Fraction(1)), Side.CANONICAL)
        with pytest.raises(ValueError):
            SpectrumParams((Fraction(-1),), Side.CANONICAL)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectrumParams((), Side.CANONICAL)

    def test_signed_sides_need_two_axes(self):
        with pytest.raises(ValueError):
            SpectrumParams((Fraction(1), Fraction(2), Fraction(3)), Side.PLUS)
        with pytest.raises(ValueError):
            SpectrumParams((Fraction(2),), Side.MINUS)

    @pytest.mark.parametrize("side", ["minus", "plus", None, 1])
    def test_rejects_a_side_that_is_not_a_side(self, side):
        """A string is not a side: unchecked, it walks with the CANONICAL rank and breaks ``describe``."""
        with pytest.raises(ValueError, match="Side.MINUS, Side.CANONICAL or Side.PLUS"):
            normalized(2, side)


class TestPerturbedValue:
    def test_canonical_tilts_axis_i_by_i_eps(self):
        p = SpectrumParams((Fraction(2), Fraction(5)), Side.CANONICAL)
        assert perturbed_value(p, 1, 3) == DualRational(Fraction(6), Fraction(6))
        assert perturbed_value(p, 2, 2) == DualRational(Fraction(10), Fraction(20))

    def test_signed_sides_tilt_only_axis_two(self):
        plus = normalized(2, Side.PLUS)
        minus = normalized(2, Side.MINUS)
        assert perturbed_value(plus, 1, 4) == DualRational(Fraction(4), Fraction(0))
        assert perturbed_value(plus, 2, 3) == DualRational(Fraction(6), Fraction(3))
        assert perturbed_value(minus, 2, 3) == DualRational(Fraction(6), Fraction(-3))


# small numerators and denominators, so that covers of different axes tie often
tie_prone = st.fractions(min_value="1/6", max_value=12, max_denominator=6).filter(lambda x: x > 0)


@st.composite
def any_side_params(draw):
    a = draw(st.lists(tie_prone, min_size=1, max_size=4))
    side = draw(st.sampled_from(list(Side))) if len(a) == 2 else Side.CANONICAL
    return SpectrumParams(tuple(a), side)


class TestIntegerWalkDifferential:
    """The integer walk and the closed form against the DualRational oracles."""

    @given(p=any_side_params(), k=st.integers(0, 59))
    @settings(deadline=None, max_examples=200)
    def test_walk_closed_form_and_bruteforce_agree(self, p, k):
        assert gamma_closed_form(p, k) == gamma(p, k)
        # the brute force enumerates all C(k + n - 1, n - 1) compositions of k
        small = min(k, 40 if p.n < 4 else 20)
        assert gamma(p, small) == gamma_closed_form(p, small) == gamma_bruteforce(p, small)

    @given(p=any_side_params(), count=st.integers(1, 59))
    @settings(deadline=None, max_examples=200)
    def test_orbits_follow_heap_spectrum(self, p, count):
        counts = [0] * p.n
        for k, (value, oid) in enumerate(merge_spectrum(p, count), start=1):
            counts[oid.axis - 1] += 1
            assert orbit(p, k) == oid
            assert gamma(p, k) == gamma_closed_form(p, k) == tuple(counts)
        # action_dual runs the same merge; one read of its last entry keeps the test O(count)
        assert action_dual(p, count) == value

    @given(p=any_side_params(), lo=st.integers(0, 40), width=st.integers(0, 20))
    @settings(deadline=None, max_examples=100)
    def test_range_steps_from_closed_form(self, p, lo, width):
        assert gamma_range(p, lo, lo + width) == [gamma(p, k) for k in range(lo, lo + width + 1)]

    def test_closed_form_at_large_index(self):
        # a ratio 7/3: 3 covers of axis 2 for every 7 of axis 1, ties to axis 1
        assert gamma_closed_form(normalized("7/3"), 3_000_000) == (2_100_000, 900_000)
        # the ninth action is the tie 7 = 7 * 1 = 3 * 7/3
        for k, plus, minus in ((8, (6, 2), (6, 2)), (9, (7, 2), (6, 3)), (10, (7, 3), (7, 3))):
            assert gamma_closed_form(normalized("7/3", Side.PLUS), k) == plus
            assert gamma_closed_form(normalized("7/3", Side.MINUS), k) == minus
            assert gamma_closed_form(normalized("7/3"), k) == plus

    def test_closed_form_memoizes_nothing(self):
        p = normalized("1234567/89")
        assert p not in orbits._WALKS
        gamma_closed_form(p, 10**6)
        gamma_range(p, 10**6, 10**6 + 3)
        assert p not in orbits._WALKS

    def test_rejects_negative_indices(self):
        p = normalized("3/2")
        with pytest.raises(ValueError):
            gamma_closed_form(p, -1)
        with pytest.raises(ValueError):
            gamma_range(p, 3, 2)
        with pytest.raises(ValueError):
            gamma_points(p, (2, -1))

    def test_points_read_in_index_order(self):
        p = normalized("13/2", Side.MINUS)
        indices = (5, 1, 14, 5)
        assert gamma_points(p, indices) == tuple(gamma(p, k) for k in indices)
        assert gamma_points(p, ()) == ()


class TestWalkCache:
    def test_walks_are_bounded_and_evicted_walks_recompute(self):
        cap = CACHE_CAP
        ratios = [Fraction(10**6 + i, 7919) for i in range(cap + 10)]
        first = normalized(ratios[0])
        expected = [gamma(first, k) for k in range(12)]
        for a in ratios[1:]:
            gamma(normalized(a), 11)
        assert len(orbits._WALKS) <= cap
        assert first not in orbits._WALKS
        assert [gamma(first, k) for k in range(12)] == expected


class TestGammaFixture:
    def test_one_three_halves_walk(self):
        p = normalized("3/2")
        expected = {
            0: (0, 0),
            1: (1, 0),
            2: (1, 1),
            3: (2, 1),
            4: (3, 1),
            5: (3, 2),
            6: (4, 2),
            7: (4, 3),
            8: (5, 3),
        }
        for k, point in expected.items():
            assert gamma(p, k) == point

    def test_round_ellipsoid_alternates(self):
        p = SpectrumParams((Fraction(1), Fraction(1)), Side.CANONICAL)
        # Ties at every level resolve toward axis 1 first.
        assert [gamma(p, k) for k in range(5)] == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
        ]

    def test_three_axes(self):
        p = SpectrumParams((Fraction(1), Fraction(1), Fraction(1)), Side.CANONICAL)
        assert gamma(p, 3) == (1, 1, 1)
        assert gamma(p, 5) == (2, 2, 1)


class TestGammaProperties:
    @given(p=params_strategy(), k=st.integers(1, 30))
    @settings(deadline=None, max_examples=60)
    def test_unit_steps_and_total(self, p, k):
        prev = gamma(p, k - 1)
        cur = gamma(p, k)
        diffs = [c - q for c, q in zip(cur, prev)]
        assert sum(cur) == k
        assert sorted(diffs) == [0] * (p.n - 1) + [1]

    @given(p=params_strategy(), k=st.integers(1, 30))
    @settings(deadline=None, max_examples=60)
    def test_projection_characterization(self, p, k):
        """Component i of the k-th point counts the covers on axis i whose
        perturbed value is at most the k-th action."""
        bound = action_dual(p, k)
        point = gamma(p, k)
        for i in range(1, p.n + 1):
            count = 0
            m = 1
            while perturbed_value(p, i, m) <= bound:
                count += 1
                m += 1
            assert point[i - 1] == count

    @given(
        a=positive_rationals,
        c=st.fractions(min_value="1/8", max_value=12, max_denominator=8),
        k=st.integers(1, 25),
    )
    @settings(deadline=None, max_examples=60)
    def test_scaling_invariance(self, a, c, k):
        """Rescaling all axis parameters by a common factor keeps the path."""
        base = SpectrumParams((Fraction(1), a), Side.CANONICAL)
        scaled = SpectrumParams((c, c * a), Side.CANONICAL)
        assert gamma(base, k) == gamma(scaled, k)
        assert action(scaled, k) == c * action(base, k)

    def test_maximality_under_budget(self):
        """Any lattice vector whose covers all fit under the k-th action is
        dominated componentwise by the k-th path point."""
        for a in (Fraction(3, 2), Fraction(2), Fraction(13, 2), Fraction(7, 3)):
            p = normalized(a)
            for k in range(1, 13):
                budget = action_dual(p, k)
                point = gamma(p, k)
                for v in itertools.product(range(k + 1), repeat=p.n):
                    if sum(v) == 0:
                        continue
                    worst = max(
                        perturbed_value(p, i, m)
                        for i, m in enumerate(v, start=1)
                        if m > 0
                    )
                    if worst <= budget:
                        assert all(vi <= pi for vi, pi in zip(v, point))


class TestActionsAndOrbits:
    def test_actions_strictly_increase_in_dual_order(self):
        p = normalized("13/2", Side.MINUS)
        values = [action_dual(p, k) for k in range(1, 30)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_action_is_main_part(self):
        p = normalized("3/2")
        for k in range(1, 12):
            assert action_dual(p, k).main == action(p, k)

    def test_action_equals_cost_of_new_cover(self):
        p = normalized("3/2")
        for k in range(1, 12):
            o = orbit(p, k)
            assert action(p, k) == p.a[o.axis - 1] * o.multiplicity

    def test_orbit_fixture(self):
        p = normalized("3/2")
        assert orbit(p, 1) == OrbitId(axis=1, multiplicity=1)
        assert orbit(p, 2) == OrbitId(axis=2, multiplicity=1)
        assert orbit(p, 5) == OrbitId(axis=2, multiplicity=2)
        assert str(orbit(p, 5)) == "nu2^2"


class TestSides:
    def test_plus_minus_differ_only_at_ties(self):
        """Where the unperturbed walk has no tie the sign of the perturbation
        is irrelevant; at a tie the two sides commit to different axes."""
        a = Fraction(2)
        plus = normalized(a, Side.PLUS)
        minus = normalized(a, Side.MINUS)
        # k=2: both axis-1 double cover and axis-2 single cover cost 2.
        assert gamma(plus, 2) == (2, 0)
        assert gamma(minus, 2) == (1, 1)
        # By k=3 the walks have absorbed both covers and agree again.
        assert gamma(plus, 3) == gamma(minus, 3) == (2, 1)

    def test_canonical_agrees_with_plus_at_normalized_ties(self):
        """With a = (1, a2) the canonical tilt favors axis 1 at ties, which is
        the same commitment the plus side makes."""
        for a in (Fraction(2), Fraction(3), Fraction(13, 2)):
            canonical = normalized(a)
            plus = normalized(a, Side.PLUS)
            for k in range(16):
                assert gamma(canonical, k) == gamma(plus, k)

    def test_away_from_jump_all_sides_agree(self):
        a = Fraction(17, 12)  # not in any jump set with index below 28
        for k in range(12):
            reference = gamma(normalized(a), k)
            assert gamma(normalized(a, Side.PLUS), k) == reference
            assert gamma(normalized(a, Side.MINUS), k) == reference

    def test_sided_gamma_at_jump_value(self):
        """At a = alpha/(beta+1) in the i-th jump set the i-th point is
        (alpha, beta) from above and (alpha-1, beta+1) from below."""
        for i in range(1, 9):
            for a in jump_set(i):
                if a <= 1:
                    continue
                # a = alpha/(beta+1) with alpha + beta = i.
                alpha = a * (i + 1) / (1 + a)
                assert alpha.denominator == 1
                alpha = int(alpha)
                beta = i - alpha
                plus = gamma(normalized(a, Side.PLUS), i)
                minus = gamma(normalized(a, Side.MINUS), i)
                assert plus == (alpha, beta)
                assert minus == (alpha - 1, beta + 1)


class TestJumpSets:
    def test_values_and_order(self):
        assert jump_set(1) == (Fraction(1),)
        assert jump_set(2) == (Fraction(1, 2), Fraction(2))
        assert jump_set(4) == (
            Fraction(1, 4), Fraction(2, 3), Fraction(3, 2), Fraction(4),
        )

    @given(k=st.integers(1, 40))
    @settings(deadline=None)
    def test_formula(self, k):
        values = jump_set(k)
        assert values == tuple(sorted(values))
        assert set(values) == {Fraction(i, k - i + 1) for i in range(1, k + 1)}

    def test_union_is_ascending_and_deduplicated(self):
        assert jump_union(()) == ()
        assert jump_union((4, 2)) == (
            Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(4),
        )
        assert jump_union((5, 2, 5)) == jump_set(5)  # J_2 = {1/2, 2} lies in J_5
        with pytest.raises(ValueError):
            jump_union((3, 0))

    def test_candidate_discontinuities_degree_two(self):
        assert candidate_discontinuities(2, 1) == (Fraction(2), Fraction(5))

    def test_candidate_discontinuities_degree_five(self):
        # Union of the jump sets with index 2, 5, 8, 11, 14, restricted to
        # values exceeding the cutoff.
        got = candidate_discontinuities(5, 1)
        expected = sorted(
            {
                v
                for i in range(1, 6)
                for v in jump_set(3 * i - 1)
                if v > 1
            }
        )
        assert got == tuple(expected)
        for v in (Fraction(2), Fraction(5), Fraction(13, 2), Fraction(8),
                  Fraction(11), Fraction(14)):
            assert v in got

    def test_lower_cutoff_is_strict(self):
        assert Fraction(2) not in candidate_discontinuities(2, 2)
        assert Fraction(2) in candidate_discontinuities(2, "3/2")

    def test_degree_five_candidates_from_two_up(self):
        got = candidate_discontinuities(5, "3/2")
        expected = tuple(
            Fraction(v) for v in ("2", "11/4", "3", "7/2", "4", "5", "13/2", "8", "11", "14")
        )
        assert got == expected


# every entry that takes an index, a degree or a bound, as a function of one bad value
INDEX_ENTRIES = {
    "gamma": lambda k: gamma(normalized("3/2"), k),
    "gamma_points": lambda k: gamma_points(normalized("3/2"), (2, k)),
    "gamma_closed_form": lambda k: gamma_closed_form(normalized("3/2"), k),
    "gamma_range lo": lambda k: gamma_range(normalized("3/2"), k, 3),
    "gamma_range hi": lambda k: gamma_range(normalized("3/2"), 0, k),
    "orbit": lambda k: orbit(normalized("3/2"), k),
    "action": lambda k: action(normalized("3/2"), k),
    "jump_set": jump_set,
    "jump_union": lambda k: jump_union([k, 3]),
    "candidate_discontinuities": lambda k: candidate_discontinuities(k, 1),
    "o degree": lambda k: sft.ca_generators().degree(("o", k)),
    "q degree": lambda k: sft.co_generators().degree(("q", k)),
    "beta degree": lambda k: sft.v_generators().degree(("beta", k, 0)),
    "alpha degree": lambda k: sft.v_generators().degree(("alpha", k, 1)),
    "support_scan": jumps.support_scan,
}


@pytest.mark.parametrize("bad", [True, False, 2.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_every_index_entry_rejects_a_bool_or_a_float(entry, bad):
    """An index is an int, not a bool: ``gamma(p, True)`` once returned Γ_1,
    ``('o', True)`` was a generator, and ``gamma(p, 2.0)`` and
    ``support_scan(2.0)`` raised TypeError."""
    with pytest.raises(ValueError, match=r"must be an integer|unknown generator key"):
        INDEX_ENTRIES[entry](bad)
