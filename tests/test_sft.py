"""Tests for the concrete SFT objects: augmentations, inverses, cobordism maps."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import sft
from ellsuper.exact import CACHE_CAP
from ellsuper.jumps import jump_general, jump_via_xi
from ellsuper.linf import Combination, LinfMorphism, Word, abelian, compose, morphisms_agree
from ellsuper.oracle import cp2_exp_mc, gamma_bruteforce, morphism_bruteforce
from ellsuper.orbits import SpectrumParams, Side, action, candidate_discontinuities, gamma, normalized
from ellsuper.sft import (
    beta_key,
    ca_generators,
    co_generators,
    epsilon,
    eta,
    inverse_check,
    local_descendant,
    o_key,
    q_key,
    tilde_epsilon,
    xi,
    xi_chain_check,
)
from ellsuper.superpotential import CP2Target, wt_T


def o_word(*indices):
    return Word(tuple(o_key(i) for i in indices))


def q_word(*indices):
    return Word(tuple(q_key(i) for i in indices))


class TestGenerators:
    def test_degrees(self):
        ca = ca_generators()
        for k in (1, 2, 7):
            assert ca.degree(o_key(k)) == -2 - 2 * k
        co = co_generators()
        assert co.degree(q_key(3)) == -8

    def test_bad_keys_rejected(self):
        ca = ca_generators()
        with pytest.raises(ValueError):
            ca.degree(("o", 0))
        with pytest.raises(ValueError):
            ca.degree(("x", 1))

    def test_algebras_are_abelian(self):
        for structure, w in (
            (abelian(ca_generators()), o_word(1, 2)),
            (abelian(co_generators()), q_word(1, 1, 2)),
        ):
            assert structure.level(w) == Combination()


class TestEpsilon:
    def test_level_one_uses_path_point_factorial(self):
        # Below 2 the second point is (1,1); at 3 it is (2,0).
        eps_low = epsilon(normalized("3/2"))
        assert eps_low.level(o_word(2)) == Combination.single(q_word(2), 1)
        eps_high = epsilon(normalized(3))
        assert eps_high.level(o_word(2)) == Combination.single(
            q_word(2), Fraction(1, 2)
        )

    @pytest.mark.parametrize("bad", [(("o", 0),), (("q", 1),), (("o", 1), ("q", 1)), (("x", 3),)], ids=repr)
    def test_a_key_outside_ca_raises(self, bad):
        """ψ_a's letter memo reads C_a's degree rule on a miss, so ε_a's level
        and extension reject a key that is no o_i (i >= 1), and store nothing."""
        eps = epsilon(normalized("3/2"))
        assert eps.level(o_word(1)) and eps.extend(o_word(1, 2))  # warm memos
        for get in (eps.level, eps.extend):
            with pytest.raises(ValueError, match="unknown generator key"):
                get(bad)

    def test_level_two_example(self):
        eps = epsilon(normalized("3/2"))
        assert eps.level(o_word(1, 1)) == Combination.single(
            q_word(3), Fraction(1, 2)
        )

    def test_output_index_constraint(self):
        """Every nonzero level lands on the single index sum(i) + k - 1."""
        for p in (normalized("3/2"), normalized("13/2", Side.PLUS)):
            eps = epsilon(p)
            for k in (1, 2, 3):
                for combo in combinations_with_replacement(range(1, 5), k):
                    out = eps.level(o_word(*combo))
                    expected_index = sum(combo) + k - 1
                    for w, _ in out.terms():
                        assert w == q_word(expected_index)

    def test_degree_preservation(self):
        """The extension preserves total word degree exactly: each block's
        output index is pinned so that deg q_j matches the block's degree."""
        p = normalized(2, Side.PLUS)
        eps = epsilon(p)
        ca = ca_generators()
        co = co_generators()
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(range(1, 5), k):
                w = o_word(*combo)
                din = sum(ca.degree(key) for key in w)
                for ow, _ in eps.extend(w).terms():
                    dout = sum(co.degree(key) for key in ow)
                    assert din == dout


SIDED_PARAMS = st.builds(
    normalized,
    st.fractions(min_value=1, max_value=8, max_denominator=6),
    st.sampled_from([Side.MINUS, Side.PLUS]),
)
THREE_AXES = SpectrumParams([1, Fraction(3, 2), Fraction(7, 3)])


class TestEpsilonThroughLatticePoints:
    """ε_a = ε̃ ∘ ψ_a against the closed form and the brute-force extension."""

    @given(
        params=st.one_of(SIDED_PARAMS, st.just(THREE_AXES)),
        indices=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    )
    @settings(deadline=None, max_examples=100)
    def test_level_is_the_closed_form(self, params, indices):
        count, psi_power = local_descendant(params, indices)
        assert epsilon(params).level(o_word(*sorted(indices))) == Combination.single(q_word(psi_power + 1), count)

    @given(
        params=st.one_of(SIDED_PARAMS, st.just(THREE_AXES)),
        indices=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
    )
    @settings(deadline=None, max_examples=60)
    def test_extension_is_the_brute_force(self, params, indices):
        """Both ε_a and ψ_a; the oracle reads every level of ψ_a, whatever it declares."""
        word = o_word(*sorted(indices))
        eps, psi = epsilon(params), sft.psi_map(params)
        assert eps.extend(word) == morphism_bruteforce(eps, word)
        assert psi.extend(word) == morphism_bruteforce(psi, word)

    @given(
        a=st.fractions(min_value="1/6", max_value=8, max_denominator=6),
        indices=st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=80)
    def test_the_two_sides_share_one_value_below_the_jump(self, a, indices):
        """Off the jump indices (p + q | i + 1) Γ^{a-} and Γ^{a+} agree, so both
        sides reach one entry of ε̃'s memos and return the identical object.

        The two sides are built fresh: a cached ε may hold a value whose entry
        ε̃ has evicted since, and the other side would then get a new one."""
        m = a.numerator + a.denominator
        word = o_word(*sorted(i for i in indices if (i + 1) % m))
        minus, plus = sft._epsilon(normalized(a, Side.MINUS)), sft._epsilon(normalized(a, Side.PLUS))
        if word:
            assert minus.extend(word) is plus.extend(word)
            assert minus.level(word) is plus.level(word)
        jump = o_word(m - 1)  # Γ^{a-}_{m-1} != Γ^{a+}_{m-1}: two entries
        assert minus.extend(jump) is not plus.extend(jump)

    @pytest.mark.parametrize(
        "word",
        [
            (beta_key(1, 0), beta_key(1, 0, 0)),  # the two-axis loop meets a three-axis letter
            (beta_key(1, 0, 0), beta_key(1, 0, 0, 0)),  # the general path from the first letter
        ],
        ids=["two-axis-loop", "general-path"],
    )
    def test_mixed_axis_counts_raise(self, word):
        with pytest.raises(ValueError):
            tilde_epsilon().level(word)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(any), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=100)
    def test_two_axis_loop_is_the_general_point_sum(self, points):
        """A two-axis word's key is its point sum and length; the word lifted
        to three axes with a zero coordinate takes the general path, whose
        key has that sum with a 0 inserted and whose level is the same."""
        word = tuple(sorted(beta_key(*point) for point in points))
        lifted = tuple(sorted(beta_key(*point, 0) for point in points))
        x, y = (sum(axis) for axis in zip(*points))
        assert sft._lattice_key(word) == (x, y, len(word))
        assert sft._lattice_key(lifted) == (x, y, 0, len(word))
        assert tilde_epsilon().level(word) == tilde_epsilon().level(lifted)


class TestPsiLetterMap:
    """psi_a is a letter map: ε_a reads ε̃ at psi_a's image word."""

    @given(
        params=st.one_of(SIDED_PARAMS, st.just(THREE_AXES)),
        indices=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
    )
    @settings(deadline=None, max_examples=100)
    def test_composite_equals_the_block_recursion_composite(self, params, indices):
        """Levels, extensions and term order of ε̃ ∘ psi_a agree with ε̃ composed
        with a plain morphism of the same arity-1 rule, extended by the block recursion."""

        def rule(w):
            if len(w) != 1:
                return Combination()
            return Combination.single((beta_key(*gamma(params, w[0][1])),))

        reference = compose(tilde_epsilon(), LinfMorphism(ca_generators(), sft.v_generators(), rule))
        fast = sft._epsilon(params)
        word = o_word(*sorted(indices))
        for get in (lambda m: m.level(word), lambda m: m.extend(word)):
            assert list(get(fast).terms()) == list(get(reference).terms())

    @given(
        params=st.one_of(SIDED_PARAMS, st.just(THREE_AXES)),
        indices=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    )
    @settings(deadline=None, max_examples=100)
    def test_the_image_of_a_sorted_word_is_sorted(self, params, indices):
        """Γ_{i+1} = Γ_i + e_j, so i < i' gives beta_{Γ_i} < beta_{Γ_i'}: psi_a keeps the key order."""
        psi = sft.psi_map(params)
        image = [psi._letters[o_key(i)] for i in sorted(indices)]
        assert image == sorted(image)
        assert len(set(image)) == len(set(indices))
        for i in sorted(set(indices)):
            step = [b - a for a, b in zip(gamma(params, i), gamma(params, i + 1))]
            assert sorted(step) == [0] * (params.n - 1) + [1]


class TestEta:
    def test_level_one_inverts_diagonal(self):
        eta_low = eta(normalized("3/2"))
        assert eta_low.level(q_word(2)) == Combination.single(o_word(2), 1)
        eta_high = eta(normalized(3))
        assert eta_high.level(q_word(2)) == Combination.single(o_word(2), 2)

    def test_two_sided_inverse(self):
        for a, side in (("3/2", Side.CANONICAL), (2, Side.PLUS), ("13/2", Side.MINUS)):
            report = inverse_check(normalized(a, side), bound=3)
            assert report.ok, report.failures


class TestXi:
    def test_same_parameters_give_identity(self):
        p = normalized("5/2")
        F = xi(p, p)
        for w in (o_word(1), o_word(2, 2), o_word(1, 2, 3)):
            assert F.extend(w) == Combination.single(w)

    def test_breakpoint_jump_coefficient(self):
        src = normalized("5/4", Side.MINUS)
        tgt = normalized("5/4", Side.PLUS)
        F = xi(src, tgt)
        assert F.level(o_word(2, 8))[(o_key(11),)] == Fraction(
            -1, 4
        )

    def test_output_index_constraint(self):
        F = xi(normalized(3), normalized("3/2"))
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(range(1, 5), k):
                out = F.level(o_word(*combo))
                for w, _ in out.terms():
                    assert w == o_word(sum(combo) + k - 1)

    def test_composition_law(self):
        report = xi_chain_check(
            normalized("3/2"), normalized("5/2"), normalized(4), bound=3
        )
        assert report.ok, report.failures

    def test_augmentation_compatibility(self):
        """epsilon(target) . xi(source->target) = epsilon(source)."""
        src = normalized(3)
        tgt = normalized("3/2")
        left = compose(epsilon(tgt), xi(src, tgt))
        words = [
            o_word(*combo)
            for k in (1, 2, 3)
            for combo in combinations_with_replacement(range(1, 4), k)
        ]
        assert morphisms_agree(left, epsilon(src), words).ok

    def test_filtration_into_smaller_ellipsoid(self):
        """Mapping toward a smaller ellipsoid never increases total action;
        at a breakpoint the two sides have equal unperturbed actions."""
        cases = [
            (normalized(3), normalized("3/2"), True),
            (normalized("13/2", Side.PLUS), normalized(2, Side.PLUS), True),
            (normalized("5/4", Side.MINUS), normalized("5/4", Side.PLUS), False),
        ]
        for src, tgt, expect_strict in cases:
            F = xi(src, tgt)
            saw_strict = False
            for k in (1, 2, 3):
                for combo in combinations_with_replacement(range(1, 5), k):
                    w = o_word(*combo)
                    a_in = sum(action(src, i) for i in combo)
                    for ow, _ in F.level(w).terms():
                        a_out = sum(action(tgt, key[1]) for key in ow)
                        assert a_out <= a_in
                        saw_strict = saw_strict or a_out < a_in
            assert saw_strict == expect_strict


class TestMorphismCaches:
    def test_caches_are_bounded_and_evicted_pairs_recompute(self):
        first = Fraction(5, 4)
        ratios = [first] + [Fraction(10**6 + i, 7919) for i in range(CACHE_CAP + 9)]
        pairs = [(normalized(a, Side.MINUS), normalized(a, Side.PLUS)) for a in ratios]
        for source, target in pairs:  # lazy: no level is evaluated
            xi(source, target)
        for cache in (sft._EPSILON_CACHE, sft._ETA_CACHE, sft._XI_CACHE):
            assert len(cache) <= CACHE_CAP
        assert pairs[0] not in sft._XI_CACHE
        assert pairs[-1] in sft._XI_CACHE
        value = jump_via_xi(first, (2, 8))
        assert value == jump_general(first, (2, 8)) == Fraction(-1, 4)


class TestLocalDescendant:
    def test_pair_of_points(self):
        count, psi_power = local_descendant(normalized("3/2"), (1, 1))
        assert count == Fraction(1, 2)
        assert psi_power == 2

    def test_single_orbit(self):
        count, psi_power = local_descendant(normalized("3/2"), (2,))
        assert count == 1
        assert psi_power == 1

    @given(
        params=st.one_of(
            st.lists(
                st.fractions(min_value="1/6", max_value=8, max_denominator=6), min_size=1, max_size=3
            ).map(SpectrumParams),
            st.builds(
                normalized,
                st.fractions(min_value=1, max_value=8, max_denominator=6),
                st.sampled_from([Side.MINUS, Side.PLUS]),
            ),
        ),
        indices=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_brute_force_lattice_paths(self, params, indices):
        """N = 1 / (Σ_s Γ_{i_s})! with each Γ from the brute-force minimizer."""
        points = [gamma_bruteforce(params, i) for i in indices]
        total = [sum(axis) for axis in zip(*points)]
        expected = Fraction(1, math.prod(math.factorial(x) for x in total))
        assert local_descendant(params, indices) == (expected, sum(indices) + len(indices) - 2)

    @pytest.mark.parametrize("indices", [(), (0,), (2, 0), (-1, 3)])
    def test_an_index_below_one_raises(self, indices):
        with pytest.raises(ValueError, match="orbit indices must be positive integers"):
            local_descendant(normalized("3/2"), indices)

    @pytest.mark.parametrize("indices", [(True,), (2, True), (1.0,), "x", ()])
    def test_a_non_integer_index_raises(self, indices):
        """Bools, floats and strings are rejected by the one orbit-index validator, as in every jump route."""
        with pytest.raises(ValueError, match="orbit indices must be positive integers"):
            local_descendant(normalized("3/2"), indices)


class TestExpMc:
    @staticmethod
    def counts(params, d):
        """e -> T̃_e for e = 1..d, from the production path."""
        return {e: wt_T(CP2Target(), e, params) for e in range(1, d + 1)}

    @staticmethod
    def augmented_single_letter(params, d):
        """Single-letter part of ε(exp MC) in degree d, summed with ``Combination.apply``."""
        eps = epsilon(params)
        comb = cp2_exp_mc(TestExpMc.counts(params, d), d)
        return comb.apply(eps.level)[(q_key(3 * d - 1),)]

    def test_degree_two_shape(self):
        counts = self.counts(normalized(3), 2)
        t1, t2 = counts[1], counts[2]
        assert cp2_exp_mc(counts, 2) == Combination(
            {o_word(5): t2, o_word(2, 2): Fraction(1, 2) * t1 * t1}
        )

    def test_degree_three_weights(self):
        counts = self.counts(normalized(3), 3)
        t1, t2, t3 = counts[1], counts[2], counts[3]
        assert cp2_exp_mc(counts, 3) == Combination(
            {
                o_word(8): t3,
                o_word(2, 5): t2 * t1,
                o_word(2, 2, 2): Fraction(1, 6) * t1 ** 3,
            }
        )

    def test_vanishing_factor_drops_word(self):
        counts = self.counts(normalized("3/2"), 2)  # wt_T_2 = 0 below a = 2
        assert cp2_exp_mc(counts, 2) == Combination.single(o_word(2, 2), Fraction(1, 2))

    def test_augmentation_of_exponential_counts_closed_curves(self):
        """Projecting the augmented exponential to single letters recovers the
        closed stationary descendant for every degree and parameter tested."""
        for a, side in ((Fraction(3, 2), Side.CANONICAL), (2, Side.PLUS), (9, Side.CANONICAL)):
            params = normalized(a, side)
            for d in range(1, 5):
                assert self.augmented_single_letter(params, d) == Fraction(1, math.factorial(d) ** 3)

    @given(
        ratio=st.one_of(
            st.sampled_from(candidate_discontinuities(5, 1)),
            st.fractions(min_value=1, max_value=20, max_denominator=12).filter(lambda x: x > 1),
        ),
        side=st.sampled_from(Side),
        d=st.integers(min_value=1, max_value=5),
    )
    @settings(deadline=None, max_examples=60)
    def test_augmentation_on_random_ratios(self, ratio, side, d):
        """The same identity at jump candidates and random ratios, on all three sides:
        a differential test of ``wt_T`` through the L∞ engine."""
        params = normalized(ratio, side)
        assert self.augmented_single_letter(params, d) == Fraction(1, math.factorial(d) ** 3)
