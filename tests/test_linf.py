"""Tests for the L-infinity engine on small hand-checked examples."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellsuper.linf import (
    Combination,
    GeneratorSet,
    LinfMorphism,
    LinfStructure,
    Word,
    abelian,
    canonical_word,
    check_structure,
    compose,
    extend_coderivation,
    identity_morphism,
    invert,
    morphisms_agree,
)
from ellsuper.oracle import koszul_sign


def g(i):
    return ("g", i)


def h(i):
    return ("h", i)


# Source letters ("g", i) have degree i, so the key index controls parity.
GRADED = GeneratorSet("toy", lambda key: key[1])
# Target letters are all even: no sign bookkeeping on the output side.
EVEN_TARGET = GeneratorSet("toy-even", lambda key: 0)
# A second all-even family used when signs should play no role at all.
EVEN_SOURCE = GeneratorSet("toy-even", lambda key: 0)


def word(*keys):
    return Word(tuple(keys))


class TestCanonicalWord:
    def test_sorted_input_is_unchanged(self):
        w, sign = canonical_word(GRADED, (g(1), g(2), g(3)))
        assert w == word(g(1), g(2), g(3))
        assert sign == 1

    def test_two_odd_letters_swap(self):
        w, sign = canonical_word(GRADED, (g(3), g(1)))
        assert w == word(g(1), g(3))
        assert sign == -1

    def test_odd_past_even_is_free(self):
        w, sign = canonical_word(GRADED, (g(2), g(1)))
        assert w == word(g(1), g(2))
        assert sign == 1

    def test_repeated_odd_letter_vanishes(self):
        w, sign = canonical_word(GRADED, (g(1), g(1)))
        assert w is None and sign == 0

    def test_repeated_even_letter_survives(self):
        w, sign = canonical_word(GRADED, (g(2), g(2)))
        assert w == word(g(2), g(2))
        assert sign == 1

    def test_three_odd_reversal(self):
        w, sign = canonical_word(GRADED, (g(5), g(3), g(1)))
        assert w == word(g(1), g(3), g(5))
        assert sign == -1

    @given(st.lists(st.integers(min_value=1, max_value=6).map(g), max_size=6))
    def test_sorted_tuple_with_sign_of_stable_sort(self, keys):
        w, sign = canonical_word(GRADED, keys)
        if any(keys.count(key) > 1 and GRADED.degree(key) % 2 for key in keys):
            assert (w, sign) == (None, 0)
            return
        assert w == tuple(sorted(keys))
        sigma = sorted(range(len(keys)), key=lambda p: keys[p])
        assert sign == koszul_sign(sigma, [GRADED.degree(key) for key in keys])


class TestCombination:
    def test_zero_coefficients_are_dropped(self):
        c = Combination({word(g(1)): Fraction(0)})
        assert not c
        assert len(c) == 0

    def test_arithmetic(self):
        a = Combination.single(word(g(1)), 2)
        b = Combination({word(g(1)): Fraction(-2), word(g(2)): Fraction(3)})
        # a + b as the linear extension of g1 -> a, g2 -> b; the g1 terms cancel
        pair = Combination({word(g(1)): Fraction(1), word(g(2)): Fraction(1)})
        assert pair.apply({word(g(1)): a, word(g(2)): b}.get) == Combination.single(word(g(2)), 3)
        assert 0 * a == Combination.zero()
        assert 2 * a == Combination.single(word(g(1)), 4)
        assert a[word(g(1))] == 2
        assert a[word(g(2))] == 0

    def test_restrict_length(self):
        c = Combination({word(g(1)): Fraction(1), word(g(1), g(2)): Fraction(5)})
        assert c.restrict_length(2) == Combination.single(word(g(1), g(2)), 5)


def two_level_morphism(coeff_one=Fraction(1)):
    """F^1(g_i) = coeff_one * h_i, F^2(g_i . g_j) = h_{i+j}, zero above."""

    def rule(k, w):
        if k == 1:
            return Combination.single(word(h(w[0][1])), coeff_one)
        if k == 2:
            return Combination.single(word(h(w[0][1] + w[1][1])))
        return Combination.zero()

    return rule


class TestMorphismExtend:
    def test_four_identical_even_letters(self):
        """Block sizes (1,1,1,1), (2,1,1) and (2,2) contribute 1, 6 and 3
        arrangements respectively; arity-3+ levels vanish."""
        F = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, two_level_morphism())
        result = F.extend(word(g(1), g(1), g(1), g(1)))
        expected = Combination(
            {
                word(h(1), h(1), h(1), h(1)): Fraction(1),
                word(h(1), h(1), h(2)): Fraction(6),
                word(h(2), h(2)): Fraction(3),
            }
        )
        assert result == expected

    def test_odd_letters_pick_up_shuffle_signs(self):
        """For three odd letters the (1,2) block split contributes the sign of
        moving the singleton to the front."""
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        result = F.extend(word(g(1), g(3), g(5)))
        expected = Combination(
            {
                word(h(1), h(3), h(5)): Fraction(1),    # singletons
                word(h(1), h(8)): Fraction(1),          # g1 | g3.g5
                word(h(3), h(6)): Fraction(-1),         # g3 | g1.g5
                word(h(4), h(5)): Fraction(1),          # g5 | g1.g3
            }
        )
        assert result == expected

    def test_extend_of_single_letter_is_level_one(self):
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism(Fraction(7)))
        assert F.extend(word(g(2))) == Combination.single(word(h(2)), 7)

    def test_rejects_non_canonical_word(self):
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        with pytest.raises(ValueError, match=r"\(\('g', 2\), \('g', 1\)\) is not canonical"):
            F.extend((g(2), g(1)))
        assert F.extend(word(g(1), g(2)))  # the sorted word is accepted

    def test_identity_morphism(self):
        ident = identity_morphism(GRADED)
        w = word(g(1), g(2), g(3))
        assert ident.extend(w) == Combination.single(w)
        assert ident.level(2, word(g(1), g(2))) == Combination.zero()


class TestCoderivationExtend:
    @staticmethod
    def nilpotent_structure():
        """l^1(g_i) = g_{i+1} for odd i, zero otherwise; higher levels zero.
        Squares to zero because the shift flips parity."""

        def rule(k, w):
            if k == 1 and w[0][1] % 2 == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            return Combination.zero()

        return LinfStructure(GRADED, rule)

    def test_two_letter_word(self):
        S = self.nilpotent_structure()
        result = extend_coderivation(S, word(g(1), g(3)))
        expected = Combination({word(g(2), g(3)): Fraction(1), word(g(1), g(4)): Fraction(-1)})
        assert result == expected

    def test_odd_output_letter_is_inserted_with_its_sign(self):
        """l^1(g_i) = g_{i+2} for odd i keeps odd letters odd.  On g1.g3 the
        term l^1(g1).g3 = g3.g3 repeats an odd letter and vanishes; g1.l^1(g3)
        takes -1 for pulling g3 to the front and -1 for g5 crossing g1."""

        def rule(k, w):
            if k == 1 and w[0][1] % 2 == 1:
                return Combination.single(word(g(w[0][1] + 2)))
            return Combination.zero()

        result = extend_coderivation(LinfStructure(GRADED, rule), word(g(1), g(3)))
        assert result == Combination.single(word(g(1), g(5)), 1)

    def test_square_vanishes(self):
        S = self.nilpotent_structure()
        first = extend_coderivation(S, word(g(1), g(3)))
        assert first.apply(lambda w: extend_coderivation(S, w)) == Combination.zero()

    def test_check_structure_passes(self):
        S = self.nilpotent_structure()
        words = [
            word(g(1)),
            word(g(1), g(3)),
            word(g(1), g(2)),
            word(g(1), g(3), g(5)),
            word(g(2), g(2), g(3)),
        ]
        report = check_structure(S, words)
        assert report.ok
        assert report.checked == len(words)

    def test_check_structure_negative_control(self):
        """An unconditional shift fails: l^1(l^1(g_1)) = g_3 != 0."""

        def bad_rule(k, w):
            if k == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            return Combination.zero()

        S = LinfStructure(GRADED, bad_rule)
        report = check_structure(S, [word(g(1))])
        assert not report.ok
        assert report.failures

    def test_abelian_structure_is_flat(self):
        S = abelian(GRADED)
        report = check_structure(S, [word(g(1), g(2)), word(g(1), g(3), g(5))])
        assert report.ok

    def test_abelian_declares_no_arities(self):
        S = abelian(GRADED)
        assert S.arities == ()
        words = [word(g(1)), word(g(1), g(2)), word(g(1), g(3), g(5)), word(g(2), g(2), g(4))]
        report = check_structure(S, words)
        assert report.ok and report.checked == len(words)
        assert extend_coderivation(S, word(g(1), g(2))) == Combination.zero()

    def test_rejects_non_canonical_word(self):
        S = self.nilpotent_structure()
        with pytest.raises(ValueError, match=r"\(\('g', 3\), \('g', 1\)\) is not canonical"):
            extend_coderivation(S, (g(3), g(1)))


class TestDeclaredArities:
    @staticmethod
    def recording_structure(arities):
        """l^1(g_i) = g_{i+1} and l^2(g_i, g_j) = g_{i+j}; records each arity asked."""
        asked = []

        def rule(k, w):
            asked.append(k)
            if k == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            if k == 2:
                return Combination.single(word(g(w[0][1] + w[1][1])))
            return Combination.zero()

        return LinfStructure(GRADED, rule, arities=arities), asked

    def test_default_is_every_arity(self):
        S, asked = self.recording_structure(None)
        assert S.arities is None
        extend_coderivation(S, word(g(2), g(4), g(6)))
        assert sorted(set(asked)) == [1, 2, 3]

    def test_only_declared_arities_are_evaluated(self):
        S, asked = self.recording_structure((2, 1, 2))
        assert S.arities == (1, 2)
        full, _ = self.recording_structure(None)
        w = word(g(2), g(4), g(6))
        assert extend_coderivation(S, w) == extend_coderivation(full, w)
        assert sorted(set(asked)) == [1, 2]

    def test_arities_above_the_word_length_are_skipped(self):
        S, asked = self.recording_structure((1, 5))
        extend_coderivation(S, word(g(2), g(4)))
        assert asked == [1, 1]

    @pytest.mark.parametrize("arities", [(0, 1), (-1,), (1.0,)])
    def test_rejects_non_positive_arities(self, arities):
        with pytest.raises(ValueError):
            LinfStructure(GRADED, lambda k, w: Combination.zero(), arities=arities)


class TestArityValidation:
    def test_structure_rejects_wrong_arity(self):
        S = abelian(GRADED)
        with pytest.raises(ValueError):
            S.level(2, word(g(1)))

    def test_morphism_levels_must_be_single_generators(self):
        def bad_rule(k, w):
            return Combination.single(word(h(1), h(2)))

        F = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, bad_rule)
        with pytest.raises(AssertionError):
            F.extend(word(g(1), g(2)))


class TestCompose:
    def test_identity_is_neutral(self):
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism())
        # Rebuild with matching labels so h-letters live in the same family.
        words = [word(g(1)), word(g(1), g(2)), word(g(1), g(2), g(2))]
        left = compose(identity_morphism(EVEN_SOURCE), F)
        right = compose(F, identity_morphism(EVEN_SOURCE))
        assert morphisms_agree(left, F, words).ok
        assert morphisms_agree(right, F, words).ok

    def test_two_step_composition_level_two(self):
        """(G.F)^2(w) = G^1(F^2(w)) + G^2(F^1 . F^1 applied to w)."""
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(2)))
        G = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(3)))

        w = word(g(1), g(2))
        got = compose(G, F).level(2, w)
        # F-hat(w) = F^2(w) + F^1(g1).F^1(g2) = h3 + 4 h1.h2
        # G on that: G^1(h3) = 3 h'3; G^2(h1.h2) = h'3 -> (3 + 4) h3.
        assert got == Combination.single(word(h(3)), 7)

    def test_incompatible_labels_rejected(self):
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        G = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        with pytest.raises(ValueError):
            compose(G, F)


class TestInvert:
    @staticmethod
    def morphism_and_preimage():
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(2)))
        return F, (lambda key: g(key[1]))

    def test_level_one_inverts_diagonal(self):
        F, pre = self.morphism_and_preimage()
        H = invert(F, preimage=pre)
        assert H.level(1, word(h(4))) == Combination.single(word(g(4)), Fraction(1, 2))

    def test_level_two_formula(self):
        """H^2(h1.h2) = -(1/c) H^1(F^2(g1.g2)) with c the coefficient of the
        all-singletons term of F-hat on the preimage word."""
        F, pre = self.morphism_and_preimage()
        H = invert(F, preimage=pre)
        # F-hat(g1.g2) = h3 + 4 h1.h2, so c = 4 and
        # H^2(h1.h2) = -(1/4) H^1(h3) = -(1/8) g3.
        assert H.level(2, word(h(1), h(2))) == Combination.single(
            word(g(3)), Fraction(-1, 8)
        )

    def test_left_and_right_inverse(self):
        F, pre = self.morphism_and_preimage()
        H = invert(F, preimage=pre)
        ident = identity_morphism(EVEN_SOURCE)
        g_words = [
            word(g(1)),
            word(g(1), g(2)),
            word(g(2), g(2)),
            word(g(1), g(2), g(4)),
            word(g(1), g(1), g(2), g(3)),
        ]
        h_words = [Word(tuple(h(k[1]) for k in w)) for w in g_words]
        assert morphisms_agree(compose(H, F), ident, g_words).ok
        assert morphisms_agree(compose(F, H), ident, h_words).ok


class TestMorphismsAgree:
    def test_reports_disagreement(self):
        F = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, two_level_morphism(Fraction(1)))
        G = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, two_level_morphism(Fraction(5)))
        report = morphisms_agree(F, G, [word(g(1))])
        assert not report.ok
        assert report.failures
