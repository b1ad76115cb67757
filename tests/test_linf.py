"""Tests for the L-infinity engine on small hand-checked examples."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import exact, linf
from ellsuper.exact import CACHE_CAP
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
    letter_map,
    morphisms_agree,
)
from ellsuper.oracle import koszul_sign, shuffles


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
        assert 0 * a == Combination()
        assert 2 * a == Combination.single(word(g(1)), 4)
        assert a[word(g(1))] == 2
        assert a[word(g(2))] == 0

    def test_restrict_length(self):
        c = Combination({word(g(1)): Fraction(1), word(g(1), g(2)): Fraction(5)})
        assert c.restrict_length(2) == Combination.single(word(g(1), g(2)), 5)

    def test_the_engine_returns_one_read_only_zero(self):
        a = Combination.single(word(g(1)), 2)
        zero = 0 * a
        assert zero is a.restrict_length(2) is zero.apply(lambda u: a)
        assert zero is extend_coderivation(abelian(GRADED), word(g(1)))
        assert not zero and zero == Combination() and list(zero.terms()) == []
        with pytest.raises(TypeError):
            zero._terms[word(g(1))] = (1, 1)

    def test_apply_drops_a_cancelled_word_and_appends_it_when_it_returns(self):
        """A word whose sum reaches 0 leaves the combination; a later term puts
        it back at the end.  Sums over unequal denominators meet on the way."""
        A, B, C = word(g(1)), word(g(2)), word(g(3))
        images = {
            word(h(1)): Combination({A: Fraction(1, 2), B: Fraction(1)}),
            word(h(2)): Combination.single(A, Fraction(-1, 3)),
            word(h(3)): Combination({A: Fraction(-1, 6), C: Fraction(2, 5)}),
            word(h(4)): Combination.single(A, Fraction(3, 4)),
        }
        source = Combination({u: Fraction(1) for u in images})
        assert list(source.apply(images.get).terms()) == [
            (B, Fraction(1)),
            (C, Fraction(2, 5)),
            (A, Fraction(3, 4)),
        ]


# nonzero rationals over unequal denominators, so sums cancel and meet over an lcm
COEFFICIENTS = st.builds(
    Fraction,
    st.integers(min_value=-3, max_value=3).filter(bool),
    st.sampled_from([1, 2, 3, 4, 6]),
)


def reference_apply(source, images):
    """Σ_u c_u · images[u] on Fractions in a plain dict: a word whose sum
    reaches 0 is popped, and a later term re-appends it at the end."""
    sums = {}
    for u, c in source.items():
        for v, d in images[u].items():
            total = sums.get(v, 0) + c * d
            if total:
                sums[v] = total
            else:
                del sums[v]
    return sums


class TestSumsAgainstAReference:
    @given(
        source=st.dictionaries(st.integers(min_value=1, max_value=4), COEFFICIENTS, min_size=1),
        images=st.lists(
            st.dictionaries(st.integers(min_value=1, max_value=3), COEFFICIENTS), min_size=4, max_size=4
        ),
        scalar=COEFFICIENTS,
    )
    @settings(deadline=None, max_examples=300)
    def test_apply_equals_a_fraction_sum(self, source, images, scalar):
        """The same reduced pairs, with positive denominators, in the same term
        order as the plain sum; a scalar multiple scales each pair."""
        source = {word(h(u)): c for u, c in source.items()}
        images = {word(h(u)): {word(g(v)): d for v, d in image.items()} for u, image in enumerate(images, 1)}
        expected = reference_apply(source, images)
        total = Combination(source).apply(lambda u: Combination(images[u]))
        pairs = [(v, (f.numerator, f.denominator)) for v, f in expected.items()]
        assert list(total._terms.items()) == pairs
        assert list(total.terms()) == list(expected.items())
        scaled = total * scalar
        assert list(scaled._terms.items()) == [
            (v, ((f * scalar).numerator, (f * scalar).denominator)) for v, f in expected.items()
        ]


def assert_fraction_coefficients(comb, probes=()):
    """Every public coefficient of ``comb`` is exactly a ``Fraction``."""
    for w, c in comb.terms():
        assert type(c) is Fraction, (w, c)
        assert type(comb[w]) is Fraction, w
    for w in probes:
        assert type(comb[w]) is Fraction, w


class TestFractionCoefficients:
    """Sums run on integer pairs inside the engine; what comes out is a Fraction."""

    def test_apply_over_integer_and_unequal_denominators(self):
        images = {
            word(g(1)): Combination({word(h(1)): Fraction(1, 2), word(h(2)): Fraction(1, 3)}),
            word(g(2)): Combination({word(h(1)): Fraction(1, 2), word(h(2)): Fraction(2, 5)}),
        }
        total = Combination({word(g(1)): Fraction(1), word(g(2)): Fraction(1)}).apply(images.get)
        assert total[word(h(1))] == 1 and total[word(h(2))] == Fraction(11, 15)
        assert_fraction_coefficients(total, probes=[word(h(9))])

    def test_extensions_compose_and_invert(self):
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(2)))
        G = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(1, 3)))
        H = invert(F, preimage=lambda key: g(key[1]))
        w = word(g(1), g(2), g(3))
        for value in (
            F.extend(w),
            compose(G, F).level(w),
            compose(G, F).extend(w),
            H.level(word(h(1), h(2), h(3))),
            H.extend(word(h(1), h(2), h(3))),
        ):
            assert value
            assert_fraction_coefficients(value, probes=[word(h(7))])
        # (G.F)^2(g1.g2) = G^1(F^2) + G^2(F^1.F^1) = 1/3 + 4, an integer plus a third
        assert compose(G, F).level(word(g(1), g(2)))[word(h(3))] == Fraction(13, 3)

    def test_coderivation(self):
        def rule(w):
            k = len(w)
            if k == 1 and w[0][1] % 2 == 1:
                return Combination.single(word(g(w[0][1] + 1)), Fraction(1, 2))
            if k == 2:
                return Combination.single(word(g(w[0][1] + w[1][1])), 3)
            return Combination()

        value = extend_coderivation(LinfStructure(GRADED, rule), word(g(1), g(2), g(3)))
        assert value
        assert_fraction_coefficients(value, probes=[word(g(9))])

    def test_equal_values_are_equal_pairs(self):
        """2/4 stored directly equals 1/3 + 1/6 summed over unequal denominators."""
        w = word(h(1))
        images = {word(g(1)): Combination.single(w, Fraction(1, 3)), word(g(2)): Combination.single(w, Fraction(1, 6))}
        total = Combination({word(g(1)): 1, word(g(2)): 1}).apply(images.get)
        assert Combination({w: Fraction(2, 4)}) == total
        assert total._terms == {w: (1, 2)}
        assert total != Combination({w: Fraction(1, 3)})

    def test_negative_coefficients_keep_positive_denominators(self):
        A, B = word(g(1)), word(g(2))
        values = [
            Combination({A: Fraction(-3, 6), B: -4}),
            Combination.single(A, Fraction(2, -6)),
            Combination({A: Fraction(1, 2)}) * Fraction(-2, 3),
            -1 * Combination({A: Fraction(5, 7)}),
            Combination({A: 1, B: 1}).apply(
                {A: Combination.single(A, Fraction(-1, 4)), B: Combination.single(A, Fraction(-1, 12))}.get
            ),
        ]
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(-2, 3)))
        H = invert(F, preimage=lambda key: g(key[1]))
        values += [H.level(word(h(1))), H.level(word(h(1), h(2)))]
        for value in values:
            assert all(den > 0 for _, den in value._terms.values()), value._terms
        assert values[0][A] == Fraction(-1, 2) and values[0][B] == -4
        assert values[4][A] == Fraction(-1, 3)
        # H^1 inverts -2/3; H^2(h1.h2) = -(9/4) H^1(F^2(g1.g2)) = -(9/4)(-3/2) g3
        assert values[5] == Combination.single(A, Fraction(-3, 2))
        assert values[6] == Combination.single(word(g(3)), Fraction(27, 8))

    def test_scalar_multiplication(self):
        c = Combination({word(g(1)): Fraction(1, 2), word(g(2)): Fraction(-2, 3)})
        assert 3 * c == c * 3 == Combination({word(g(1)): Fraction(3, 2), word(g(2)): -2})
        assert c * Fraction(3, 4) == Combination({word(g(1)): Fraction(3, 8), word(g(2)): Fraction(-1, 2)})
        assert c * 0 == Combination() and not c * Fraction(0)
        assert_fraction_coefficients(3 * c)
        assert_fraction_coefficients(c * Fraction(3, 4))

    def test_restrict_length_keeps_coefficients(self):
        c = Combination({word(g(1)): Fraction(1, 2), word(g(1), g(2)): Fraction(-5, 3), word(g(2), g(3)): 4})
        short = c.restrict_length(2)
        assert short == Combination({word(g(1), g(2)): Fraction(-5, 3), word(g(2), g(3)): 4})
        assert_fraction_coefficients(short)
        assert not c.restrict_length(3)

    def test_missing_word_is_a_zero_fraction(self):
        c = Combination.single(word(g(1)), 3)
        missing = c[word(g(2))]
        assert missing == 0 and type(missing) is Fraction
        assert type(Combination()[word(g(1))]) is Fraction

    def test_repr_is_unchanged(self):
        c = Combination({
            word(g(2)): Fraction(-1, 3),
            word(g(1), g(2)): 2,
            word(g(1)): Fraction(5, 4),
            word(g(3)): Fraction(6, 4),
        })
        # printed by the Fraction-valued Combination this one replaced
        assert repr(c) == "5/4*(('g', 1),) + 2*(('g', 1), ('g', 2)) + -1/3*(('g', 2),) + 3/2*(('g', 3),)"
        assert repr(Combination()) == "0"

    def test_floats_are_rejected(self):
        """No float enters a combination, a float zero included, and no bool,
        which would otherwise read as the int it equals (1*w, 0, or c itself)."""
        c = Combination.single(word(g(1)), Fraction(1, 2))
        for build in (
            lambda: Combination({word(g(1)): 0.5}),
            lambda: Combination({word(g(1)): 0.0}),
            lambda: Combination.single(word(g(1)), 0.1),
            lambda: c * 0.5,
            lambda: 0.5 * c,
            lambda: c * 0.0,
            lambda: 0.0 * c,
        ):
            with pytest.raises(TypeError, match="floats are not accepted"):
                build()
        for build in (
            lambda: Combination({word(g(1)): True}),
            lambda: Combination({word(g(1)): False}),
            lambda: Combination.single(word(g(1)), False),
            lambda: c * True,
            lambda: True * c,
            lambda: c * False,
            lambda: False * c,
        ):
            with pytest.raises(TypeError, match="bools are not accepted"):
                build()

    def test_integer_inputs_come_out_as_fractions(self):
        for value in (
            Combination.single(word(g(1))),
            Combination.single(word(g(1)), -7),
            Combination({word(g(1)): 2, word(g(2)): Fraction(4, 2)}),
        ):
            assert value
            assert_fraction_coefficients(value)


class TestParityMemo:
    def test_memo_stays_within_the_cache_cap(self):
        gens = GeneratorSet("toy", lambda key: key[1])
        for i in range(CACHE_CAP + 1):
            assert gens.parity(g(i)) == i % 2
        assert len(gens._parity_memo) <= CACHE_CAP
        assert gens.parity(g(CACHE_CAP)) == CACHE_CAP % 2

    def test_unknown_keys_raise_on_every_call(self):
        calls = []

        def degree(key):
            calls.append(key)
            if key[1] < 0:
                raise ValueError(f"unknown generator key {key!r}")
            return key[1]

        gens = GeneratorSet("toy", degree)
        for _ in range(2):
            with pytest.raises(ValueError):
                gens.parity(g(-1))
        assert calls == [g(-1), g(-1)]
        assert g(-1) not in gens._parity_memo
        gens.parity(g(3))
        gens.parity(g(3))
        assert calls[2:] == [g(3)]


class TestLevelMemos:
    """The level and extension memos of structures and morphisms are bounded."""

    def test_structure_memo_stays_within_the_cache_cap(self):
        S = LinfStructure(EVEN_SOURCE, Combination.single)
        for i in range(CACHE_CAP + 1):
            assert S.level(word(g(i))) == Combination.single(word(g(i)))
        assert len(S._memo) <= CACHE_CAP
        assert S.level(word(g(CACHE_CAP))) == Combination.single(word(g(CACHE_CAP)))

    def test_morphism_memos_stay_within_the_cache_cap(self):
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(2)))
        for i in range(CACHE_CAP + 1):
            assert F.level(word(g(i))) == Combination.single(word(h(i)), 2)
            assert F.extend(word(g(i))) == Combination.single(word(h(i)), 2)
        assert len(F._level_memo) <= CACHE_CAP
        assert len(F._extend_memo) <= CACHE_CAP
        # an evicted word is recomputed to the same value
        assert F.extend(word(g(0), g(1))) == Combination({word(h(0), h(1)): 4, word(h(1)): 1})

    def test_memo_key_shares_one_entry_per_key(self):
        calls = []

        def rule(key):
            calls.append(key)
            return Combination.single(word(h(key[0])))

        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, rule, memo_key=lambda w: (sum(key[1] for key in w), len(w)))
        assert F.level(word(g(1), g(3))) == F.level(word(g(2), g(2))) == Combination.single(word(h(4)))
        assert F.level(word(g(4))) == Combination.single(word(h(4)))
        assert calls == [(4, 2), (4, 1)]
        assert len(F._level_memo) == 2


def two_level_morphism(coeff_one=Fraction(1)):
    """F^1(g_i) = coeff_one * h_i, F^2(g_i . g_j) = h_{i+j}, zero above."""

    def rule(w):
        k = len(w)
        if k == 1:
            return Combination.single(word(h(w[0][1])), coeff_one)
        if k == 2:
            return Combination.single(word(h(w[0][1] + w[1][1])))
        return Combination()

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
        assert ident.level(word(g(1), g(2))) == Combination()


class TestBlockPlans:
    """The word-independent head/rest plans that both extensions iterate."""

    def test_plans_split_the_shuffles_in_their_order(self):
        for k in range(1, 9):
            for i in range(k + 1):
                plan = linf._BLOCK_PLANS[k, i]
                assert [(head, rest) for head, _, rest, _ in plan] == [
                    (sigma[:i], sigma[i:]) for sigma in shuffles(i, k - i)
                ]
                assert linf._BLOCK_PLANS[k, i] is plan

    def test_getters_return_the_block_words_as_tuples(self):
        """Also for one-letter and empty blocks (i = 0, 1, k - 1, k)."""
        for k in range(1, 9):
            w = tuple(g(10 + p) for p in range(k))
            for i in range(k + 1):
                for head, get_head, rest, get_rest in linf._BLOCK_PLANS[k, i]:
                    assert get_head(w) == tuple(w[p] for p in head)
                    assert get_rest(w) == tuple(w[p] for p in rest)
                    assert type(get_head(w)) is tuple and type(get_rest(w)) is tuple

    def test_blocks_holding_the_first_position_come_first(self):
        """The cofunctor reads the leading blocks: 0 and the (i - 1, k - i)-shuffles of 1..k-1."""
        for k in range(1, 9):
            for i in range(1, k + 1):
                plan = linf._BLOCK_PLANS[k, i]
                first = comb(k - 1, i - 1)
                assert [(head, rest) for head, _, rest, _ in plan[:first]] == [
                    ((0,) + tuple(p + 1 for p in sigma[:i - 1]), tuple(p + 1 for p in sigma[i - 1:]))
                    for sigma in shuffles(i - 1, k - i)
                ]
                assert all(head[0] for head, _, _, _ in plan[first:])

    def test_plan_memo_stays_within_the_cache_cap(self, monkeypatch):
        monkeypatch.setattr(exact, "CACHE_CAP", 5)
        monkeypatch.setattr(linf, "_BLOCK_PLANS", exact.Memo(linf._block_plan))
        for k in range(1, 7):
            for i in range(k + 1):
                assert len(linf._BLOCK_PLANS[k, i]) == comb(k, i)
                assert len(linf._BLOCK_PLANS) <= 5


class TestCoderivationExtend:
    @staticmethod
    def nilpotent_structure():
        """l^1(g_i) = g_{i+1} for odd i, zero otherwise; higher levels zero.
        Squares to zero because the shift flips parity."""

        def rule(w):
            if len(w) == 1 and w[0][1] % 2 == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            return Combination()

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

        def rule(w):
            if len(w) == 1 and w[0][1] % 2 == 1:
                return Combination.single(word(g(w[0][1] + 2)))
            return Combination()

        result = extend_coderivation(LinfStructure(GRADED, rule), word(g(1), g(3)))
        assert result == Combination.single(word(g(1), g(5)), 1)

    def test_square_vanishes(self):
        S = self.nilpotent_structure()
        first = extend_coderivation(S, word(g(1), g(3)))
        assert first.apply(lambda w: extend_coderivation(S, w)) == Combination()

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

        def bad_rule(w):
            if len(w) == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            return Combination()

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
        assert extend_coderivation(S, word(g(1), g(2))) == Combination()

    def test_rejects_non_canonical_word(self):
        S = self.nilpotent_structure()
        with pytest.raises(ValueError, match=r"\(\('g', 3\), \('g', 1\)\) is not canonical"):
            extend_coderivation(S, (g(3), g(1)))


class TestDeclaredArities:
    @staticmethod
    def recording_structure(arities):
        """l^1(g_i) = g_{i+1} and l^2(g_i, g_j) = g_{i+j}; records each arity asked."""
        asked = []

        def rule(w):
            k = len(w)
            asked.append(k)
            if k == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            if k == 2:
                return Combination.single(word(g(w[0][1] + w[1][1])))
            return Combination()

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
            LinfStructure(GRADED, lambda w: Combination(), arities=arities)


class TestDeclaredHeadSupport:
    @staticmethod
    def recording_structure(odd_heads):
        """l^1(g_i) = g_{i+1} on odd i and l^2(g_i, g_j) = g_{i+j} when i or j is odd; records each head asked."""
        asked = []

        def rule(w):
            k = len(w)
            asked.append(w)
            if not any(key[1] % 2 for key in w):
                return Combination()
            if k == 1:
                return Combination.single(word(g(w[0][1] + 1)))
            if k == 2:
                return Combination.single(word(g(w[0][1] + w[1][1])))
            return Combination()

        return LinfStructure(GRADED, rule, odd_heads=odd_heads), asked

    def test_default_asks_every_head(self):
        S, asked = self.recording_structure(False)
        assert S.odd_heads is False
        extend_coderivation(S, word(g(1), g(2), g(4)))
        assert word(g(2), g(4)) in asked

    def test_only_heads_holding_an_odd_letter_are_evaluated(self):
        S, asked = self.recording_structure(True)
        full, _ = self.recording_structure(False)
        words = [word(g(1), g(2), g(4)), word(g(1), g(3), g(4), g(6)), word(g(2), g(2), g(3))]
        for w in words:
            assert extend_coderivation(S, w) == extend_coderivation(full, w)
        assert check_structure(S, words).checked == len(words)
        assert asked and all(any(key[1] % 2 for key in head) for head in asked)

    def test_a_word_with_no_odd_letter_is_zero_at_once(self):
        S, asked = self.recording_structure(True)
        value = extend_coderivation(S, word(g(2), g(4), g(4)))
        assert value == Combination() and not value
        assert asked == []


class TestWordsAreCheckedOnce:
    """Every public entry rejects an unsorted word; the words the engine builds are not checked again."""

    UNSORTED = (g(3), g(1))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda w: extend_coderivation(abelian(GRADED), w),
            lambda w: LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism()).extend(w),
            lambda w: check_structure(TestCoderivationExtend.nilpotent_structure(), [w]),
            lambda w: compose(identity_morphism(GRADED), identity_morphism(GRADED)).level(w),
            lambda w: compose(identity_morphism(GRADED), identity_morphism(GRADED)).extend(w),
            lambda w: invert(identity_morphism(GRADED), lambda key: key).level(w),
        ],
        ids=[
            "extend_coderivation",
            "LinfMorphism.extend",
            "check_structure",
            "composed level",
            "composed extend",
            "inverted level",
        ],
    )
    def test_an_unsorted_word_raises(self, entry):
        with pytest.raises(ValueError, match=r"\(\('g', 3\), \('g', 1\)\) is not canonical"):
            entry(self.UNSORTED)

    def test_the_engine_checks_only_the_words_it_is_given(self, monkeypatch):
        checked = []
        check_word = linf._check_word
        monkeypatch.setattr(linf, "_check_word", lambda w: checked.append(w) or check_word(w))
        w = word(g(1), g(2), g(3), g(4))
        assert check_structure(TestCoderivationExtend.nilpotent_structure(), [w]).ok
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        assert F.extend(w)
        assert F.extend(w)  # a memo hit is not checked again
        assert checked == [w, w]


class TestArityValidation:
    def test_morphism_levels_must_be_single_generators(self):
        def bad_rule(w):
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
        got = compose(G, F).level(w)
        # F-hat(w) = F^2(w) + F^1(g1).F^1(g2) = h3 + 4 h1.h2
        # G on that: G^1(h3) = 3 h'3; G^2(h1.h2) = h'3 -> (3 + 4) h3.
        assert got == Combination.single(word(h(3)), 7)

    def test_incompatible_labels_rejected(self):
        F = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        G = LinfMorphism(GRADED, EVEN_TARGET, two_level_morphism())
        with pytest.raises(ValueError):
            compose(G, F)


def graded_outer():
    """A graded morphism on GRADED: F^1(g_i) = h_i / 2, F^2(g_i g_j) = ((i - j)/3 + 1) h_{i+j}
    and F^3(g_i g_j g_l) = (2/5) h_{i+j+l}; h_i has degree i, so the levels keep parity.

    F^2 is nonzero on a word that repeats an odd letter, which is 0 in Sym."""

    def rule(w):
        indices = [key[1] for key in w]
        coefficient = {1: Fraction(1, 2), 2: Fraction(indices[0] - indices[-1], 3) + 1, 3: Fraction(2, 5)}
        if len(w) > 3:
            return Combination()
        return Combination.single(word(h(sum(indices))), coefficient[len(w)])

    return LinfMorphism(GRADED, GRADED, rule)


def block_recursion_letter_map(source, target, letter):
    """The reference for :func:`letter_map`: a plain morphism with the same arity-1 rule."""
    rule = lambda w: Combination.single((letter(w[0]),)) if len(w) == 1 else Combination()  # noqa: E731
    return LinfMorphism(source, target, rule)


class TestLetterMap:
    """A composite through a letter map reads its outer factor at the image word."""

    LETTERS = {"identity": lambda key: key, "shift": lambda key: g(key[1] + 2)}

    @given(
        indices=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        letters=st.sampled_from(sorted(LETTERS)),
    )
    @settings(deadline=None, max_examples=150)
    def test_composite_equals_the_block_recursion_composite(self, indices, letters):
        """Levels, extensions and term order agree on every sorted word over
        GRADED, repeated even and odd letters included; a repeated odd letter
        gives 0 on both sides."""
        w = word(*(g(i) for i in sorted(indices)))
        letter = self.LETTERS[letters]
        outer = graded_outer()
        fast = compose(outer, letter_map(GRADED, GRADED, letter))
        reference = compose(outer, block_recursion_letter_map(GRADED, GRADED, letter))
        for get in (lambda m: m.level(w), lambda m: m.extend(w)):
            assert list(get(fast).terms()) == list(get(reference).terms())
        if any(a == b and a[1] % 2 for a, b in zip(w, w[1:])):
            assert not fast.level(w) and not fast.extend(w)

    def test_a_repeated_odd_letter_composes_to_zero(self):
        F = graded_outer()
        assert F.extend(word(g(1), g(1)))  # F^2(g1.g1) is nonzero
        composite = compose(F, identity_morphism(GRADED))
        assert composite.extend(word(g(1), g(1))) == Combination()
        assert composite.level(word(g(1), g(1), g(2))) == Combination()
        assert composite.extend(word(g(2), g(2))) == F.extend(word(g(2), g(2)))  # an even repeat survives

    def test_the_composite_reads_no_memo_of_the_letter_map(self):
        inner = letter_map(GRADED, GRADED, self.LETTERS["shift"])
        composite = compose(graded_outer(), inner)
        w = word(g(1), g(2), g(2))
        assert composite.extend(w) and composite.level(w)
        assert not inner._level_memo and not inner._extend_memo
        assert sorted(inner._letters) == [g(1), g(2)]

    def test_a_key_outside_the_source_raises(self):
        """A letter memo miss reads the source's degree rule, so a key that is
        no generator raises and is never stored, through the map and through
        a composite."""

        def degree(key):
            if key[0] != "g" or key[1].__class__ is not int:
                raise ValueError(f"unknown generator key {key!r}")
            return key[1]

        strict = GeneratorSet("toy", degree)
        identity = identity_morphism(strict)
        composite = compose(graded_outer(), identity)
        calls = [(identity.level, word(h(1)))]
        calls += [(get, bad) for get in (composite.level, composite.extend) for bad in (word(h(1)), word(g(1), h(2)))]
        for get, bad in calls:
            with pytest.raises(ValueError, match="unknown generator key"):
                get(bad)
        assert h(1) not in identity._letters and h(2) not in identity._letters

    def test_a_broken_order_promise_raises_on_a_miss(self):
        reverse = letter_map(GRADED, GRADED, lambda key: g(10 - key[1]))  # keeps parity, reverses order
        composite = compose(graded_outer(), reverse)
        for get in (composite.level, composite.extend):
            with pytest.raises(ValueError, match="breaks the key order"):
                get(word(g(1), g(3)))


class TestInvert:
    @staticmethod
    def morphism_and_preimage():
        F = LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, two_level_morphism(Fraction(2)))
        return F, (lambda key: g(key[1]))

    def test_level_one_inverts_diagonal(self):
        F, pre = self.morphism_and_preimage()
        H = invert(F, preimage=pre)
        assert H.level(word(h(4))) == Combination.single(word(g(4)), Fraction(1, 2))

    def test_level_two_formula(self):
        """H^2(h1.h2) = -(1/c) H^1(F^2(g1.g2)) with c the coefficient of the
        all-singletons term of F-hat on the preimage word."""
        F, pre = self.morphism_and_preimage()
        H = invert(F, preimage=pre)
        # F-hat(g1.g2) = h3 + 4 h1.h2, so c = 4 and
        # H^2(h1.h2) = -(1/4) H^1(h3) = -(1/8) g3.
        assert H.level(word(h(1), h(2))) == Combination.single(
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

    @staticmethod
    def table_morphism(levels):
        """F^k(w) = levels[w], zero on every other word."""
        return LinfMorphism(EVEN_SOURCE, EVEN_SOURCE, lambda w: levels.get(w, Combination()))

    def test_level_one_rejects_a_non_diagonal_first_level(self):
        F = self.table_morphism({word(g(1)): Combination({word(h(1)): 1, word(h(2)): 1})})
        H = invert(F, preimage=lambda key: g(key[1]))
        with pytest.raises(ValueError, match=r"phi\^1 is not diagonal on the letters of \(\('h', 1\),\)"):
            H.level(word(h(1)))

    @pytest.mark.parametrize(
        "levels",
        [
            # F̂(g1.g2) = F^1(g1) F^1(g2) = h1.h2 + h2.h2
            {word(g(1)): Combination({word(h(1)): 1, word(h(2)): 1}), word(g(2)): Combination.single(word(h(2)))},
            # F^1(g2) = 0, so F̂(g1.g2) = F^2(g1.g2) = h3, and H^1(h3) is defined
            {
                word(g(1)): Combination.single(word(h(1))),
                word(g(3)): Combination.single(word(h(3))),
                word(g(1), g(2)): Combination.single(word(h(3))),
            },
        ],
        ids=["two length-k terms", "no length-k term"],
    )
    def test_level_k_rejects_an_expansion_without_one_diagonal_term(self, levels):
        H = invert(self.table_morphism(levels), preimage=lambda key: g(key[1]))
        with pytest.raises(ValueError, match=r"phi\^1 is not diagonal on the letters of \(\('h', 1\), \('h', 2\)\)"):
            H.level(word(h(1), h(2)))

    def test_a_broken_order_promise_raises(self):
        """The preimage promises to keep key order, as a letter map does: one
        that keeps parity but reverses the order raises, on a word of two
        letters; a single letter has no order to break."""
        reverse = lambda w: Combination.single(word(h(10 - w[0][1])), 2) if len(w) == 1 else Combination()  # noqa: E731
        H = invert(LinfMorphism(GRADED, GRADED, reverse), preimage=lambda key: g(10 - key[1]))
        assert H.level(word(h(3))) == Combination.single(word(g(7)), Fraction(1, 2))
        with pytest.raises(ValueError, match=r"preimage breaks the key order on \(\('h', 1\), \('h', 3\)\)"):
            H.level(word(h(1), h(3)))
        with pytest.raises(ValueError, match="is not canonical"):  # the word is at fault, not the preimage
            H.level(word(h(3), h(1)))

    def test_a_repeated_odd_preimage_letter_vanishes(self):
        """Two odd letters with one preimage: the preimage word is 0, and the
        rule says so rather than inverting it."""
        F = LinfMorphism(GRADED, GRADED, two_level_morphism(Fraction(2)))
        H = invert(F, preimage=lambda key: g(1 if key[1] in (1, 3) else key[1]))
        with pytest.raises(ValueError, match=r"vanishes \(repeated odd letter\)"):
            H.level(word(h(1), h(3)))
        with pytest.raises(ValueError, match=r"vanishes \(repeated odd letter\)"):
            H.level(word(h(1), h(1)))
        assert H.level(word(h(2), h(2))) == Combination.single(word(g(4)), Fraction(-1, 8))

    @staticmethod
    def two_pass_inverse(morphism, preimage):
        """The inverse by its defining formula: restrict F̂(w) to length k for
        the diagonal, then apply H to the whole of F̂(w), length-k terms as 0."""

        def rule(u_word):
            k = len(u_word)
            if k == 1:
                w = (preimage(u_word[0]),)
                return Combination.single(w, 1 / morphism.level(w)[u_word])
            w, _ = canonical_word(morphism.source, [preimage(key) for key in u_word])
            expansion = morphism.extend(w)
            diagonal = expansion.restrict_length(k)
            assert len(diagonal) == 1 and diagonal[u_word]
            lower = expansion.apply(lambda u2: Combination() if len(u2) == k else inverse.level(u2))
            return lower * (-1 / diagonal[u_word])

        inverse = LinfMorphism(morphism.target, morphism.source, rule)
        return inverse

    @given(
        genset=st.sampled_from([EVEN_SOURCE, GRADED]),
        coeff=st.sampled_from([Fraction(1), Fraction(2), Fraction(-3, 2)]),
        three=st.sampled_from([Fraction(0), Fraction(5, 7)]),
        indices=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    )
    @settings(deadline=None, max_examples=80)
    def test_one_pass_rule_equals_the_two_pass_formula(self, genset, coeff, three, indices):
        """F^1 = coeff·id, F^2(g_i.g_j) = h_{i+j} and F^3(g_i.g_j.g_l) = three·h_{i+j+l},
        on even letters or on letters of parity i: equal levels, terms in the same order."""

        def rule(w):
            if len(w) == 3:
                return Combination.single(word(h(sum(key[1] for key in w))), three)
            return two_level_morphism(coeff)(w)

        F = LinfMorphism(genset, genset, rule)
        u_word, _ = canonical_word(genset, [h(i) for i in indices])
        if u_word is None:  # a repeated odd letter
            return
        one_pass = invert(F, lambda key: g(key[1])).level(u_word)
        two_pass = self.two_pass_inverse(F, lambda key: g(key[1])).level(u_word)
        assert list(one_pass.terms()) == list(two_pass.terms())


class TestMorphismsAgree:
    def test_reports_disagreement(self):
        F = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, two_level_morphism(Fraction(1)))
        G = LinfMorphism(EVEN_SOURCE, EVEN_TARGET, two_level_morphism(Fraction(5)))
        report = morphisms_agree(F, G, [word(g(1))])
        assert not report.ok
        assert report.failures
