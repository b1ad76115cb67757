"""Tests for the fully-rounded algebra and its augmentation identities."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import sft
from ellsuper.exact import CACHE_CAP, Memo
from ellsuper.linf import (
    Combination,
    LinfMorphism,
    LinfStructure,
    Word,
    canonical_word,
    extend_coderivation,
    identity_morphism,
)
from ellsuper.orbits import Side, SpectrumParams, gamma, normalized
from ellsuper.report import Report
from ellsuper.rounding import (
    _two_alpha_words,
    _v_rule,
    _window_words,
    psi_factorization,
    structure_window_check,
    v_algebra,
    verify_aug,
)
from ellsuper.sft import (
    alpha_key,
    beta_key,
    ca_generators,
    co_generators,
    epsilon,
    eta,
    o_key,
    psi_map,
    q_key,
    tilde_epsilon,
    v_generators,
)


def w(*keys):
    return Word(tuple(keys))


THREE_AXES = SpectrumParams([1, Fraction(3, 2), Fraction(7, 3)])


class TestGenerators:
    def test_degrees(self):
        gens = v_generators()
        assert gens.degree(alpha_key(1, 1)) == -5
        assert gens.degree(alpha_key(2, 1)) == -7
        assert gens.degree(beta_key(0, 1)) == -4
        assert gens.degree(beta_key(2, 2)) == -10

    def test_parities(self):
        gens = v_generators()
        assert gens.degree(alpha_key(1, 2)) % 2 == 1
        assert gens.degree(beta_key(1, 2)) % 2 == 0

    def test_one_set_per_family(self):
        """Every structure and morphism of a family shares its one generator set."""
        ca, co, v = ca_generators(), co_generators(), v_generators()
        assert ca_generators() is ca and co_generators() is co and v_generators() is v
        for a, side in (("13/2", Side.MINUS), ("13/2", Side.PLUS), (3, Side.CANONICAL), ("29/4", Side.PLUS)):
            params = normalized(a, side)
            assert epsilon(params).source is ca and epsilon(params).target is co
            assert eta(params).source is co and eta(params).target is ca
            assert psi_map(params).source is ca and psi_map(params).target is v
        assert v_algebra().generators is v
        assert tilde_epsilon().source is v and tilde_epsilon().target is co

    def test_index_validation(self):
        gens = v_generators()
        with pytest.raises(ValueError):
            gens.degree(alpha_key(0, 1))  # alpha needs both indices >= 1
        with pytest.raises(ValueError):
            gens.degree(beta_key(0, 0))  # beta excludes the origin
        assert gens.degree(beta_key(1, 0)) == -4


class TestLevelMaps:
    def test_differential_of_alpha(self):
        assert v_algebra().level(w(alpha_key(1, 1))) == Combination(
            {w(beta_key(0, 1)): Fraction(1), w(beta_key(1, 0)): Fraction(-1)}
        )

    def test_differential_drops_zero_coefficients(self):
        # l1(alpha_{1,2}) = 2 beta_{0,2} - 1 beta_{1,1}; both substripts valid.
        assert v_algebra().level(w(alpha_key(1, 2))) == Combination(
            {w(beta_key(0, 2)): Fraction(2), w(beta_key(1, 1)): Fraction(-1)}
        )

    def test_differential_of_beta_vanishes(self):
        assert v_algebra().level(w(beta_key(2, 1))) == Combination()

    def test_bracket_alpha_alpha(self):
        # (il - jk) alpha_{i+k, j+l} on (1,2),(2,1): 1*1 - 2*2 = -3.
        assert v_algebra().level(w(alpha_key(1, 2), alpha_key(2, 1))) == Combination.single(
            w(alpha_key(3, 3)), -3
        )

    def test_bracket_with_vanishing_determinant(self):
        assert v_algebra().level(w(alpha_key(1, 1), alpha_key(2, 2))) == Combination()

    def test_bracket_alpha_beta(self):
        # (il - jk) beta_{i+k, j+l} on alpha_{1,1}, beta_{1,0}: -1.
        assert v_algebra().level(w(alpha_key(1, 1), beta_key(1, 0))) == Combination.single(
            w(beta_key(2, 1)), -1
        )

    def test_bracket_beta_beta_vanishes(self):
        assert v_algebra().level(w(beta_key(1, 0), beta_key(0, 1))) == Combination()

    def test_higher_levels_vanish(self):
        assert v_algebra().level(w(alpha_key(1, 1), alpha_key(1, 2), beta_key(1, 0))) == Combination()


class TestCoderivation:
    def test_mixed_word_expansion(self):
        result = extend_coderivation(v_algebra(), w(alpha_key(1, 1), beta_key(1, 0)))
        expected = Combination(
            {
                w(beta_key(0, 1), beta_key(1, 0)): Fraction(1),
                w(beta_key(1, 0), beta_key(1, 0)): Fraction(-1),
                w(beta_key(2, 1)): Fraction(-1),
            }
        )
        assert result == expected

    def test_raises_degree_by_one(self):
        gens = v_generators()
        words = [
            w(alpha_key(1, 1)),
            w(alpha_key(1, 2), beta_key(1, 0)),
            w(alpha_key(1, 1), alpha_key(1, 2), beta_key(0, 1)),
        ]
        for word_ in words:
            din = sum(gens.degree(k) for k in word_)
            out = extend_coderivation(v_algebra(), word_)
            for ow, _ in out.terms():
                dout = sum(gens.degree(k) for k in ow)
                assert dout == din + 1, (word_, ow)

    def test_structure_squares_to_zero_on_window(self):
        report = structure_window_check(4, 3)
        assert report.ok, report.failures[:3]
        assert report.checked > 100

    @pytest.mark.parametrize("bound", range(9))
    def test_two_alpha_words_are_the_filtered_sorted_pairs(self, bound):
        """Pairs of the sorted window equal the old enumeration, which drew
        pairs with replacement, dropped the repeats and sorted each pair."""
        alphas = [alpha_key(i, j) for i in range(1, bound) for j in range(1, bound) if i + j <= bound]
        expected = [tuple(sorted(pair)) for pair in combinations_with_replacement(alphas, 2) if pair[0] != pair[1]]
        assert _two_alpha_words(bound) == expected
        for word_ in expected:
            assert canonical_word(v_generators(), word_)[0] == word_


class TestDeclaredArities:
    def test_algebra_declares_levels_one_and_two(self):
        assert v_algebra().arities == (1, 2)

    def test_rule_vanishes_above_arity_two(self):
        """The declaration is honest: l^3..l^5 are zero on the whole window,
        so skipping them in the coderivation changes no value."""
        checked = 0
        for word_ in _window_words(3, 5):
            if len(word_) >= 3:
                assert _v_rule(word_) == Combination(), word_
                checked += 1
        assert checked > 0

    def test_algebra_declares_odd_heads(self):
        assert v_algebra().odd_heads is True

    def test_rule_vanishes_on_heads_without_an_alpha(self):
        """The head-support declaration is honest.  A head of a window word is
        a sub-word, and an α-free sub-word of a window word is an all-β
        window word, so the all-β words of the window are all its α-free
        heads.  The two-α words of the structure check hold no α-free head
        themselves; their images under l̂, which check_structure feeds back,
        do, and every head of those is checked."""
        checked = 0
        for word_ in _window_words(6, 4):
            if all(kind == "beta" for kind, _, _ in word_):
                assert _v_rule(word_) == Combination(), word_
                checked += 1
        assert checked == 27 + 378 + 3654 + 27405
        words = _two_alpha_words(4)
        words += [u for w_ in words for u, _ in extend_coderivation(v_algebra(), w_).terms()]
        heads = {
            head
            for word_ in words
            for i in range(1, len(word_) + 1)
            for head in combinations(word_, i)
            if all(kind == "beta" for kind, _, _ in head)
        }
        assert len(heads) == 9  # the image words are α.β and α, so these are single β letters
        for head in heads:
            assert _v_rule(head) == Combination(), head

    # the words of TestMorphismOracle.test_rounding_morphisms
    MORPHISM_WORDS = [w(o_key(2)), w(o_key(1), o_key(2)), w(o_key(2), o_key(2), o_key(3))]

    @pytest.mark.parametrize(
        "morphism",
        [psi_map(normalized("13/2", Side.MINUS)), identity_morphism(ca_generators())],
        ids=["psi_map", "identity_morphism"],
    )
    def test_morphism_levels_vanish_above_arity_one(self, morphism):
        assert morphism.arities == (1,)
        checked = 0
        for word_ in self.MORPHISM_WORDS:
            for i in range(2, len(word_) + 1):
                for head in combinations(word_, i):
                    assert morphism.level(head) == Combination(), head
                    checked += 1
        assert checked == 5


class TestTildeEpsilon:
    def test_beta_words(self):
        te = tilde_epsilon()
        assert te.level(w(beta_key(1, 0))) == Combination.single(
            Word((q_key(1),))
        )
        # row sums (1, 2), word length 2 -> q_4, weight 1/(1! 2!).
        assert te.level(w(beta_key(0, 1), beta_key(1, 1))) == Combination.single(
            Word((q_key(4),)), Fraction(1, 2)
        )
        # (2,0)+(1,0): row sum 3, q_4, weight 1/3!.
        assert te.level(w(beta_key(1, 0), beta_key(2, 0))) == Combination.single(
            Word((q_key(4),)), Fraction(1, 6)
        )

    def test_alpha_words_vanish(self):
        te = tilde_epsilon()
        assert te.level(w(alpha_key(1, 1))) == Combination()
        assert te.level(w(alpha_key(1, 1), beta_key(1, 0))) == Combination()


class TestPsi:
    @pytest.mark.parametrize("p", [normalized("13/2", Side.MINUS), THREE_AXES], ids=["two", "three"])
    def test_level_one_lands_on_path_point(self, p):
        psi = psi_map(p)
        for k in (1, 2, 5):
            assert psi.level(Word((o_key(k),))) == Combination.single(w(beta_key(*gamma(p, k))))

    def test_higher_levels_vanish(self):
        psi = psi_map(normalized(3))
        assert psi.level(Word((o_key(1), o_key(2)))) == Combination()

    def test_factorization_reproduces_augmentation(self):
        for params in (
            normalized("3/2"),
            normalized(3),
            normalized("13/2", Side.MINUS),
            normalized("13/2", Side.PLUS),
            THREE_AXES,
        ):
            report = psi_factorization(params, length_bound=3)
            assert report.ok, (params, report.failures[:3])

    # the parameters of acceptance criterion 11
    CRITERION_11 = [
        normalized(Fraction(3, 2)),
        normalized(2, Side.PLUS),
        normalized(3),
        normalized(Fraction(13, 2), Side.MINUS),
        normalized(Fraction(13, 2), Side.PLUS),
    ]

    def test_factorization_sees_a_changed_lattice_rule(self, monkeypatch):
        """The check's other side is the closed form, not eps~: doubling the
        one lattice rule at k = 2 fails it at each of criterion 11's
        parameters.  The augmentation and ε get fresh memos for the mutant,
        which are dropped with it."""
        assert all(psi_factorization(p, 3).ok for p in self.CRITERION_11)
        augmentation = tilde_epsilon()
        rule = augmentation._rule
        monkeypatch.setattr(augmentation, "_rule", lambda key: rule(key) * 2 if key[-1] == 2 else rule(key))
        monkeypatch.setattr(augmentation, "_level_memo", Memo())
        monkeypatch.setattr(augmentation, "_extend_memo", Memo())
        monkeypatch.setattr(sft, "_EPSILON_CACHE", Memo(sft._epsilon))
        for p in self.CRITERION_11:
            report = psi_factorization(p, 3)
            assert not report.ok, p
            assert report.failures[0].startswith("levels differ on (('o', 1), ('o', 1)): "), report.failures[0]


class TestVerifyAug:
    def test_passes_on_the_small_window(self):
        report = verify_aug(4, 3)
        assert report.ok, report.failures[:3]

    def test_flipped_bracket_sign_fails(self):
        """Negative control: negating l2 breaks the homomorphism equation,
        because the relative sign of l1 and l2 is what makes the augmented
        terms cancel."""
        good = v_algebra()

        def flipped_rule(word_):
            out = good.level(word_)
            return (-1) * out if len(word_) == 2 else out

        bad = LinfStructure(good.generators, flipped_rule)
        report = verify_aug(4, 3, structure=bad)
        assert not report.ok
        assert len(report.failures) == 684
        # the message text, term order included, is part of the report
        assert report.failures[0] == (
            "pi_1(aug(coderivation)) nonzero on (('alpha', 1, 1), ('beta', 0, 1)): -1*(('q', 3),)"
        )

    def test_wrong_weight_morphism_fails(self):
        """Negative control: rescaling a single arity of the augmentation
        breaks the identity (a uniform rescale would not: each term of the
        projected equation applies exactly one augmentation level)."""
        te = tilde_epsilon()

        def unweighted_rule(word_):
            out = te.level(word_)
            return 2 * out if len(word_) == 2 else out

        bad = LinfMorphism(te.source, te.target, unweighted_rule)
        report = verify_aug(4, 3, morphism=bad)
        assert not report.ok
        assert report.failures[0] == (
            "pi_1(aug(coderivation)) nonzero on (('alpha', 1, 1), ('beta', 0, 1)): -1/2*(('q', 3),)"
        )

    def test_parity_memos_stay_within_the_cache_cap(self):
        # the memos are shared module-wide (every ε_a reads eps~'s); start its level memo from empty
        tilde_epsilon()._level_memo.clear()
        assert verify_aug(4, 4).ok
        generator_sets = [v_algebra().generators, tilde_epsilon().source, tilde_epsilon().target]
        assert all(0 < len(gens._parity_memo) <= CACHE_CAP for gens in generator_sets)
        # one level entry per (Σi, Σj, k) of an all-β word, one for every word with an α
        assert 0 < len(tilde_epsilon()._level_memo) <= 400

    def test_keyed_levels_match_the_rule(self):
        """eps~'s level memo is keyed by (Σi, Σj, k), or one key for words with
        an α; on every word of the window the memoized level is
        q_{Σi+Σj+k-1} / (Σi! Σj!), and zero on a word with an α."""
        te = tilde_epsilon()
        words = list(_window_words(4, 4))
        assert any(key[0] == "alpha" for word_ in words for key in word_)
        for word_ in words:
            k = len(word_)
            if any(kind == "alpha" for kind, _, _ in word_):
                expected = Combination()
            else:
                i_total = sum(i for _, i, _ in word_)
                j_total = sum(j for _, _, j in word_)
                expected = Combination.single(
                    (q_key(i_total + j_total + k - 1),), Fraction(1, factorial(i_total) * factorial(j_total))
                )
            assert te.level(word_) == expected, word_


def two_pass_verify_aug(index_bound, length_bound, structure, morphism):
    """The loop ``verify_aug`` replaced: pi_1 by ``apply(level)`` on every
    length, then the bar level on lengths <= 3 only where pi_1 vanishes."""
    failures = []
    checked = 0
    for word_ in _window_words(index_bound, length_bound):
        checked += 1
        image = extend_coderivation(structure, word_)
        projected = image.apply(morphism.level)
        if projected:
            failures.append(f"pi_1(aug(coderivation)) nonzero on {word_}: {projected}")
            continue
        if len(word_) <= 3:
            full = image.apply(morphism.extend)
            if full:
                failures.append(f"bar-level aug(coderivation) nonzero on {word_}: {full}")
    return Report(checked, failures)


class TestVerifyAugAgainstTwoPasses:
    """``verify_aug`` reads pi_1 off the bar-level image on short words; the
    old loop applied the levels and the extension to the image separately."""

    @settings(max_examples=30, deadline=None)
    @given(
        perturb_morphism=st.booleans(),
        arity=st.sampled_from([1, 2]),
        factor=st.sampled_from([-1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
        index_bound=st.integers(1, 4),
        length_bound=st.integers(1, 3),
    )
    def test_same_report_as_the_two_pass_loop(self, perturb_morphism, arity, factor, index_bound, length_bound):
        good = tilde_epsilon() if perturb_morphism else v_algebra()

        def rule(word_):
            out = good.level(word_)
            return factor * out if len(word_) == arity else out

        if perturb_morphism:
            structure, morphism = v_algebra(), LinfMorphism(good.source, good.target, rule)
        else:
            structure = LinfStructure(good.generators, rule, arities=(1, 2), odd_heads=True)
            morphism = tilde_epsilon()
        new = verify_aug(index_bound, length_bound, structure=structure, morphism=morphism)
        old = two_pass_verify_aug(index_bound, length_bound, structure, morphism)
        assert new.checked == old.checked
        assert new.failures == old.failures


class TestWindowBounds:
    P = normalized("13/2", Side.MINUS)
    BOUND_ENTRIES = {
        "verify_aug": lambda b: verify_aug(b, 2),
        "structure_window_check": lambda b: structure_window_check(b, 2),
        "psi_factorization": lambda b: psi_factorization(TestWindowBounds.P, b),
        "inverse_check": lambda b: sft.inverse_check(TestWindowBounds.P, b),
        "xi_chain_check": lambda b: sft.xi_chain_check(
            normalized("3/2"), normalized(2, Side.MINUS), normalized(3), b
        ),
        "index_words": lambda b: sft.index_words(o_key, b, 2),
    }

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2"], ids=repr)
    @pytest.mark.parametrize("entry", sorted(BOUND_ENTRIES))
    def test_every_window_entry_rejects_a_non_integer_bound(self, entry, bad):
        """A window bound is an int and not a bool; a bool once counted as 1
        or 0 and a float reached ``range``."""
        with pytest.raises(ValueError, match="must be an integer, got"):
            self.BOUND_ENTRIES[entry](bad)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_a_bound_below_one_gives_an_empty_window(self, bound):
        assert list(_window_words(bound, 3)) == list(_window_words(3, bound)) == []
        assert sft.index_words(o_key, bound, 3) == sft.index_words(o_key, 3, bound) == []
        assert verify_aug(bound, 3).checked == 0
