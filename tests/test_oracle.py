"""Cross-checks of the fast implementations against brute-force oracles."""

import ast
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsuper import oracle
from ellsuper.linf import (
    Combination,
    GeneratorSet,
    LinfMorphism,
    LinfStructure,
    Word,
    compose,
    extend_coderivation,
)
from ellsuper.oracle import (
    DualRational,
    action_dual,
    coderivation_bruteforce,
    gamma_bruteforce,
    jump_partitions,
    merge_spectrum,
    morphism_bruteforce,
    perturbed_value,
    shuffles,
    wt_T_partitions,
)
from ellsuper.orbits import (
    OrbitId,
    Side,
    SpectrumParams,
    action,
    gamma,
    jump_set,
    normalized,
    orbit,
)
from ellsuper.rounding import v_algebra
from ellsuper.sft import alpha_key, beta_key, psi_map, tilde_epsilon
from ellsuper.sft import epsilon, o_key
from ellsuper.superpotential import CP2Target, wt_T, wt_T_infinity


def random_params(rng, max_n=4):
    n = rng.randint(1, max_n)
    a = tuple(
        Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(n)
    )
    if n == 2 and rng.random() < 0.4:
        side = rng.choice([Side.PLUS, Side.MINUS])
    else:
        side = Side.CANONICAL
    return SpectrumParams(a, side)


@st.composite
def tie_prone_params(draw):
    """1 to 4 axes with small numerators and denominators, every side on two axes."""
    ratios = st.fractions(min_value="1/6", max_value=12, max_denominator=6)
    a = draw(st.lists(ratios, min_size=1, max_size=4))
    side = draw(st.sampled_from(list(Side))) if len(a) == 2 else Side.CANONICAL
    return SpectrumParams(tuple(a), side)


def gamma_dual_loop(params, k):
    """The loop the action table replaced: a DualRational max, then min, over every composition."""
    if k == 0:
        return (0,) * params.n
    best_value, best_vector, tie = None, None, False
    for bars in combinations(range(k + params.n - 1), params.n - 1):
        edges = (-1,) + bars + (k + params.n - 1,)
        vector = tuple(edges[i + 1] - edges[i] - 1 for i in range(params.n))
        value = max(perturbed_value(params, axis, m) for axis, m in enumerate(vector, start=1) if m > 0)
        if best_value is None or value < best_value:
            best_value, best_vector, tie = value, vector, False
        elif value == best_value:
            tie = True
    assert not tie
    return best_vector


class TestGammaOracle:
    def test_random_cases_match(self):
        rng = random.Random(987123)
        for _ in range(120):
            p = random_params(rng)
            k = rng.randint(0, 25)
            assert gamma(p, k) == gamma_bruteforce(p, k), (p, k)

    @given(p=tie_prone_params(), k=st.integers(0, 20))
    @settings(deadline=None, max_examples=100, derandomize=True)
    def test_action_table_matches_the_dual_rational_loop(self, p, k):
        assert gamma_bruteforce(p, k) == gamma_dual_loop(p, k)

    @pytest.mark.parametrize(
        "side, k, expected",
        [
            (Side.PLUS, 8, (6, 2)),
            (Side.MINUS, 8, (6, 2)),
            # 7 = 7·1 = 3·(7/3): the two covers differ only in their ε part
            (Side.PLUS, 9, (7, 2)),
            (Side.MINUS, 9, (6, 3)),
            (Side.PLUS, 10, (7, 3)),
            (Side.MINUS, 10, (7, 3)),
        ],
    )
    def test_ties_split_by_the_eps_part(self, side, k, expected):
        p = normalized("7/3", side)
        assert gamma_bruteforce(p, k) == expected == gamma_dual_loop(p, k)

    def test_an_unseparated_tie_raises(self, monkeypatch):
        """Without its ε part, 7/3 ties (7, 2) with (6, 3) at k = 9."""
        monkeypatch.setattr(
            oracle, "perturbed_value", lambda p, axis, m: DualRational(p.a[axis - 1] * m, Fraction(0))
        )
        with pytest.raises(RuntimeError, match="failed to separate"):
            gamma_bruteforce(normalized("7/3"), 9)

    def test_guards(self):
        p = normalized("3/2")
        with pytest.raises(ValueError):
            gamma_bruteforce(p, 41)
        big = SpectrumParams((1, 2, 3, 4, 5, 6), Side.CANONICAL)
        with pytest.raises(ValueError):
            gamma_bruteforce(big, 3)


# The production names oracle.py may import: types, keys, parsers and integer
# helpers.  A name that computes a checked quantity (gamma, gamma_points,
# orbit, ...) would make an oracle agree with the fast path it checks.
ORACLE_MAY_IMPORT = {
    "exact": {"LatticePoint", "aut_size", "rational", "vec_add", "vec_factorial"},
    "linf": {"Combination", "GeneratorSet", "LinfMorphism", "LinfStructure", "Word"},
    "orbits": {"OrbitId", "Side", "SpectrumParams", "normalized"},
    "sft": {"o_key"},
}


class TestOracleIndependence:
    def test_oracle_imports_only_listed_production_names(self):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "ellsuper" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ellsuper"):
                module = (node.module or "").removeprefix("ellsuper.")
                imported.update((module, alias.name) for alias in node.names)
        allowed = {(module, name) for module, names in ORACLE_MAY_IMPORT.items() for name in names}
        assert imported <= allowed, imported - allowed


class TestShuffles:
    """The reference enumeration that ``linf``'s block plans are compared with."""

    @given(p=st.integers(0, 4), q=st.integers(0, 4))
    @settings(deadline=None)
    def test_count_is_binomial(self, p, q):
        result = shuffles(p, q)
        assert len(result) == math.comb(p + q, p)
        for sigma in result:
            left, right = sigma[:p], sigma[p:]
            assert sorted(left) == list(left)
            assert sorted(right) == list(right)
            assert sorted(sigma) == list(range(p + q))

    def test_small_example(self):
        assert shuffles(1, 1) == ((0, 1), (1, 0))

    def test_negative_block_sizes_raise(self):
        with pytest.raises(ValueError):
            shuffles(-1, 2)


class TestMergeSpectrum:
    def test_matches_walk_derived_quantities(self):
        cases = [
            normalized("3/2"),
            normalized(2, Side.PLUS),
            normalized(2, Side.MINUS),
            SpectrumParams((Fraction(2), Fraction(13)), Side.PLUS),
            SpectrumParams((Fraction(1), Fraction(1), Fraction(1)), Side.CANONICAL),
        ]
        for p in cases:
            entries = merge_spectrum(p, 25)
            counts = [0] * p.n
            for k, (value, oid) in enumerate(entries, start=1):
                assert oid == orbit(p, k)
                assert value == action_dual(p, k)
                assert value.main == action(p, k)
                counts[oid.axis - 1] += 1
                assert tuple(counts) == gamma(p, k)

    def test_first_actions_fixture(self):
        entries = merge_spectrum(normalized("3/2"), 5)
        mains = [value.main for value, _ in entries]
        assert mains == [1, Fraction(3, 2), 2, 3, 3]

    def test_fourteenth_entries(self):
        scaled = SpectrumParams((Fraction(2), Fraction(13)), Side.PLUS)
        value, oid = merge_spectrum(scaled, 14)[13]
        assert value.main == 26
        assert oid == OrbitId(axis=1, multiplicity=13)

        steep = normalized("13/2", Side.PLUS)
        assert merge_spectrum(steep, 14)[13][1] == OrbitId(axis=1, multiplicity=13)

        inside = normalized("25/4")  # 25/4 lies between 6 and 13/2
        assert merge_spectrum(inside, 14)[13][1] == OrbitId(axis=2, multiplicity=2)

    def test_count_guard(self):
        with pytest.raises(ValueError):
            merge_spectrum(normalized("3/2"), 10_001)


def toy_morphism(shift=0, mixed=False, arities=None):
    """Sign-sensitive toy: graded letters, F nonzero at arity 1 and 2.

    h_i has degree i; F^1(g_i) = h_i / 2 and F^2(g_i g_j) = h_{i+j+shift}.
    With an odd ``shift`` the level-2 map flips degree parity, so the sign
    of a term depends on the order in which the extension multiplies its
    block values: the oracle orders the blocks by their first letter.
    With ``mixed`` the levels carry the denominators 2, 3 and 5:
    F^2(g_i g_j) = ((i - j)/3) h_{i+j+shift} and F^3(g_i g_j g_l) =
    (2/5) h_{i+j+l}, so the extension adds over unequal denominators and
    some coefficients cancel to zero.  ``arities`` is passed on as the
    morphism's declaration, true or not.
    """
    graded = GeneratorSet("toy", lambda key: key[1])

    def rule(w):
        k = len(w)
        indices = [key[1] for key in w]
        if k == 1:
            return Combination.single(Word((("h", indices[0]),)), Fraction(1, 2))
        if k == 2:
            coefficient = Fraction(indices[0] - indices[1], 3) if mixed else 1
            return Combination.single(Word((("h", sum(indices) + shift),)), coefficient)
        if k == 3 and mixed:
            return Combination.single(Word((("h", sum(indices)),)), Fraction(2, 5))
        return Combination()

    return LinfMorphism(graded, graded, rule, arities=arities)


class TestMorphismOracle:
    def test_toy_morphism_with_odd_letters(self):
        F = toy_morphism()
        words = [
            Word((("g", 1),)),
            Word((("g", 1), ("g", 3))),
            Word((("g", 1), ("g", 2), ("g", 3))),
            Word((("g", 1), ("g", 3), ("g", 5))),
            Word((("g", 1), ("g", 2), ("g", 3), ("g", 5))),
        ]
        for w in words:
            assert F.extend(w) == morphism_bruteforce(F, w), w

    def test_mixed_denominators_and_a_cancellation(self):
        """On g2.g2.g4.g6 the extension adds -1/6 and -2/12 at h2.h6.h7, and
        the two terms 8/9 and -8/9 of h7.h9 cancel."""
        F = toy_morphism(shift=1, mixed=True)
        w = Word((("g", 2), ("g", 2), ("g", 4), ("g", 6)))
        value = F.extend(w)
        assert value == morphism_bruteforce(F, w)
        assert value[Word((("h", 2), ("h", 6), ("h", 7)))] == Fraction(-1, 3)
        assert Word((("h", 7), ("h", 9))) not in dict(value.terms())

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
        st.sampled_from([0, 1]),
        st.booleans(),
    )
    def test_toy_morphism_on_random_words(self, indices, shift, mixed):
        w = tuple(("g", i) for i in sorted(indices))
        # a repeated odd letter makes the word zero, so it is not a canonical word
        assume(all(w[p] != w[p + 1] or w[p][1] % 2 == 0 for p in range(len(w) - 1)))
        F = toy_morphism(shift, mixed)
        assert F.extend(w) == morphism_bruteforce(F, w)

    def test_orbit_count_morphism(self):
        eps = epsilon(normalized("3/2"))
        words = [
            Word((o_key(1),)),
            Word((o_key(1), o_key(1))),
            Word((o_key(1), o_key(2), o_key(2))),
            Word((o_key(1), o_key(1), o_key(2), o_key(3))),
        ]
        for w in words:
            assert eps.extend(w) == morphism_bruteforce(eps, w), w

    def test_rounding_morphisms(self):
        psi = psi_map(normalized("13/2", Side.MINUS))
        for w in [
            Word((o_key(2),)),
            Word((o_key(1), o_key(2))),
            Word((o_key(2), o_key(2), o_key(3))),
        ]:
            assert psi.extend(w) == morphism_bruteforce(psi, w), w

        te = tilde_epsilon()
        beta = lambda i, j: ("beta", i, j)
        alpha = lambda i, j: ("alpha", i, j)
        for w in [
            Word((beta(1, 0),)),
            Word((beta(0, 1), beta(1, 1))),
            Word((alpha(1, 1), beta(1, 0), beta(1, 1))),
        ]:
            assert te.extend(w) == morphism_bruteforce(te, w), w

    def test_a_false_arity_declaration_shows(self):
        """F^2 is nonzero, so a morphism that declares only level one drops
        the g1.g3 block; the oracle reads every level whatever is declared."""
        F = toy_morphism(arities=(1,))
        w = Word((("g", 1), ("g", 3)))
        h13 = Word((("h", 1), ("h", 3)))
        assert F.extend(w) == Combination.single(h13, Fraction(1, 4))
        assert morphism_bruteforce(F, w) == Combination({h13: Fraction(1, 4), Word((("h", 4),)): 1})
        assert morphism_bruteforce(F, w) == toy_morphism().extend(w)

    def test_length_guard(self):
        F = toy_morphism()
        long_word = Word(tuple(("g", 2 * i) for i in range(6)))
        with pytest.raises(ValueError):
            morphism_bruteforce(F, long_word)


def strict_toy():
    """A strict toy on the letters of :func:`toy_morphism`: F^1(g_i) = (i/3) h_{10-i}.

    It reverses the order of the letters and keeps their parities, so the
    extension sorts odd letters past each other and picks up their signs.
    """
    graded = GeneratorSet("toy", lambda key: key[1])

    def rule(w):
        if len(w) != 1:
            return Combination()
        i = w[0][1]
        return Combination.single(Word((("h", 10 - i),)), Fraction(i, 3))

    return LinfMorphism(graded, graded, rule, arities=(1,))


class TestCompositeExtension:
    """A composite extends as Ĝ ∘ F̂; the oracle sums its levels over set partitions.

    The toy levels keep degree parity, as a morphism's levels do, so the
    Koszul signs of the two sides agree.
    """

    FACTORS = {
        "toy": lambda: toy_morphism(),
        "mixed": lambda: toy_morphism(mixed=True),
        "strict": strict_toy,
    }

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
        st.sampled_from(sorted(FACTORS)),
        st.sampled_from(sorted(FACTORS)),
    )
    def test_toy_composites_on_random_words(self, indices, outer, inner):
        w = tuple(("g", i) for i in sorted(indices))
        assume(all(w[p] != w[p + 1] or w[p][1] % 2 == 0 for p in range(len(w) - 1)))
        composite = compose(self.FACTORS[outer](), self.FACTORS[inner]())
        assert composite.extend(w) == morphism_bruteforce(composite, w)

    def test_rounding_factorization(self):
        """ε̃ ∘ ψ_a: a strict inner map into the V algebra."""
        composite = compose(tilde_epsilon(), psi_map(normalized("13/2", Side.MINUS)))
        for w in [
            Word((o_key(2),)),
            Word((o_key(1), o_key(2), o_key(2))),
            Word((o_key(1), o_key(1), o_key(2), o_key(3), o_key(6))),
        ]:
            assert composite.extend(w) == morphism_bruteforce(composite, w), w


def toy_structure(mixed=False, odd_heads=False):
    """Graded toy with nonzero l^1, l^2 and l^3 and the default arities.

    It need not square to zero: the differential test only compares two
    evaluations of the same extension formula.  With ``mixed``, l^1(g_i)
    also has a term c_i g_i, c_i one of 1/2, -1/3, 2/5, -1/2: every letter
    of a word then returns the word itself, so its coefficient adds over
    unequal denominators and can cancel to zero and come back.  The term
    c_i g_i is nonzero on even letters too, so ``odd_heads`` (passed on as
    the structure's declaration) is false for the mixed toy.
    """
    graded = GeneratorSet("toy", lambda key: key[1])

    def rule(w):
        k = len(w)
        indices = [key[1] for key in w]
        if k == 1:
            terms = {}
            if mixed:
                terms[w] = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(-1, 2))[indices[0] % 4]
            if indices[0] % 2:
                terms[(("g", indices[0] + 1),)] = Fraction(1)
            return Combination(terms)
        if k == 2:
            return Combination.single((("g", sum(indices)),), indices[0] - 2 * indices[1])
        if k == 3:
            coefficient = Fraction(indices[0] - indices[1] + 3 * indices[2], 2)
            return Combination.single((("g", sum(indices) + 1),), coefficient)
        return Combination()

    return LinfStructure(graded, rule, odd_heads=odd_heads)


ALPHAS = [alpha_key(i, j) for i in range(1, 4) for j in range(1, 4) if i + j <= 4]
BETAS = [beta_key(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 4]
v_words = st.tuples(
    st.lists(st.sampled_from(ALPHAS), max_size=2),
    st.lists(st.sampled_from(BETAS), max_size=5),
).filter(lambda parts: 1 <= len(parts[0]) + len(parts[1]) <= 5)


class TestCoderivationOracle:
    @staticmethod
    def assert_same_terms(structure, w):
        fast = extend_coderivation(structure, w)
        slow = coderivation_bruteforce(structure, w)
        assert fast == slow, w
        assert list(fast.terms()) == list(slow.terms()), w

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(v_words)
    def test_rounding_algebra_on_random_words(self, parts):
        alphas, betas = parts
        self.assert_same_terms(v_algebra(), tuple(sorted(alphas + betas)))

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5), st.booleans())
    def test_toy_structure_with_ternary_level(self, indices, mixed):
        S = toy_structure(mixed)
        assert S.arities is None
        self.assert_same_terms(S, tuple(("g", i) for i in sorted(indices)))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=6, max_size=6), st.booleans())
    def test_toy_structure_on_words_at_the_length_guard(self, indices, mixed):
        S = toy_structure(mixed)
        self.assert_same_terms(S, tuple(("g", i) for i in sorted(indices)))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_rest_with_a_repeated_odd_letter_is_zero(self, mixed):
        """g1.g1.g3 is not reduced: the head g3 leaves the rest g1.g1, which is
        0, so l^1(g3) = g4 adds nothing there.  The structure declares no
        ``odd_heads``, so every head is read."""
        S = toy_structure(mixed)
        assert not S.odd_heads
        self.assert_same_terms(S, (("g", 1), ("g", 1), ("g", 3)))

    def test_mixed_denominators_cancel_and_come_back(self):
        """On g3.g4.g5.g6 the word itself collects -1/2 + 1/2 = 0 from g3 and
        g4 and is dropped; g5 and g6 bring it back at -1/3 + 2/5 = 1/15,
        now behind the term g4.g4.g5.g6 that g3 made after it."""
        S = toy_structure(mixed=True)
        w = (("g", 3), ("g", 4), ("g", 5), ("g", 6))
        value = extend_coderivation(S, w)
        assert list(value.terms())[:3] == [
            ((("g", 4), ("g", 4), ("g", 5), ("g", 6)), Fraction(1)),
            (w, Fraction(1, 15)),
            ((("g", 3), ("g", 4), ("g", 6), ("g", 6)), Fraction(-1)),
        ]
        self.assert_same_terms(S, w)

    @pytest.mark.parametrize("indices", [(2,), (1, 2), (2, 3, 4)])
    def test_a_false_head_support_declaration_shows(self, indices):
        """l^1(g_2) = (2/5) g_2 on the mixed toy: declared zero on heads with
        no odd letter, the engine drops it; the oracle reads every head."""
        S = toy_structure(mixed=True, odd_heads=True)
        w = tuple(("g", i) for i in indices)
        assert extend_coderivation(S, w) != coderivation_bruteforce(S, w)
        assert coderivation_bruteforce(S, w) == extend_coderivation(toy_structure(mixed=True), w)

    def test_ternary_level_contributes(self):
        S = toy_structure()
        w = (("g", 1), ("g", 2), ("g", 4))
        value = coderivation_bruteforce(S, w)
        # l^3(g1.g2.g4) = ((1 - 2 + 12)/2) g8 is the only length-one term
        assert value.restrict_length(1) == Combination.single((("g", 8),), Fraction(11, 2))
        self.assert_same_terms(S, w)

    def test_length_guard(self):
        long_word = tuple(("g", 2 * i) for i in range(7))
        with pytest.raises(ValueError):
            coderivation_bruteforce(toy_structure(), long_word)


# ratios in (1, 40]: generic ones, and the jump candidates of Γ_{3e-1} and
# of the orbit identity o_{3e-1} (J_{3e-2}) for e <= 12, where sides matter
JUMP_RATIOS = sorted({r for k in range(1, 36) for r in jump_set(k) if r > 1})
sided_ratios = st.tuples(
    st.one_of(
        st.fractions(min_value="13/12", max_value=40, max_denominator=12),
        st.sampled_from(JUMP_RATIOS),
    ),
    st.sampled_from(list(Side)),
)


class TestCountOracle:
    @given(ratio=sided_ratios, d=st.integers(1, 12))
    @settings(deadline=None, max_examples=150)
    def test_series_matches_partition_recursion(self, ratio, d):
        params = normalized(*ratio)
        assert wt_T(CP2Target(), d, params) == wt_T_partitions(d, params)

    @given(d=st.integers(1, 16))
    @settings(deadline=None, max_examples=16)
    def test_infinity_matches_partition_recursion(self, d):
        assert wt_T_infinity(d) == wt_T_partitions(d, normalized(3 * d))

    def test_scaled_two_axis_parameters(self):
        scaled = SpectrumParams((Fraction(2), Fraction(13)), Side.PLUS)
        for d in range(1, 8):
            assert wt_T(CP2Target(), d, scaled) == wt_T_partitions(d, scaled)

    def test_guards(self):
        with pytest.raises(ValueError):
            wt_T_partitions(21, normalized(100))
        with pytest.raises(ValueError):
            wt_T_partitions(0, normalized(100))
        with pytest.raises(ValueError):
            wt_T_partitions(2, SpectrumParams((1, 2, 3), Side.CANONICAL))


class TestJumpOracle:
    def test_reference_values(self):
        assert jump_partitions(Fraction(5, 4), (2, 8)) == Fraction(-1, 4)
        assert jump_partitions(Fraction(1, 2), (2, 2, 2, 2)) == Fraction(-15, 16)
        assert jump_partitions(Fraction(2, 9), (1, 10)) == Fraction(-2, 9)

    def test_guards(self):
        with pytest.raises(ValueError):
            jump_partitions(2, (1,) * 10)
        with pytest.raises(ValueError):
            jump_partitions(2, ())
        with pytest.raises(ValueError):
            jump_partitions(2, (0, 1))
