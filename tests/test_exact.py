"""Tests for the exact-arithmetic toolkit and its combinatorics.

The classes for the dual-number order (``oracle.DualRational``) and for the
oracle's enumerations (``oracle.partitions``, ``oracle.set_partitions``,
``oracle.koszul_sign``) stay here beside the production enumerations they
complement, and the integer exp-series kernel is compared here with its
``Fraction`` reference ``oracle.exp_series_pass_fractions``.  The bounded
``Memo`` is tested here too, with a guard that every cache of the package
is one and that no memo keeps its owner alive.
"""

import gc
import importlib
import math
import sys
import weakref
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import exact, jumps, linf, rounding, sft, superpotential
from ellsuper.exact import (
    Memo,
    aut_size,
    exp_series_pass,
    rational,
    vec_add,
    vec_factorial,
)
from ellsuper.oracle import DualRational, exp_series_pass_fractions, koszul_sign, partitions, set_partitions
from ellsuper.orbits import Side, gamma, normalized

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=40)
small_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


class TestRational:
    def test_accepts_int_str_fraction(self):
        assert rational(3) == Fraction(3)
        assert rational("13/2") == Fraction(13, 2)
        assert rational(Fraction(5, 4)) == Fraction(5, 4)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rational(1.5)
        with pytest.raises(TypeError):
            rational(2.0)
        # a bool is rejected by its class, although Fraction(True) == 1
        for value in (True, False):
            with pytest.raises(TypeError, match="bools are not accepted"):
                rational(value)
        with pytest.raises(TypeError, match="bools are not accepted"):
            normalized(True)

    def test_returns_a_plain_fraction_as_it_is(self):
        value = Fraction(7, 3)
        assert rational(value) is value

    def test_other_inputs_become_plain_fractions(self):
        class Sub(Fraction):
            pass

        for value, expected in ((3, Fraction(3)), ("-13/2", Fraction(-13, 2)), (Sub(5, 4), Fraction(5, 4))):
            out = rational(value)
            assert out.__class__ is Fraction
            assert out == expected


class TestDualRational:
    def test_lexicographic_order(self):
        assert DualRational(1, 5) < DualRational(2, 0)
        assert DualRational(2, -1) < DualRational(2, 0) < DualRational(2, 1)
        assert max(DualRational(3, 0), DualRational(3, -7)) == DualRational(3, 0)

    @given(
        a=rationals, b=small_rationals, c=rationals, d=small_rationals,
    )
    @settings(deadline=None)
    def test_order_matches_small_epsilon_limit(self, a, b, c, d):
        """Dual order agrees with evaluating eps at a sufficiently tiny value."""
        x = DualRational(a, b)
        y = DualRational(c, d)
        delta = Fraction(1, 10 ** 9)
        x_value, y_value = a + b * delta, c + d * delta
        if x < y:
            assert x_value < y_value
        elif y < x:
            assert y_value < x_value
        else:
            assert x_value == y_value


class TestVectors:
    def test_vec_add(self):
        assert vec_add((1, 2), (3, 4), (0, 1)) == (4, 7)

    def test_vec_factorial(self):
        assert vec_factorial((3, 2)) == 12
        assert vec_factorial((0, 0)) == 1
        assert vec_factorial((4,)) == 24


class TestPartitions:
    def test_counts_match_partition_function(self):
        # Number of partitions of n for n = 1..10.
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected, start=1):
            assert len(list(partitions(n))) == count

    def test_parts_descending_and_sum(self):
        for part in partitions(8):
            assert sum(part) == 8
            assert list(part) == sorted(part, reverse=True)

    def test_max_part_filter(self):
        assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_trivial(self):
        assert list(partitions(0)) == [()]
        assert list(partitions(1)) == [(1,)]


class TestAutSize:
    def test_examples(self):
        assert aut_size((1, 1, 1)) == 6
        assert aut_size((2, 1, 1)) == 2
        assert aut_size((3, 2, 1)) == 1
        assert aut_size(()) == 1

    def test_works_on_any_hashable_labels(self):
        assert aut_size(("x", "x", "y")) == 2


def multiplicity_steps(top, weights, base, point=lambda m: (0, 0)):
    """Steps over multisets of len(top) index kinds, keyed by multiplicity vectors m <= top."""

    def weight(m):
        return sum(w * x for w, x in zip(weights, m))

    keys = sorted(product(*(range(t + 1) for t in top)), key=weight)[1:]
    steps = []
    for m in keys:
        splits = tuple(
            (s, tuple(x - y for x, y in zip(m, s)), weight(s))
            for s in product(*(range(x + 1) for x in m))
            if any(s) and s != m
        )
        aut = math.prod(math.factorial(x) for x in m)
        steps.append((m, weight(m), aut, splits, point(m), base(m)))
    return steps


def degree_steps(points, bases):
    """Steps n = 1..len(points) of weight n and aut 1, split as k + (n - k), like the CP^2 counts."""
    return [
        (n, n, 1, tuple((k, n - k, k) for k in range(1, n)), point, base)
        for n, (point, base) in enumerate(zip(points, bases), start=1)
    ]


lattice_points = st.tuples(st.integers(0, 6), st.integers(0, 6))
bases = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=30))


class TestExpSeriesPass:
    def test_single_step_is_factorial_times_base(self):
        assert exp_series_pass([("I", 1, 1, (), (3, 2), Fraction(1, 7))]) == {"I": Fraction(12, 7)}

    def test_logarithm_of_geometric_series(self):
        # E = 1/(1 - t) forces F = -log(1 - t) = Σ t^n / n
        steps = [
            (n, n, 1, tuple((k, n - k, k) for k in range(1, n)), (0, 0), Fraction(1)) for n in range(1, 9)
        ]
        assert exp_series_pass(steps) == {n: Fraction(1, n) for n in range(1, 9)}

    def test_multisets_of_unit_blocks(self):
        # N = 1 on every multiset makes E = exp(t_1 + t_2): only the singletons survive
        values = exp_series_pass(multiplicity_steps((3, 2), (2, 3), lambda m: Fraction(1)))
        assert values == {m: Fraction(int(sum(m) == 1)) for m in values}
        assert len(values) == 11

    def test_zero_values_add_no_monomial(self):
        steps = [
            (n, n, 1, tuple((k, n - k, k) for k in range(1, n)), (n, 0), Fraction(0)) for n in range(1, 6)
        ]
        assert set(exp_series_pass(steps).values()) == {0}

    def test_aut_divides_the_monomial_and_scales_the_correction(self):
        # F = 1/2 t u^(1,0) + v/2 t^2 u^(1,1): E_{tt} - F_{tt} = (1/2)^2 / 2 u^(2,0), so
        # v = 1!1! (1/3 - aut · (1/8) / 2!) = 1/3 - 1/8 with aut = 2
        steps = [
            ("t", 1, 1, (), (1, 0), Fraction(1, 2)),
            ("tt", 2, 2, (("t", "t", 1),), (1, 1), Fraction(1, 3)),
        ]
        assert exp_series_pass(steps) == {"t": Fraction(1, 2), "tt": Fraction(5, 24)}

    def test_cumulants_of_the_exponential_distribution(self):
        # with every P_I = 0, aut(m) = m! turns N into moments and v into cumulants:
        # moments n! of Exp(1) have cumulants (n - 1)!
        values = exp_series_pass(multiplicity_steps((5,), (1,), lambda m: Fraction(math.factorial(m[0]))))
        assert values == {(n,): Fraction(math.factorial(n - 1)) for n in range(1, 6)}

    @given(
        points=st.lists(lattice_points, min_size=1, max_size=9),
        data=st.data(),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_degree_steps_match_the_fraction_kernel(self, points, data):
        base_list = data.draw(st.lists(bases, min_size=len(points), max_size=len(points)))
        steps = degree_steps(points, base_list)
        values = exp_series_pass(steps)
        assert values == exp_series_pass_fractions(steps)
        assert all(type(v) is Fraction for v in values.values())

    @given(
        top=st.lists(st.integers(1, 2), max_size=2).map(lambda rest: (2, *rest)),
        data=st.data(),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_multiset_steps_match_the_fraction_kernel(self, top, data):
        weights = data.draw(st.lists(st.integers(1, 4), min_size=len(top), max_size=len(top)))
        keys = list(product(*(range(t + 1) for t in top)))
        table = data.draw(st.fixed_dictionaries({m: st.tuples(lattice_points, bases) for m in keys}))
        steps = multiplicity_steps(top, weights, lambda m: table[m][1], lambda m: table[m][0])
        values = exp_series_pass(steps)
        assert values == exp_series_pass_fractions(steps)
        assert all(type(v) is Fraction for v in values.values())


class TestSetPartitions:
    def test_counts_match_bell_numbers(self):
        expected = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
        for n, bell in expected.items():
            assert len(list(set_partitions(n))) == bell

    def test_blocks_cover_and_are_canonical(self):
        for blocks in set_partitions(4):
            seen = sorted(i for block in blocks for i in block)
            assert seen == [0, 1, 2, 3]
            mins = [block[0] for block in blocks]
            assert mins == sorted(mins)
            for block in blocks:
                assert list(block) == sorted(block)


class TestKoszulSign:
    def test_identity_is_plus_one(self):
        assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1

    def test_swap_of_two_odds(self):
        assert koszul_sign((1, 0), (1, 1)) == -1

    def test_swap_with_an_even_letter(self):
        assert koszul_sign((1, 0), (0, 1)) == 1
        assert koszul_sign((1, 0), (1, 0)) == 1

    def test_three_odd_reversal(self):
        # Reversing three odd letters needs three adjacent transpositions.
        assert koszul_sign((2, 1, 0), (1, 1, 1)) == -1

    @given(n=st.integers(1, 5), data=st.data())
    @settings(deadline=None)
    def test_composition_rule(self, n, data):
        """Sign of a permutation composed from two is the product of signs when
        all letters are odd (standard sign homomorphism)."""
        perm = data.draw(st.permutations(range(n)))
        degrees = tuple(1 for _ in range(n))
        inversions = sum(
            1
            for s in range(n)
            for t in range(s + 1, n)
            if perm[s] > perm[t]
        )
        assert koszul_sign(tuple(perm), degrees) == (-1) ** inversions

    def test_mixed_degrees(self):
        # Word (odd, even, odd): moving letter 2 past letter 1 is free,
        # past letter 0 costs a sign.
        assert koszul_sign((2, 0, 1), (1, 0, 1)) == -1
        assert koszul_sign((1, 0, 2), (1, 0, 1)) == 1


class TestMemo:
    def test_a_miss_computes_once(self):
        calls = []

        def compute(key):
            calls.append(key)
            return key * 2

        memo = Memo(compute)
        assert memo[3] == memo[3] == 6
        assert calls == [3]
        assert dict(memo) == {3: 6}

    def test_a_raising_compute_stores_nothing(self):
        calls = []

        def compute(key):
            calls.append(key)
            raise ValueError(f"no value for {key}")

        memo = Memo(compute)
        for _ in range(2):
            with pytest.raises(ValueError):
                memo[1]
        assert calls == [1, 1]
        assert not memo

    def test_store_returns_its_value(self):
        memo = Memo()
        value = Fraction(5, 4)
        assert memo.store("a", value) is value
        assert memo["a"] is value

    def test_without_compute_a_miss_raises_key_error(self):
        memo = Memo()
        with pytest.raises(KeyError):
            memo["absent"]
        assert not memo

    def test_a_full_memo_evicts_exactly_the_oldest_block(self):
        memo = Memo(lambda key: -key)
        for key in range(exact.CACHE_CAP):
            memo[key]
        assert list(memo) == list(range(exact.CACHE_CAP))
        block = exact.CACHE_CAP // 16 + 1
        memo.store(exact.CACHE_CAP, 0)
        assert list(memo) == list(range(block, exact.CACHE_CAP + 1))
        memo[exact.CACHE_CAP + 1]  # room again: nothing more is evicted
        assert list(memo) == list(range(block, exact.CACHE_CAP + 2))

    def test_a_patched_cap_is_read_at_every_insert(self, monkeypatch):
        monkeypatch.setattr(exact, "CACHE_CAP", 32)
        memo = Memo(lambda key: key)
        for key in range(100):
            assert memo[key] == key
            assert len(memo) <= 32
        # 32 // 16 + 1 = 3 entries go per eviction
        assert list(memo) == list(range(100 - len(memo), 100))

    def test_a_re_store_into_a_full_memo_keeps_its_size_and_the_key_in_place(self, monkeypatch):
        monkeypatch.setattr(exact, "CACHE_CAP", 32)
        memo = Memo()
        for key in range(32):
            memo.store(key, key)
        for key in (31, 0, 17):
            assert memo.store(key, -key) == -key
            assert list(memo) == list(range(32))
        assert memo[0] == 0 and memo[17] == -17 and memo[31] == -31
        memo.store(32, 32)  # a new key still evicts the oldest block
        assert list(memo) == list(range(3, 33))

    def test_a_miss_into_a_full_memo_evicts_what_store_evicts(self, monkeypatch):
        monkeypatch.setattr(exact, "CACHE_CAP", 32)
        missed, stored = Memo(lambda key: -key), Memo()
        for key in range(32):
            missed[key]
            stored.store(key, -key)
        for key in range(32, 100):
            assert missed[key] == stored.store(key, -key) == -key
            assert list(missed.items()) == list(stored.items())
            assert len(missed) <= 32


# every module-level memo of the package
MODULE_MEMOS = (
    ("orbits", "_WALKS"),
    ("sft", "_EPSILON_CACHE"),
    ("sft", "_ETA_CACHE"),
    ("sft", "_XI_CACHE"),
    ("jumps", "_SIDES"),
    ("superpotential", "_WT_CACHE"),
    ("linf", "_BLOCK_PLANS"),
    ("linf", "_ODD_HEAD_PLANS"),
)
# module-level dicts that are constants, not memos
CONSTANT_DICTS = {("cli", "_SIDE_NAMES"), ("cli", "_SUITES"), ("linf", "_EMPTY")}


class TestEveryCacheIsAMemo:
    def test_module_and_engine_memos_are_memos(self):
        plus, minus = normalized("5/4", Side.PLUS), normalized("5/4", Side.MINUS)
        assert gamma(plus, 12) == (7, 5)
        assert superpotential.wt_T(superpotential.CP2Target(), 1, plus) == 1  # 1 on (1, 2)
        assert jumps.jump_general("5/4", (2, 8)) == jumps.jump_via_xi("5/4", (2, 8)) == Fraction(-1, 4)
        assert rounding.verify_aug(3, 3).ok
        assert rounding.psi_factorization(plus, 2).ok
        for layer, name in MODULE_MEMOS:
            memo = getattr(sys.modules[f"ellsuper.{layer}"], name)
            assert isinstance(memo, Memo) and memo, (layer, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("ellsuper."):
                layer = module_name.split(".", 1)[1]
                for name, value in vars(module).items():
                    if isinstance(value, dict) and not name.startswith("__"):
                        assert isinstance(value, Memo) or (layer, name) in CONSTANT_DICTS, (layer, name)
        owners = [
            sft.v_generators(),
            rounding.v_algebra(),
            sft.tilde_epsilon(),
            sft.psi_map(plus),
            linf.identity_morphism(sft.ca_generators()),
            sft.epsilon(minus),
            sft.eta(plus),
            sft.xi(minus, plus),
        ]
        for owner in owners:
            memos = [value for value in vars(owner).values() if isinstance(value, dict)]
            assert memos and all(isinstance(memo, Memo) for memo in memos), owner
        psi = owners[3]  # a letter map: its letter memo is one of the memos checked above
        assert isinstance(psi._letters, Memo) and callable(psi._letters.compute)


    def test_module_memos_compute_their_misses(self):
        for layer, name in MODULE_MEMOS:
            memo = getattr(importlib.import_module(f"ellsuper.{layer}"), name)
            assert callable(memo.compute), (layer, name)


def word_pair():
    return (sft.o_key(1), sft.o_key(2))


class TestNoMemoHoldsItsOwner:
    """A memo's compute holds the rule or the degree function, never its owner,
    so an owner is freed by reference counting alone, with the collector off."""

    @staticmethod
    def assert_freed(build):
        gc.disable()
        try:
            owner, memos = build()
            assert all(memos), memos
            ref = weakref.ref(owner)
            del owner, memos
            assert ref() is None
        finally:
            gc.enable()

    def test_generator_set(self):
        def build():
            gens = linf.GeneratorSet("toy", lambda key: key[1])
            assert [gens.parity(("g", i)) for i in range(4)] == [0, 1, 0, 1]
            return gens, [gens._parity_memo]

        self.assert_freed(build)

    def test_rounding_structure(self):
        def build():
            structure = linf.LinfStructure(sft.v_generators(), rounding._v_rule, arities=(1, 2), odd_heads=True)
            a, b = sft.alpha_key(1, 1), sft.beta_key(1, 0)
            assert linf.check_structure(structure, [(a,), (a, b), (a, sft.alpha_key(1, 2))]).ok
            return structure, [structure._memo, structure.generators._parity_memo]

        self.assert_freed(build)

    def test_epsilon_morphism(self, monkeypatch):
        """eps_a = eps~ ∘ psi_a: eps_a's level memo and psi_a's letter memo
        fill.  eps_a keeps no extension memo and psi_a's stays empty, since
        the composite reads eps~'s extension, memo included, at psi_a's image
        word.  Neither the letter compute nor the composite holds eps_a."""
        built = []
        psi = sft.psi_map
        monkeypatch.setattr(sft, "psi_map", lambda params: built.append(psi(params)) or built[-1])

        def build():
            eps = sft._epsilon(normalized("13/2"))
            (psi_a,) = built
            built.clear()
            assert eps.extend(word_pair())
            assert eps.level(word_pair())
            assert eps._extend_memo is None and not psi_a._extend_memo
            image = tuple(psi_a._letters[key] for key in word_pair())
            assert sft.tilde_epsilon()._extend_memo[image] is eps.extend(word_pair())
            return eps, [eps._level_memo, psi_a._letters]

        self.assert_freed(build)

    def test_composite(self):
        def build():
            plus, minus = normalized("5/4", Side.PLUS), normalized("5/4", Side.MINUS)
            composite = linf.compose(sft.eta(plus), sft.epsilon(minus))
            assert composite.extend(word_pair())
            composite.level(word_pair())  # fills the level memo; Ξ^2(o_1, o_2) is 0 at 5/4
            return composite, [composite._level_memo, composite._extend_memo]

        self.assert_freed(build)

    def test_inverse(self):
        def build():
            inverse = linf.invert(sft._epsilon(normalized("13/2")), lambda key: sft.o_key(key[1]))
            assert inverse.extend((sft.q_key(1), sft.q_key(2)))  # fills H^2, which reads H^1
            return inverse, [inverse._level_memo, inverse._extend_memo]

        self.assert_freed(build)

    def test_eta(self):
        def build():
            params = normalized("17/3")
            eta = sft.eta(params)
            assert eta.level((sft.q_key(1), sft.q_key(2)))
            del sft._ETA_CACHE[params]  # the cache let go; nothing else holds it
            return eta, [eta._level_memo]

        self.assert_freed(build)

    # every morphism the models build: ε̃, an ε_a, its η, a Ξ, ψ_a and the identity
    MODEL_MORPHISMS = {
        "tilde_epsilon": sft.tilde_epsilon,
        "epsilon": lambda: sft.epsilon(normalized("13/2", Side.MINUS)),
        "eta": lambda: sft.eta(normalized("13/2", Side.MINUS)),
        "xi": lambda: sft.xi(normalized("5/4", Side.MINUS), normalized("5/4", Side.PLUS)),
        "psi": lambda: sft.psi_map(normalized("13/2", Side.MINUS)),
        "identity": lambda: linf.identity_morphism(sft.ca_generators()),
    }

    @pytest.mark.parametrize("name", sorted(MODEL_MORPHISMS))
    def test_every_model_morphism_fills_its_levels_from_its_rule(self, name):
        """A morphism's level memo is ``Memo(level_rule)``: its compute is the
        callable rule, which neither binds nor closes over the morphism."""
        morphism = self.MODEL_MORPHISMS[name]()
        compute = morphism._level_memo.compute
        assert callable(compute)
        bound = getattr(compute, "__self__", None)
        held = [bound] if bound is not None else [cell.cell_contents for cell in compute.__closure__ or ()]
        assert all(obj is not morphism for obj in held), held
