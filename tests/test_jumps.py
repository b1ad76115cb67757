"""Tests for infinitesimal cobordism counts along all three routes."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellsuper import exact, jumps
from ellsuper.exact import Memo
from ellsuper.cli import JUMPS_MAX_BOUND
from ellsuper.jumps import (
    ScanHit,
    jump_cylinder,
    jump_general,
    jump_pants,
    jump_via_xi,
    support_scan,
)
from ellsuper.linf import Word, compose
from ellsuper.oracle import jump_partitions
from ellsuper.orbits import Side, action, gamma_points, jump_set, jump_union, normalized
from ellsuper.sft import o_key, xi
from ellsuper.superpotential import wt_T_infinity


class TestCylinder:
    def test_fixtures(self):
        assert jump_cylinder(2, 2) == 2
        assert jump_cylinder(Fraction(5, 4), 2) == 1
        assert jump_cylinder(Fraction(3, 2), 4) == Fraction(3, 2)

    def test_on_jump_set_equals_a(self):
        for i in range(1, 12):
            for a in jump_set(i):
                assert jump_cylinder(a, i) == a

    def test_off_jump_set_equals_one(self):
        rng = random.Random(4821)
        for _ in range(60):
            i = rng.randint(1, 12)
            a = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            if a in jump_set(i):
                continue
            assert jump_cylinder(a, i) == 1, (a, i)


class TestPants:
    def test_reference_value(self):
        assert jump_pants(Fraction(5, 4), 2, 8) == Fraction(-1, 4)

    def test_vanishes_off_the_jump_locus(self):
        # 17/12 is not in any J_s with s <= 28.
        a = Fraction(17, 12)
        for i, j in ((1, 1), (1, 2), (2, 3), (3, 4)):
            assert jump_pants(a, i, j) == 0

    def test_terms_cancel_at_two_for_unit_indices(self):
        # Hand evaluation: both factorial terms equal 1, so the jump is 0.
        assert jump_pants(2, 1, 1) == 0

    def test_symmetric_in_indices(self):
        for a in (Fraction(5, 4), Fraction(2), Fraction(13, 2)):
            for i, j in ((2, 8), (1, 3), (2, 5)):
                assert jump_pants(a, i, j) == jump_pants(a, j, i)


class TestGeneralRecursion:
    def test_reduces_to_cylinder(self):
        rng = random.Random(90125)
        for _ in range(50):
            i = rng.randint(1, 10)
            a = rng.choice(jump_set(i)) if rng.random() < 0.7 else Fraction(
                rng.randint(1, 30), rng.randint(1, 10)
            )
            assert jump_general(a, (i,)) == jump_cylinder(a, i), (a, i)

    def test_reduces_to_pants(self):
        rng = random.Random(270893)
        for _ in range(50):
            i = rng.randint(1, 6)
            j = rng.randint(1, 6)
            s = rng.randint(1, i + j + 1)
            a = rng.choice(jump_set(s)) if rng.random() < 0.7 else Fraction(
                rng.randint(1, 20), rng.randint(1, 8)
            )
            assert jump_general(a, (i, j)) == jump_pants(a, i, j), (a, i, j)

    def test_reference_value(self):
        assert jump_general(Fraction(5, 4), (2, 8)) == Fraction(-1, 4)

    def test_off_locus_values(self):
        a = Fraction(17, 12)
        assert jump_general(a, (3,)) == 1
        assert jump_general(a, (1, 2)) == 0
        assert jump_general(a, (1, 1, 2)) == 0

    def test_order_invariance(self):
        a = Fraction(5, 4)
        assert jump_general(a, (8, 2)) == jump_general(a, (2, 8))
        assert jump_general(a, (1, 2, 3)) == jump_general(a, (3, 1, 2))

    def test_repeated_indices_match_partition_recursion(self):
        for a in (Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(2, 3)):
            for indices in ((2, 2, 2, 2), (1, 2, 2, 2), (1, 1, 1, 1, 1, 1), (1, 1, 1, 2, 2)):
                assert jump_general(a, indices) == jump_partitions(a, indices), (a, indices)


class TestGeneralCache:
    """A ratio's entry is the largest support scan there: its bound and its nonzero jumps."""

    def test_a_scan_stores_only_nonzero_values(self, monkeypatch):
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        support_scan(9)
        for a in jump_union(range(1, 10)):
            bound, values = jumps._GENERAL_CACHE[a]
            assert bound == 9
            assert values and all(values.values()), a

    def test_covered_tuples_are_read_from_the_scan_zeros_included(self, monkeypatch):
        bound = 8
        support_scan(bound)

        def no_pass(a, plan):
            raise AssertionError(f"a covered tuple ran a pass at a={a}")

        monkeypatch.setattr(jumps, "_ratio_pass", no_pass)
        tuples = [idx for k in (1, 2, 3) for idx in combinations_with_replacement(range(1, bound + 1), k)
                  if sum(idx) + k - 1 <= bound]
        zeros = 0
        for a in jump_union(range(1, bound + 1)):
            for idx in tuples:
                value = jump_general(a, idx)
                assert value == jump_partitions(a, idx), (a, idx)
                zeros += value == 0
        assert zeros > 0

    def test_a_miss_stores_nothing(self):
        support_scan(6)
        before = {a: (bound, dict(values)) for a, (bound, values) in jumps._GENERAL_CACHE.items()}
        assert jump_general(2, (2, 13)) == jump_pants(2, 2, 13)  # scanned ratio, output index 16 > 6
        assert jump_general(Fraction(17, 12), (1, 1, 2)) == 0  # ratio never scanned
        after = {a: (bound, dict(values)) for a, (bound, values) in jumps._GENERAL_CACHE.items()}
        assert after == before

    def test_a_miss_with_no_jump_index_runs_no_pass(self):
        """The theorem answers such a miss at once: 1 on a singleton, 0 on a longer tuple."""

        def no_pass(a, plan):
            raise AssertionError("no pass may run")

        with patch.object(jumps, "_GENERAL_CACHE", Memo()), patch.object(jumps, "_ratio_pass", no_pass):
            assert jump_general(Fraction(1, 13), range(1, 13)) == 0  # p + q = 14: 13 is the first jump index
            assert jump_general(Fraction(1, 2), (1, 3, 4, 6, 7) * 3) == 0  # p + q = 3 divides no i + 1
            assert jump_general(Fraction(1, 2), (1, 3, 4) * 7) == 0
            assert jump_general(Fraction(1, 2), (4,)) == 1
            assert jump_general(Fraction(7, 3), (1, 2, 3, 4, 5, 6, 7, 8)) == 0
            with pytest.raises(AssertionError, match="no pass may run"):
                jump_general(Fraction(1, 2), (2, 4))  # 2 is a jump index
        with patch.object(jumps, "_GENERAL_CACHE", Memo()):
            with pytest.raises(ValueError, match="must be positive"):  # p + q = 2 divides no odd i + 1
                jump_general(Fraction(-1, 3), (2,))

    def test_the_ratio_cap_holds_and_evicted_ratios_recompute(self, monkeypatch):
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        monkeypatch.setattr(exact, "CACHE_CAP", 8)
        bound = 9
        ratios = jump_union(range(1, bound + 1))
        assert len(ratios) > exact.CACHE_CAP
        hits = support_scan(bound)
        assert len(jumps._GENERAL_CACHE) <= exact.CACHE_CAP
        evicted = [a for a in ratios if a not in jumps._GENERAL_CACHE]
        assert evicted
        for hit in hits:
            if hit.a in evicted:
                assert jump_general(hit.a, hit.indices) == hit.value, hit
        for a in evicted:
            for idx in ((1,), (2, 3), (1, 1, 2)):
                assert jump_general(a, idx) == jump_partitions(a, idx), (a, idx)
        assert len(jumps._GENERAL_CACHE) <= exact.CACHE_CAP


def count_passes(monkeypatch):
    """Wrap ``_ratio_pass`` and return the list of the ratios it ran at."""
    ran = []
    ratio_pass = jumps._ratio_pass

    def counted(a, plan):
        ran.append(a)
        return ratio_pass(a, plan)

    monkeypatch.setattr(jumps, "_ratio_pass", counted)
    return ran


class TestTablesOnlyGrow:
    """A scan at or below a ratio's table reads its hits from it, and no table shrinks."""

    FRESH: dict = {}  # bound -> the hits of a scan on an empty cache

    @classmethod
    def fresh(cls, bound):
        if bound not in cls.FRESH:
            with patch.object(jumps, "_GENERAL_CACHE", Memo()):
                cls.FRESH[bound] = support_scan(bound)
        return cls.FRESH[bound]

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=20)
    def test_every_scan_returns_the_hits_of_a_fresh_cache(self, bounds):
        with patch.object(jumps, "_GENERAL_CACHE", Memo()):
            for bound in bounds:
                assert support_scan(bound) == self.fresh(bound), bounds

    def test_a_covered_scan_runs_no_pass(self, monkeypatch):
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        ran = count_passes(monkeypatch)
        support_scan(10)
        assert len(ran) == len(jump_union(range(1, 11))) == 41
        ran.clear()
        for bound in (3, 10, 7, 1, 10):
            support_scan(bound)
        assert jump_general(1, (1, 5)) == jump_partitions(1, (1, 5))
        assert ran == []
        assert {bound for bound, _ in jumps._GENERAL_CACHE.values()} == {10}


class TestIndexValidation:
    """Every route rejects the same inputs with the same message."""

    @pytest.mark.parametrize(
        "route, indices",
        [
            (lambda idx: jump_cylinder(2, *idx), (0,)),
            (lambda idx: jump_cylinder(2, *idx), (-1,)),
            (lambda idx: jump_cylinder(2, *idx), (1.5,)),
            (lambda idx: jump_pants(2, *idx), (0, 1)),
            (lambda idx: jump_pants(2, *idx), (2, 0)),
            (lambda idx: jump_pants(2, *idx), (1, 2.0)),
            (lambda idx: jump_general(2, idx), (2, 0)),
            (lambda idx: jump_general(2, idx), (1.5, 2)),
            (lambda idx: jump_general(2, idx), ()),
            (lambda idx: jump_general(2, idx), ("1", 2)),
            (lambda idx: jump_general(2, idx), ("1", "2")),
            (lambda idx: jump_general(2, idx), (True, 2)),
            (lambda idx: jump_via_xi(2, idx), (2, 0)),
            (lambda idx: jump_via_xi(2, idx), (1.5, 2)),
            (lambda idx: jump_via_xi(2, idx), ()),
        ],
    )
    def test_a_bad_index_raises_one_message(self, route, indices):
        with pytest.raises(ValueError, match=r"orbit indices must be positive integers, got \("):
            route(indices)

    @pytest.mark.parametrize("bound", [2.5, 3.5, Fraction(7, 2), "10", True, False])
    def test_support_scan_rejects_a_non_integer_bound(self, bound):
        with pytest.raises(ValueError, match="bound must be an integer"):
            support_scan(bound)


def listed_splits(idx):
    """The enumeration that jumps._splits replaced: the sub-multisets value by
    value, then each complement I∖S built by one list.remove per letter."""
    subs = [()]
    for value in sorted(set(idx)):
        mult = idx.count(value)
        subs = [sub + (value,) * m for sub in subs for m in range(mult + 1)]
    out = []
    for sub in subs:
        rest = list(idx)
        for i in sub:
            rest.remove(i)
        out.append((sub, tuple(rest), sum(sub) + len(sub)))
    return out


class TestSplits:
    @given(st.lists(st.integers(1, 6), max_size=8).map(lambda xs: tuple(sorted(xs))))
    @example((1, 1, 1, 2, 4, 4))
    @settings(deadline=None, max_examples=150)
    def test_one_product_matches_the_listed_splits(self, idx):
        splits = jumps._splits(idx)
        assert splits == listed_splits(idx)
        assert len(splits) == math.prod(m + 1 for m in Counter(idx).values())
        assert splits[0] == ((), idx, 0)
        assert splits[-1] == (idx, (), sum(idx) + len(idx))
        position = {sub: n for n, (sub, _, _) in enumerate(splits)}
        for sub, _, _ in splits:
            for part, _, _ in listed_splits(sub):
                assert position[part] <= position[sub], (idx, part, sub)


class TestSeededPasses:
    """Each pass seeds its steps with no jump index (no i ∈ I with p + q | i + 1) in closed form."""

    @given(
        p=st.integers(1, 9),
        q=st.integers(1, 9),
        indices=st.lists(st.integers(1, 7), min_size=1, max_size=4),
    )
    @example(p=3, q=4, indices=[1, 1, 6])  # 6 is a jump index: its parts are seeded, I is not
    @example(p=4, q=5, indices=[1, 2])  # no jump index: the theorem's value, no pass
    @example(p=1, q=1, indices=[2, 2, 4])  # w(I) = 11 > p + q = 2, no jump index: the theorem's value, no pass
    @example(p=2, q=1, indices=[2, 2, 5])  # every index a jump index at p + q = 3
    @settings(deadline=None, max_examples=120)
    def test_a_miss_equals_the_partition_recursion(self, p, q, indices):
        """jump_general's miss path, on seeded steps and on steps with a jump index."""
        a = Fraction(p, q)
        with patch.object(jumps, "_GENERAL_CACHE", Memo()):
            assert jump_general(a, indices) == jump_partitions(a, indices), (a, indices)

    def test_the_sides_differ_exactly_at_the_jump_indices(self):
        """Γ⁺_t != Γ⁻_t exactly when p + q | t + 1, that is, when a ∈ J_t: the
        lemma behind the theorem; so a seeded step may read either side."""
        top = 3 * (JUMPS_MAX_BOUND + 1)
        for a in jump_union(range(1, JUMPS_MAX_BOUND + 1)):
            m = a.numerator + a.denominator
            minus, plus = (gamma_points(side, range(1, top + 1)) for side in jumps._sides(a))
            for t, g_minus, g_plus in zip(range(1, top + 1), minus, plus):
                assert (g_minus != g_plus) == ((t + 1) % m == 0) == (a in jump_set(t)), (a, t)

    def test_seeded_steps_hold_the_closed_form(self):
        """On every step with no jump index a pass's values are 1 on singletons and 0 otherwise."""
        plan = jumps._plan(jumps._scan_family(10))
        past_p_plus_q = 0  # seeded steps with w(I) > p + q
        for a in (Fraction(1, 2), Fraction(5, 6), Fraction(7, 4), Fraction(10, 1), Fraction(2, 3)):
            m = a.numerator + a.denominator
            values = jumps._ratio_pass(a, plan)
            for idx, weight, *_ in plan:
                if not has_jump_index(idx, m):
                    past_p_plus_q += weight > m
                    assert values.get(idx, 0) == (1 if len(idx) == 1 else 0), (a, idx)
                    assert jump_partitions(a, idx) == values.get(idx, 0), (a, idx)
        assert past_p_plus_q > 0

    @given(
        p=st.integers(1, 9),
        q=st.integers(1, 9),
        indices=st.lists(st.integers(1, 14), min_size=2, max_size=4),
    )
    @example(p=1, q=1, indices=[2, 4, 6, 8])  # every index even at p + q = 2, w(I) = 24
    @example(p=5, q=4, indices=[7, 7, 10])  # p + q = 9 divides w(I) = 27: the old rule's disjunct
    @settings(deadline=None, max_examples=80)
    def test_tuples_with_no_jump_index_vanish_above_the_cap(self, p, q, indices):
        """The theorem beyond the scanned domain, w(I) > JUMPS_MAX_BOUND + 1, on every route."""
        a = Fraction(p, q)
        m = a.numerator + a.denominator
        indices = tuple(indices)
        assume(not has_jump_index(indices, m) and sum(indices) + len(indices) > JUMPS_MAX_BOUND + 1)
        with patch.object(jumps, "_GENERAL_CACHE", Memo()):
            assert jump_via_xi(a, indices) == 0, (a, indices)
            assert jump_general(a, indices) == 0, (a, indices)
        assert jump_partitions(a, indices) == 0, (a, indices)


def has_jump_index(idx, m):
    """Whether some i ∈ I is a jump index at p + q = m, that is, m | i + 1."""
    return any((i + 1) % m == 0 for i in idx)


def reference_pass(a, plan):
    """The nonzero J^a(I) over a plan from one plain exp_series_pass: no step
    seeded, none pruned, both sides read from their own walks."""
    top = plan[-1][1]
    minus = gamma_points(normalized(a, Side.MINUS), range(top))
    plus = gamma_points(normalized(a, Side.PLUS), range(top))
    steps = []
    for idx, weight, aut, splits in plan:
        x, y = (sum(minus[i][axis] for i in idx) for axis in (0, 1))
        steps.append((idx, weight, aut, splits, plus[weight - 1], Fraction(1, math.factorial(x) * math.factorial(y))))
    return {idx: value for idx, value in exact.exp_series_pass(steps).items() if value}


class TestSupportRule:
    """The theorem: a jump with k >= 2 is nonzero only if some i ∈ I is a jump index."""

    def test_the_rule_holds_on_the_whole_capped_domain(self, monkeypatch):
        """Exhaustive: the scan at the cap equals unseeded, unpruned passes at
        every ratio of ∪_{s <= cap} J_s, and every nonzero jump with k >= 2
        holds a jump index."""
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        support_scan(JUMPS_MAX_BOUND)
        plan = jumps._plan(jumps._scan_family(JUMPS_MAX_BOUND))
        ratios = jump_union(range(1, JUMPS_MAX_BOUND + 1))
        assert set(jumps._GENERAL_CACHE) == set(ratios)
        for a in ratios:
            reference = reference_pass(a, plan)
            assert jumps._GENERAL_CACHE[a] == (JUMPS_MAX_BOUND, reference), a
            m = a.numerator + a.denominator
            assert all(has_jump_index(idx, m) for idx in reference if len(idx) >= 2), a

    def test_reach_is_the_down_closure_of_the_targets(self, monkeypatch):
        """Each pass runs the breadth-first down-closure of the singletons and
        the tuples with a jump index, for every p + q and every bound up to the cap."""
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        ran = {}

        def record(a, plan):
            ran[a] = plan
            return {}

        monkeypatch.setattr(jumps, "_ratio_pass", record)
        for bound in range(3, JUMPS_MAX_BOUND + 1):  # a smaller bound runs no pass
            ran.clear()
            support_scan(bound)
            family = jumps._scan_family(bound)
            for m in range(2, bound + 2):
                closure = {idx for idx in family if len(idx) == 1 or has_jump_index(idx, m)}
                frontier = list(closure)
                while frontier:
                    idx = frontier.pop(0)
                    for i in set(idx) if len(idx) > 1 else ():
                        rest = list(idx)
                        rest.remove(i)
                        rest = tuple(rest)
                        if rest not in closure:
                            closure.add(rest)
                            frontier.append(rest)
                passes = [plan for a, plan in ran.items() if a.numerator + a.denominator == m]
                assert passes, (bound, m)
                for plan in passes:
                    assert [step[0] for step in plan] == [idx for idx in family if idx in closure], (bound, m)

    def test_passes_are_pruned_below_and_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(jumps, "_GENERAL_CACHE", Memo())
        sizes = []
        ratio_pass = jumps._ratio_pass

        def spy(a, plan):
            sizes.append(len(plan))
            return ratio_pass(a, plan)

        monkeypatch.setattr(jumps, "_ratio_pass", spy)
        for bound in (8, JUMPS_MAX_BOUND + 1):
            sizes.clear()
            hits = support_scan(bound)
            assert len(sizes) == len(jump_union(range(1, bound + 1)))
            assert min(sizes) < len(jumps._scan_family(bound)), bound
            if bound == 8:
                assert hits == partition_scan(bound)
            else:
                assert all(jump_pants(hit.a, *hit.indices) == hit.value for hit in hits if len(hit.indices) == 2)


class TestSides:
    """Every route reads a ratio's (a-, a+) parameters from one memo keyed by the ratio."""

    def test_equal_ratios_return_the_identical_pair(self):
        minus, plus = pair = jumps._sides("3/2")
        assert jumps._sides(Fraction(6, 4)) is pair
        assert (minus, plus) == (normalized("3/2", Side.MINUS), normalized("3/2", Side.PLUS))

    def test_the_cap_holds_and_evicted_ratios_recompute(self, monkeypatch):
        monkeypatch.setattr(jumps, "_SIDES", Memo(jumps._SIDES.compute))
        monkeypatch.setattr(exact, "CACHE_CAP", 8)
        ratios = [Fraction(5, 4)] + [Fraction(3 + i, 2) for i in range(19)]
        for a in ratios:
            jumps._sides(a)
            assert len(jumps._SIDES) <= exact.CACHE_CAP
        assert ratios[0] not in jumps._SIDES
        assert jump_via_xi(ratios[0], (2, 8)) == jump_partitions(ratios[0], (2, 8)) == Fraction(-1, 4)
        assert len(jumps._SIDES) <= exact.CACHE_CAP


class TestViaXi:
    def test_reference_value(self):
        assert jump_via_xi(Fraction(5, 4), (2, 8)) == Fraction(-1, 4)

    def test_off_locus_vanishes(self):
        assert jump_via_xi(Fraction(17, 12), (1, 2)) == 0

    def test_matches_recursion_on_jump_locus(self):
        values = sorted({a for s in range(1, 8) for a in jump_set(s)})
        for a in values:
            for indices in ((1,), (3,), (1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3)):
                assert jump_via_xi(a, indices) == jump_general(a, indices), (
                    a,
                    indices,
                )


@st.composite
def jump_problems(draw):
    """(ratio, indices): arity 1-4, indices <= 5, output index Σi + k - 1 <= 12.

    The ratio lies on the candidate locus ∪_{s <= out} J_s three times in four,
    and is otherwise an arbitrary positive rational.
    """
    k = draw(st.integers(1, 4))
    index_budget = 13 - k
    indices = []
    for slot in range(k):
        top = min(5, index_budget - sum(indices) - (k - slot - 1))
        indices.append(draw(st.integers(1, top)))
    out_index = sum(indices) + k - 1
    if draw(st.integers(0, 3)):
        candidates = sorted({a for s in range(1, out_index + 1) for a in jump_set(s)})
        a = draw(st.sampled_from(candidates))
    else:
        a = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 12)))
    return a, tuple(indices)


class TestRoutesDifferential:
    @given(problem=jump_problems())
    @settings(deadline=None, max_examples=150)
    def test_routes_agree(self, problem):
        """Mixed arities at one ratio share a single cached Xi; every route
        must give the same jump."""
        a, indices = problem
        value = jump_general(a, indices)
        assert jump_via_xi(a, indices) == value
        assert jump_partitions(a, indices) == value
        if len(indices) == 1:
            assert jump_cylinder(a, indices[0]) == value
        elif len(indices) == 2:
            assert jump_pants(a, *indices) == value


def partition_scan(bound):
    """The support scan rebuilt from the set-partition recursion: every sorted
    tuple with k >= 2 and output index <= bound, at every ratio of its own
    candidate set ∪_{s <= out} J_s."""
    hits = []

    def build(prefix, minimum):
        out_index = sum(prefix) + len(prefix) - 1
        if len(prefix) >= 2:
            candidates = {a for s in range(1, out_index + 1) for a in jump_set(s)}
            for a in candidates:
                value = jump_partitions(a, prefix)
                if value != 0:
                    hits.append(ScanHit(a, prefix, value))
        for i in range(minimum, bound + 1):
            if out_index + i + 1 <= bound:
                build(prefix + (i,), i)

    build((), 1)
    return tuple(sorted(hits, key=lambda h: (h.a, len(h.indices), h.indices)))


class TestSupportScan:
    def test_matches_partition_recursion_scan(self):
        for bound in range(1, 10):
            assert support_scan(bound) == partition_scan(bound), bound

    def test_finds_reference_hit(self):
        hits = support_scan(11)
        assert ScanHit(Fraction(5, 4), (2, 8), Fraction(-1, 4)) in hits

    def test_small_bound_has_no_hits(self):
        assert support_scan(3) == ()

    @pytest.mark.parametrize("bound", [-1, 0, 1, 2])
    def test_bounds_below_three_hold_no_tuple_of_two(self, bound):
        """A bound <= 0 plans no ratio, and bounds 1 and 2 hold only singletons."""
        with patch.object(jumps, "_GENERAL_CACHE", Memo()):
            assert support_scan(bound) == ()

    def test_hits_agree_with_other_routes(self):
        hits = support_scan(11)
        assert len(hits) > 100
        for hit in hits:
            assert jump_via_xi(hit.a, hit.indices) == hit.value
            if len(hit.indices) == 2:
                assert jump_pants(hit.a, *hit.indices) == hit.value

    def test_hits_lie_on_the_candidate_locus(self):
        for hit in support_scan(9):
            out_index = sum(hit.indices) + len(hit.indices) - 1
            assert any(
                hit.a in jump_set(s) for s in range(1, out_index + 1)
            ), hit

    def test_energy_inequality(self):
        """Total input action covers the output action on every hit."""
        for hit in support_scan(9):
            p = normalized(hit.a)
            out_index = sum(hit.indices) + len(hit.indices) - 1
            total_in = sum(action(p, i) for i in hit.indices)
            assert total_in >= action(p, out_index), hit


class TestFactorization:
    def test_degree_three_chain(self):
        """Composing the breakpoint cobordism maps from just above 1 to
        beyond the last degree-3 candidate rebuilds the infinite-parameter
        weighted count."""
        d = 3
        out_index = 3 * d - 1
        candidates = sorted(
            {a for s in range(1, out_index + 1) for a in jump_set(s) if a > 1}
        )
        composed = None
        for b in candidates:
            step = xi(normalized(b, Side.MINUS), normalized(b, Side.PLUS))
            composed = step if composed is None else compose(step, composed)
        w = Word(tuple([o_key(2)] * d))
        coeff = composed.level(w)[(o_key(out_index),)]
        assert coeff / math.factorial(d) == wt_T_infinity(d) == 32
