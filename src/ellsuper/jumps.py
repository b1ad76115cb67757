"""Jumps of the transfer morphism across a single ratio a.

For a > 0 write a± for the parameters (1, a ± ε) and let
Xi = eta_{a+} ∘ eps_{a-} : C_{a-} -> C_{a+} be the transfer morphism of an
infinitesimally thin cobordism.  Index bookkeeping forces

    ⟨Xi^k(o_{i_1}, ..., o_{i_k}), o_j⟩ = 0 unless j = i_1 + ... + i_k + k - 1,

and the single nontrivial coefficient J^a(i_1, ..., i_k) is the "jump" of the
k-fold transfer at a.  Three independent routes are implemented:

* :func:`jump_cylinder` / :func:`jump_pants` — closed forms for k = 1, 2:
  the cylinder jump is the factorial ratio (Γ^{a+}_i)! / (Γ^{a-}_i)!, equal
  to a on the jump set J_i and 1 elsewhere;
* :func:`jump_general` — the recursion obtained by expanding
  eps_{a-} = eps_{a+} ∘ Xi levelwise and isolating the one-block term:

      J(I) = (Γ^{a+}_j)! / (Σ_s Γ^{a-}_{i_s})!
             - Σ_{set partitions of I into >= 2 blocks}
                 (Γ^{a+}_j)! / (Σ_r Γ^{a+}_{out(B_r)})! * Π_r J(B_r)

  with I = (i_1..i_k), j = out(I) as above and out(B) = Σ_{i∈B} i + |B| - 1.
  The set-partition sum is evaluated over index multisets by
  :func:`ellsuper.exact.exp_series_pass`: the steps are the multisets I of a
  down-closed family, with weight w(I) = out(I) + 1 (index i weighs i + 1),
  aut(I) = Π (multiplicity)!, splits into sub-multisets S and I∖S,
  P_I = Γ^{a+}_{out(I)} and N_I = 1/(Σ_s Γ^{a-}_{i_s})!.  The partitions into
  >= 2 blocks are aut(I) [t^I](E - F) for F = Σ_B J(B)/aut(B) t^B u^{P_B} and
  E = exp(F), so one pass at a ratio yields every jump of the family, and
  repeated indices cost nothing extra.  :func:`_splits` builds the splits
  of I in one product over its runs of equal indices, whose order lists every
  part of I before I.  The set-partition recursion itself is kept as the
  reference :func:`ellsuper.oracle.jump_partitions`;
* :func:`jump_via_xi` — direct evaluation through the L-infinity engine.

Every route reads the parameters (1, a-) and (1, a+) of a ratio from one
``Memo`` keyed by the ratio, so equal ratios share one identical pair, and
the ε/η/Ξ memos of :mod:`ellsuper.sft` and the lattice walks of
:mod:`ellsuper.orbits` that are keyed by it find their entries by identity.

Let a = p/q in lowest terms and m = p + q.  The ratio a lies in
J_s = {i/(j + 1) : i + j = s} exactly when m divides s + 1 (write i = tp
and j + 1 = tq), and Γ_s changes exactly when a crosses a value in J_s, so
Γ^{a+}_t != Γ^{a-}_t exactly when m | t + 1.  Call such a t a jump index
of a.  The jumps of the tuples that hold none are known in closed form:

  Theorem.  If no i ∈ I is a jump index of a, then J^a(I) = 1 for |I| = 1
  and J^a(I) = 0 for |I| >= 2.

  Proof, by induction on |I|.
  1. |I| = 1, I = (i): J(I) = (Γ^{a+}_i)! / (Γ^{a-}_i)! = 1, since i is
     not a jump index, so Γ^{a+}_i = Γ^{a-}_i.
  2. |I| >= 2: every block B of a partition of I into >= 2 blocks is a
     proper part of I and holds no jump index either, so by induction
     J(B) = 0 if |B| >= 2 and J(B) = 1 if |B| = 1.
  3. Hence the only term left in the recursion's sum is the partition
     into singletons, and since out((i)) = i it reads
     (Γ^{a+}_j)! / (Σ_s Γ^{a+}_{i_s})! * 1.
  4. No i_s is a jump index, so Γ^{a+}_{i_s} = Γ^{a-}_{i_s} for every s,
     and this term equals the one-block term
     (Γ^{a+}_j)! / (Σ_s Γ^{a-}_{i_s})!.  So J(I) = 0.
     Whether the output index j is a jump index never enters.  ∎

So at every bound a jump J^a(I) with k >= 2 is nonzero only if some
i ∈ I is a jump index of a, that is, a ∈ J_i for some i ∈ I.

Every pass seeds the steps that hold no jump index in closed form.  Those
steps form a down-closed family, since a part of I holds only indices of I.
By the theorem F_I is u^{Γ⁺_i} for I = (i) and 0 otherwise there, so
E_I = [t^I] exp(Σ_i t^i u^{Γ_i}) is u^{Σ_s Γ_{i_s}} / aut(I).  The pass
puts these monomials and series into :func:`exact.exp_series_pass`'s
``state`` and runs only the steps with a jump index, on every route that
runs a pass.

:func:`support_scan` enumerates every nonzero k >= 2 jump with output index
up to a bound B, one pass per candidate ratio.  Its targets are the
singletons and the tuples with a jump index; by the theorem every other
tuple's jump is 0.  Each pass runs the down-closure of the targets in the
family, which is a family again.  A tuple I with |I| >= 2 and no jump
index lies below a target exactly when w(I) + m <= B + 1: a target T above
I holds a jump index i ∉ I, of weight i + 1 >= m, so
w(I) + m <= w(T) <= B + 1; conversely I with the index m - 1 added is a
target of weight w(I) + m.  That test reads only m and B, so one plan is
filtered once per m.

A ``Memo`` keyed by ratio keeps, per ratio, what the scan of the largest
bound there found: the bound and the nonzero jumps of every index tuple
with output index up to it.  A jump does not depend on the bound, so a scan
at or below that bound reads the table and runs no pass.
:func:`jump_general` reads a covered tuple from it, a missing entry being
0.  Any other tuple with no jump index takes the theorem's value at once,
and the rest run one pass without storing it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import Memo, aut_size, exp_series_pass, rational, vec_add, vec_factorial
from .orbits import Side, SpectrumParams, check_index, gamma, gamma_points, jump_union, normalized, orbit_indices
from .sft import o_key, xi

__all__ = [
    "jump_cylinder",
    "jump_pants",
    "jump_general",
    "jump_via_xi",
    "ScanHit",
    "support_scan",
]

# ratio a -> (normalized(a, MINUS), normalized(a, PLUS))
_SIDES = Memo(lambda a: (normalized(a, Side.MINUS), normalized(a, Side.PLUS)))


def _sides(a: int | str | Fraction) -> tuple[SpectrumParams, SpectrumParams]:
    """The (a-, a+) parameters of a ratio; equal ratios return the identical pair."""
    return _SIDES[rational(a)]


def jump_cylinder(a: int | str | Fraction, i: int) -> Fraction:
    """k = 1 jump: (Γ^{a+}_i)! / (Γ^{a-}_i)!; equals a on J_i and 1 otherwise."""
    orbit_indices((i,))
    minus, plus = _sides(a)
    return Fraction(vec_factorial(gamma(plus, i)), vec_factorial(gamma(minus, i)))


def jump_pants(a: int | str | Fraction, i: int, j: int) -> Fraction:
    """k = 2 jump in closed form."""
    orbit_indices((i, j))
    minus, plus = _sides(a)
    out_index = i + j + 1
    numerator = vec_factorial(gamma(plus, out_index))
    term_minus = Fraction(numerator, vec_factorial(vec_add(*gamma_points(minus, (i, j)))))
    term_plus = (
        Fraction(numerator, vec_factorial(vec_add(*gamma_points(plus, (i, j)))))
        * jump_cylinder(a, i)
        * jump_cylinder(a, j)
    )
    return term_minus - term_plus


# ratio a -> (bound, {sorted I with out(I) <= bound: J^a(I) != 0}) of the largest support_scan at a
_GENERAL_CACHE = Memo()
_ZERO = Fraction(0)  # a tuple missing from its scan's table or its pass's values, or one with no jump index
_ONE = Fraction(1)  # the jump of a singleton that is no jump index


def _splits(idx: tuple[int, ...]) -> list[tuple]:
    """Every (S, I∖S, w(S)) for the sub-multisets S of the sorted tuple ``idx``, in product order.

    Each run of a value i with multiplicity m puts c copies of i in S and
    m - c in I∖S, for c = 0..m, with the last run varying fastest; both
    tuples stay sorted.  () comes first, ``idx`` last, and every S after
    each of its own sub-multisets.
    """
    out = [((), (), 0)]
    for value, mult in Counter(idx).items():
        out = [(sub + (value,) * c, rest + (value,) * (mult - c), weight + c * (value + 1))
               for sub, rest, weight in out for c in range(mult + 1)]
    return out


def _plan(family: Iterable[tuple[int, ...]]) -> list[tuple]:
    """Per multiset I of a down-closed family, in the family's order: (I, w(I), aut(I), splits).

    The family lists every part of I before I, and its last multiset is the
    heaviest.  The weight of an index i is i + 1, so w(I) = out(I) + 1.  The
    splits are :func:`_splits` of I without () and I itself; none of this
    depends on the ratio, so one plan serves every ratio.
    """
    return [(idx, sum(idx) + len(idx), aut_size(idx), _splits(idx)[1:-1]) for idx in family]


def _ratio_pass(a: Fraction, plan: list[tuple]) -> dict[tuple[int, ...], Fraction]:
    """The nonzero J^a(I) over the multisets I of a plan, from one :func:`exact.exp_series_pass`.

    The steps that hold no jump index (no i ∈ I with p + q | i + 1) are
    seeded in closed form (module docstring); the pass resumes from them and
    gets P_I = Γ⁺_{out(I)} and N_I = 1/(Σ_s Γ⁻_{i_s})! for the rest.
    """
    m = a.numerator + a.denominator
    g_minus, g_plus = (gamma_points(side, range(plan[-1][1])) for side in _sides(a))
    x_minus = [point[0] for point in g_minus]  # Γ_i = (x, i - x)
    values, monomials, series = {}, {}, {}
    bases: dict[tuple[int, int], Fraction] = {}  # Σ_s Γ⁻_{i_s} -> N_I
    steps = []
    for idx, weight, aut, splits in plan:
        x_in = sum(map(x_minus.__getitem__, idx))
        point = (x_in, weight - len(idx) - x_in)
        if all((i + 1) % m for i in idx):
            if len(idx) == 1:
                values[idx] = _ONE
                monomials[idx] = (*g_plus[weight - 1], 1, 1)
            series[idx] = (aut, {point: 1})
            continue
        base = bases.get(point)
        if base is None:
            base = bases[point] = Fraction(1, math.factorial(point[0]) * math.factorial(point[1]))
        steps.append((idx, weight, aut, splits, g_plus[weight - 1], base))
    for idx, value in exp_series_pass(steps, (monomials, series)).items():
        if value:
            values[idx] = value
    return values


def jump_general(a: int | str | Fraction, indices: Sequence[int]) -> Fraction:
    """Arbitrary-arity jump via the exp-series form of the transfer recursion.

    A tuple whose output index a :func:`support_scan` at ``a`` covered is read
    from that scan's nonzero values, a missing entry being 0: the scan ran
    every sorted tuple up to its bound.  Any other tuple that holds no jump
    index of a positive ``a`` takes the theorem's value at once (module
    docstring): 1 for a singleton, 0 otherwise.  The rest run one pass over
    the sub-multisets of the sorted indices in :func:`_splits` order, with
    Π (m + 1)(m + 2)/2 splits over the multiplicities m, and store nothing.
    """
    a = rational(a)
    idx = orbit_indices(indices)
    scanned = _GENERAL_CACHE.get(a)
    if scanned is not None and sum(idx) + len(idx) - 1 <= scanned[0]:
        return scanned[1].get(idx, _ZERO)
    m = a.numerator + a.denominator
    if a > 0 and all((i + 1) % m for i in idx):
        return _ONE if len(idx) == 1 else _ZERO
    return _ratio_pass(a, _plan(sub for sub, _, _ in _splits(idx)[1:])).get(idx, _ZERO)


def jump_via_xi(a: int | str | Fraction, indices: Sequence[int]) -> Fraction:
    """Arbitrary-arity jump read off the L-infinity transfer morphism."""
    idx = orbit_indices(indices)
    minus, plus = _sides(a)
    morphism = xi(minus, plus)
    word = tuple(o_key(i) for i in idx)
    out_index = sum(idx) + len(idx) - 1
    return morphism.level(word)[(o_key(out_index),)]


class ScanHit(NamedTuple):
    """One nonzero higher jump found by :func:`support_scan`."""

    a: Fraction
    indices: tuple[int, ...]
    value: Fraction


def _scan_family(bound: int) -> tuple[tuple[int, ...], ...]:
    """Every sorted index tuple with output index Σi + k - 1 <= bound, in weight order."""
    family: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], minimum: int, room: int) -> None:
        # room = bound + 1 - w(prefix): the weight still free
        for i in range(minimum, room):
            family.append(prefix + (i,))
            build(prefix + (i,), i, room - i - 1)

    build((), 1, bound + 1)
    return tuple(sorted(family, key=lambda idx: (sum(idx) + len(idx), len(idx), idx)))


def support_scan(bound: int) -> tuple[ScanHit, ...]:
    """All nonzero jumps with k >= 2 inputs and output index Σi + k - 1 <= bound.

    The ratio a ranges over ∪_{s <= bound} J_s; nonzero jumps cannot occur
    elsewhere.  A ratio whose table in ``_GENERAL_CACHE`` is from a bound at
    least this one reads its hits from it; at every other ratio one pass
    gives the jump of every index tuple up to the bound, and its nonzero
    values become the ratio's table, so a table only grows.  Only such a
    ratio builds the plan.  Each pass seeds its steps with no jump index in
    closed form and runs only the down-closure of the singletons and the
    steps with a jump index, filtered from one plan once per p + q; the
    module docstring proves both.
    """
    check_index(bound, None, "bound")  # a bound <= 0 plans no ratio
    plan = None  # built only for a ratio whose table is missing or from a smaller bound
    kept: dict[int, list[tuple]] = {}  # p + q -> the down-closure of its targets
    hits: list[ScanHit] = []
    for a in jump_union(range(1, bound + 1)):
        table = _GENERAL_CACHE.get(a)
        if table is None or table[0] < bound:
            if plan is None:
                plan = _plan(_scan_family(bound))
            m = a.numerator + a.denominator
            steps = kept.get(m)
            if steps is None:
                steps = kept[m] = [step for step in plan if len(step[0]) == 1 or step[1] + m <= bound + 1
                                   or any((i + 1) % m == 0 for i in step[0])]
            table = _GENERAL_CACHE.store(a, (bound, _ratio_pass(a, steps)))
        hits += [ScanHit(a, idx, value) for idx, value in table[1].items()
                 if len(idx) >= 2 and sum(idx) + len(idx) - 1 <= bound]
    hits.sort(key=lambda h: (h.a, len(h.indices), h.indices))
    return tuple(hits)
