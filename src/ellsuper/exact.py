"""Exact arithmetic and deterministic combinatorial enumeration.

All numerics in this package are exact: plain rationals are stdlib
``fractions.Fraction``, and floats are rejected on input.  This module holds
only what the production path calls; the symbolic ε-perturbation of the
spectrum (``DualRational``) and the enumerations that only the brute-force
references need (integer partitions, set partitions, Koszul signs, and the
(p, q)-shuffles that :mod:`ellsuper.linf`'s block plans are checked against)
live in :mod:`ellsuper.oracle`.

:func:`exp_series_pass` is the one exponential-of-series recurrence behind
both recursive counts: the CP² counts of :mod:`ellsuper.superpotential` and
the jumps of :mod:`ellsuper.jumps`.  It runs on integers: each series is one
denominator and a dict of integer numerators, and only the values it returns
are ``Fraction``s.  It can resume from the state of an earlier pass, which
the CP² counts use to recompute only the steps a new signature changes.

:class:`Memo` is the one cache type of the package: a dict that fills a
miss from its ``compute`` and keeps at most ``CACHE_CAP`` entries, evicting
the oldest first, a block at a time.  The lattice walks of
:mod:`ellsuper.orbits`, the ε/η/Ξ morphisms of :mod:`ellsuper.sft`, the
Γ-signature counts of :mod:`ellsuper.superpotential`, the per-ratio jump
tables and sided parameter pairs of :mod:`ellsuper.jumps`, and the block
plans and the parity, level and extension memos of :mod:`ellsuper.linf` are
all ``Memo``s.  Every level memo, of an L∞ structure or morphism alike,
and every module-level memo but the jump tables fills a miss from its
``compute``; the jump tables and the extension memos of an L∞ morphism have
none and are filled through :meth:`Memo.store`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Sequence

__all__ = [
    "CACHE_CAP",
    "LatticePoint",
    "rational",
    "format_rational",
    "vec_add",
    "vec_factorial",
    "aut_size",
    "exp_series_pass",
    "Memo",
]

LatticePoint = tuple  # tuple[int, ...]

# entries kept by each ``Memo``, read at every insert
CACHE_CAP = 4096


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep arithmetic exact.

    A bool is rejected too, by its class as :func:`ellsuper.orbits.is_index`
    does, although ``Fraction(True)`` is 1.  A plain ``Fraction`` is returned
    as it is: it is immutable, and skipping the constructor skips its
    numeric-type checks.
    """
    if value.__class__ is Fraction:
        return value
    if value.__class__ is bool:
        raise TypeError("bools are not accepted; pass an int, Fraction, or 'p/q' string")
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an int, Fraction, or 'p/q' string")
    return Fraction(value)


def format_rational(value: int | Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(value))


def vec_add(*points: Sequence[int]) -> LatticePoint:
    """Componentwise sum of lattice points of equal length."""
    if not points:
        raise ValueError("need at least one point")
    length = len(points[0])
    if any(len(p) != length for p in points):
        raise ValueError("lattice points must have equal length")
    return tuple(sum(comp) for comp in zip(*points))


def vec_factorial(point: Sequence[int]) -> int:
    """(v_1, ..., v_n)! = v_1! * ... * v_n! for a nonnegative lattice point."""
    out = 1
    for comp in point:
        if comp < 0 or comp != int(comp):
            raise ValueError(f"vector factorial needs nonnegative integers, got {point}")
        out *= math.factorial(int(comp))
    return out


def aut_size(items: Sequence) -> int:
    """Order of the symmetry group of a multiset: product of (multiplicity)!."""
    out = 1
    for mult in Counter(items).values():
        out *= math.factorial(mult)
    return out


def exp_series_pass(steps: Iterable[tuple], state: tuple[dict, dict] | None = None) -> dict:
    """Values v_I = P_I! (N_I - Σ over splittings of I into >= 2 parts), all in one pass.

    Each step is ``(I, w(I), aut(I), splits, P_I, N_I)``, and the steps come
    in an order where every part of I precedes I.  ``splits`` yields
    ``(S, I∖S, w(S))`` once for each nonempty proper part S of I, the weight
    w is additive, and ``P_I = (x, y)`` is a lattice point.  With
    F_I = v_I / aut(I) u^{P_I} and E = exp(F), Euler's operator gives

        w(I) (E_I - F_I) = Σ_S w(S) F_S E_{I∖S},
        v_I = P_I! ( N_I - aut(I) Σ_Q [u^Q](E_I - F_I) / Q! ),

    so E_I - F_I comes from smaller parts, then v_I, then E_I.  Zero values
    add no monomial.  Returns {I: v_I}, each an exact ``Fraction``.

    The arithmetic is on integers: E_I is one denominator D_I and a dict of
    integer numerators, and F_S is a reduced numerator over a denominator.
    A step puts its split sum over the ``lcm`` of the split denominators
    (F_S's times D_{I∖S}), divides by w(I) through the denominator, and
    takes out the ``gcd`` of the result; the correction is summed over the
    ``lcm`` of the Q!.  Only v_I is built as a ``Fraction``; adding F_I to
    E_I rescales the series when v_I / aut(I) needs a larger denominator.
    :func:`ellsuper.oracle.exp_series_pass_fractions` is the same pass with
    ``Fraction`` coefficients.

    ``state`` resumes a pass: it is the pair of dicts (F_I monomials, E_I
    series) of the steps already run, keyed by I, and the pass reads the
    parts it needs from them and adds its own steps to them.  The values of
    the steps already run are not returned again.  Without it the pass
    starts empty and keeps its state to itself.
    """
    values: dict = {}
    # I -> (x, y, n, d) with F_I = n/d u^(x, y) in lowest terms, n != 0, and
    # I -> (D_I, {(x, y): numerator}) with E_I = numerators / D_I
    monomials, series = ({}, {}) if state is None else state
    factorial = math.factorial
    gcd, lcm = math.gcd, math.lcm
    for key, weight, aut, splits, (x_out, y_out), base in steps:
        parts = []
        for sub, complement, sub_weight in splits:
            mono = monomials.get(sub)
            if mono is None:
                continue
            x_s, y_s, num_s, den_s = mono
            den_c, nums = series[complement]
            if nums:
                parts.append((x_s, y_s, sub_weight * num_s, den_s * den_c, nums))
        denominator = lcm(*(part[3] for part in parts))
        rest: dict[tuple[int, int], int] = {}  # w(I) (E_I - F_I) = rest / denominator
        for x_s, y_s, factor, split_den, nums in parts:
            factor *= denominator // split_den
            for (x, y), num in nums.items():
                point = (x + x_s, y + y_s)
                rest[point] = rest.get(point, 0) + factor * num
        denominator *= weight
        common = denominator
        for num in rest.values():
            common = gcd(common, num)
            if common == 1:
                break
        if common != 1:
            denominator //= common
            rest = {point: num // common for point, num in rest.items()}
        # Σ_Q [u^Q](E_I - F_I) / Q! = (Σ_Q n_Q M / Q!) / (M D_I), with M the lcm of the Q!
        q_facts = [factorial(x) * factorial(y) for x, y in rest]
        fact_lcm = lcm(*q_facts)
        correction = aut * sum(num * (fact_lcm // q_fact) for num, q_fact in zip(rest.values(), q_facts))
        scale = fact_lcm * denominator
        value = Fraction(
            factorial(x_out) * factorial(y_out) * (base.numerator * scale - correction * base.denominator),
            base.denominator * scale,
        )
        values[key] = value
        if value:
            shared = gcd(value.numerator, aut)
            num_f, den_f = value.numerator // shared, value.denominator * (aut // shared)
            monomials[key] = (x_out, y_out, num_f, den_f)
            grow = den_f // gcd(denominator, den_f)
            if grow != 1:
                denominator *= grow
                rest = {point: num * grow for point, num in rest.items()}
            point = (x_out, y_out)
            rest[point] = rest.get(point, 0) + num_f * (denominator // den_f)
        series[key] = (denominator, rest)
    return values


class Memo(dict):
    """A dict of at most ``CACHE_CAP`` entries; a miss of ``memo[key]`` stores ``compute(key)``.

    Nothing is stored if ``compute`` raises.  Without ``compute`` a miss
    raises KeyError and the memo is filled through :meth:`store`.
    ``compute`` must not hold the memo's owner, which would make the owner a
    reference cycle that only the garbage collector frees.
    """

    __slots__ = ("compute",)

    def __init__(self, compute: Callable | None = None) -> None:
        self.compute = compute

    def __missing__(self, key):
        # inserts itself rather than through ``store``: a miss is the common
        # insert, and the method call was a measurable share of its cost
        compute = self.compute
        if compute is None:
            raise KeyError(key)
        value = compute(key)
        if len(self) >= CACHE_CAP and key not in self:
            self._evict()
        self[key] = value
        return value

    def store(self, key, value):
        """``self[key] = value``, first evicting the oldest entries of a full memo; returns value.

        A full memo drops its oldest ``CACHE_CAP // 16 + 1`` entries at once.
        CPython leaves a deleted dict entry as a hole that iteration skips
        until the dict is next resized, so finding the single oldest entry
        on every insert would rescan the holes left by earlier evictions;
        one scan per block keeps an insert into a full memo O(1) amortised.
        A key already present is overwritten in its place and evicts nothing.
        A miss of ``memo[key]`` inserts the same way.
        """
        if len(self) >= CACHE_CAP and key not in self:
            self._evict()
        self[key] = value
        return value

    def _evict(self) -> None:
        for old in list(islice(self, CACHE_CAP // 16 + 1)):
            del self[old]
