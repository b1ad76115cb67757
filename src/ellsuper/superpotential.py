"""Ellipsoidal superpotentials: counts of rational curves in a closed
symplectic target with one negative end on a small ellipsoid.

For a class A with c1(A) >= 2 and ellipsoid parameters a, the weighted count
T̃_A^a (curves asymptotic to the (c1(A)-1)-st Reeb orbit, weighted by its
multiplicity) is defined by the recursion

    T̃_A = Γ_{c1(A)-1}! * ( N_A - Σ  Π_s T̃_{A_s} / (|Aut| * (Σ_s Γ_{c1(A_s)-1})!) )

where N_A = N_A⟨psi^{c1(A)-2} pt⟩ is the stationary descendant of the closed
target, the sum runs over unordered decompositions A = A_1 + ... + A_k with
k >= 2, and Γ_i is the lattice path of E(a).  The unweighted count is
T_A = T̃_A / mult(o_{c1(A)-1}).

For CP^2, classes are degrees d, N_d = 1/(d!)^3 (a special case of the Fano
toric formula N_A = Π_i 1/(A·D_i)!), and decompositions are partitions of d.
T̃_d therefore depends on a only through the Γ-signature
((x_e, y_e))_{e <= d} = (Γ_{3e-1})_{e <= d}.  Summed over all partitions the
recursion has p(d) terms; instead :func:`ellsuper.exact.exp_series_pass`
evaluates it as an exponential of power series, with steps n = 1..d of weight
n, aut 1, splits n = k + (n - k), P_n = Γ_{3n-1} and N_n = 1/(n!)^3.  That is
polynomial in d, and one pass yields T̃_1..T̃_d.  Step n reads only the
first n points of the signature, so a new signature resumes from the kernel
state (F_n, E_n) of the pass run last, after the longest prefix the two share;
only that one pass of state is kept.  Tables sample a in ascending order, so
consecutive signatures differ near their end.  Each value is cached under its
signature in a ``Memo`` (one entry per signature, at most ``CACHE_CAP``), so
parameters with one signature share one entry.  N_n = 1/(n!)^3 is written
out once, in ``_signature_pass``.  Two references check it from outside:
:func:`ellsuper.oracle.wt_T_partitions` sums the recursion over partitions,
and :func:`ellsuper.oracle.cp2_exp_mc` builds exp(Σ_e T̃_e o_{3e-1}), whose
augmentation by :func:`ellsuper.sft.epsilon` must give N_d on single letters.

A degree is an ``int`` >= 1, never a bool.  One check, ``_cp2_degree``,
guards every entry that takes one: :meth:`CP2Target.chern` and ``area``,
through which every count and table reads its degree, :func:`wt_T_infinity`
(so :func:`T_infinity`) and :func:`genfun_check`.  Anything else raises
ValueError.

"Infinite" parameters mean any a > 3d - 1, where every lattice path is
horizontal (the signature ((3e - 1, 0))_{e <= d}); there the generating
function F(x) = 1 + Σ_d T̃_d x^d obeys [x^d] F(x)^{3d} = (3d)!/(d!)^3.
:func:`genfun_check` checks it on integers: it scales F to integer
coefficients and truncates each power at x^d.

As a function of a, T̃_d^a is piecewise constant with potential jumps on the
sets J_{3i-1}, i <= d; :func:`piecewise_table` tabulates it over an interval
with exact values on open subintervals and (Minus, Plus) side values at each
jump.  T_d^a may additionally jump where the orbit identity of o_{3d-1}
changes (at ratios in J_{3d-2}); :func:`normalized_table` includes those.
Between consecutive candidates the signature, and the orbit o_{3d-1} for T,
is constant, so a table evaluates each gap once and reads a candidate's Minus
and Plus values, its limits from below and above, off the gaps on either
side; the tests check them against the per-ratio :func:`wt_T` and :func:`T`.
A table tracks only the points its count reads, Γ_s for s = 2, 5, ..., 3d-1
and, for T, 3d-2 (the step Γ_{3d-2} -> Γ_{3d-1} names o_{3d-1}); the count
is a function of those points alone, so no other Γ_s is kept.  It walks Γ
once, at the first gap.  At a reduced candidate p/q, for each m >= 1, the
mp-th cover of axis 1 and the mq-th of axis 2 tie, with the same m(p+q) - 2
covers below them, so crossing p/q upward moves Γ_{m(p+q)-1} from
(mp - 1, mq) to (mp, mq - 1) and no other point.  Each later gap updates the
tracked indices of that form and reads the count memo on the new signature.
Point queries (:func:`wt_T`, :func:`T`, :func:`embedding_bound`) walk per
ratio, and the tests check every gap's points against such a walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .exact import LatticePoint, Memo, exp_series_pass, rational
from .orbits import Side, SpectrumParams, action, gamma_points, is_index, jump_union, normalized, orbit
from .report import Report

__all__ = [
    "CP2Target",
    "wt_T",
    "T",
    "wt_T_infinity",
    "T_infinity",
    "embedding_bound",
    "PiecewiseTable",
    "piecewise_table",
    "normalized_table",
    "genfun_check",
]


def _cp2_degree(d: object) -> int:
    """``d`` if it is a CP^2 degree, an int >= 1 and not a bool; ValueError otherwise."""
    if not is_index(d, 1):
        raise ValueError(f"CP2 degrees are integers >= 1, got {d!r}")
    return d


class CP2Target:
    """The projective plane with its Fubini-Study form; classes are degrees d >= 1.

    It has no fields: all instances are equal, hash alike and take no attributes.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ or NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "CP2Target()"

    def chern(self, label: object) -> int:
        return 3 * _cp2_degree(label)

    def area(self, label: object) -> Fraction:
        return Fraction(_cp2_degree(label))


# the kernel pass run last: its signature, and the state (n -> F_n, n -> E_n) of its steps
_last_signature: tuple[LatticePoint, ...] = ()
_LAST_STATE: tuple[dict, dict] = ({}, {})


def _signature_pass(signature: tuple[LatticePoint, ...]) -> Fraction:
    """T̃_d for the signature (Γ_{3e-1})_{e <= d}, resuming the last pass.

    Step n of the pass reads only the first n points, so the steps of the
    longest prefix shared with the last pass are kept and the rest rerun; a
    prefix of the last signature reruns its final step alone.
    """
    global _last_signature
    last, (monomials, series) = _last_signature, _LAST_STATE
    shared, limit = 0, min(len(signature) - 1, len(last))
    while shared < limit and signature[shared] == last[shared]:
        shared += 1
    if shared:
        for n in range(shared + 1, len(last) + 1):
            monomials.pop(n, None)
            del series[n]
    else:  # also drops what a pass that did not finish left behind
        monomials.clear()
        series.clear()
    _last_signature = ()
    steps = []
    for n in range(shared + 1, len(signature) + 1):
        splits = zip(range(1, n), range(n - 1, 0, -1), range(1, n))  # (k, n - k, w(k) = k)
        steps.append((n, n, 1, splits, signature[n - 1], Fraction(1, math.factorial(n) ** 3)))
    value = exp_series_pass(steps, _LAST_STATE)[len(signature)]
    _last_signature = signature
    return value


# Γ-signature ((x_e, y_e))_{e <= d} -> T̃_d, one entry per signature, at most CACHE_CAP
_WT_CACHE = Memo(_signature_pass)


def _degree(target: CP2Target, label: object, params: SpectrumParams) -> int:
    if params.n != 2:
        raise ValueError("superpotential counts are defined for two-axis ellipsoids")
    return target.chern(label) // 3  # validates the class; c1 = 3d


def wt_T(target: CP2Target, label: object, params: SpectrumParams) -> Fraction:
    """Weighted count T̃_A^a (multiplicity of the limiting orbit included)."""
    d = _degree(target, label, params)
    return _WT_CACHE[gamma_points(params, range(2, 3 * d, 3))]


def T(target: CP2Target, label: object, params: SpectrumParams) -> Fraction:
    """Unweighted count T_A^a = T̃_A^a / mult(o_{c1(A)-1})."""
    return wt_T(target, label, params) / orbit(params, target.chern(label) - 1).multiplicity


def wt_T_infinity(d: int) -> Fraction:
    """T̃_d for CP^2 at a = infinity (any a > 3d - 1): all paths horizontal."""
    return _WT_CACHE[tuple((3 * e - 1, 0) for e in range(1, _cp2_degree(d) + 1))]


def T_infinity(d: int) -> Fraction:
    """T_d for CP^2 at a = infinity; the limiting orbit has multiplicity 3d - 1."""
    return wt_T_infinity(d) / (3 * d - 1)


def embedding_bound(target: CP2Target, label: object, params: SpectrumParams) -> Fraction | None:
    """Obstruction c from a nonzero count: E(λa) embeds in the (scaled) target
    only if λ <= area(A) / action(o_{c1(A)-1}).

    Returns None when the count vanishes (no obstruction from this class).
    """
    if wt_T(target, label, params) == 0:
        return None
    return target.area(label) / action(params, target.chern(label) - 1)


class PiecewiseTable(NamedTuple):
    """A piecewise-constant function of a on (lo, hi), exact breakpoints kept.

    ``values[i]`` is the constant value on the i-th open interval; ``hi`` is
    None when the last interval extends to infinity (the requested range
    exceeded every candidate discontinuity).
    """

    lo: Fraction
    hi: Fraction | None
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def intervals(self) -> tuple[tuple[Fraction, Fraction | None], ...]:
        ends: tuple[Fraction | None, ...] = self.breakpoints + (self.hi,)
        starts = (self.lo,) + self.breakpoints
        return tuple(zip(starts, ends))

    def value_at(self, a: Fraction, side: Side = Side.CANONICAL) -> Fraction:
        a = rational(a)
        idx = bisect_left(self.breakpoints, a)  # breakpoints below a
        if idx < len(self.breakpoints) and self.breakpoints[idx] == a:
            if side is Side.MINUS:
                return self.values[idx]
            if side is Side.PLUS:
                return self.values[idx + 1]
            raise ValueError(f"{a} is a jump; specify Side.MINUS or Side.PLUS")
        if a <= self.lo or (self.hi is not None and a >= self.hi):
            raise ValueError(f"{a} lies outside the tabulated range")
        return self.values[idx]


def _gaps(
    lo: Fraction, hi: Fraction | None, indices: tuple[int, ...]
) -> Iterator[tuple[Fraction, tuple[LatticePoint, ...]]]:
    """Yield (left end, (Γ_s for s in indices)) for each gap of (lo, hi), ascending.

    The gaps are cut by the candidates of ``jump_union(indices)`` inside
    (lo, hi).  The first gap's points come from one walk at its midpoint (at
    lo + 1 when it is unbounded); every later gap's from the gap below, since
    crossing a reduced b = p/q upward moves Γ_{m(p+q)-1} to (mp, mq - 1) for
    each m >= 1 and no other Γ_s (see the module docstring): b lies in J_s
    exactly when p + q divides s + 1.
    """
    candidates = jump_union(indices)
    end = len(candidates) if hi is None else bisect_left(candidates, hi)
    inner = candidates[bisect_right(candidates, lo) : end]
    first = inner[0] if inner else hi
    points = list(gamma_points(normalized(lo + 1 if first is None else (lo + first) / 2), indices))
    yield lo, tuple(points)
    for b in inner:
        p, q = b.numerator, b.denominator
        for position, s in enumerate(indices):
            m, rest = divmod(s + 1, p + q)
            if not rest:
                points[position] = (m * p, m * q - 1)
        yield b, tuple(points)


def _sweep(
    lo: Fraction,
    hi: Fraction | None,
    indices: tuple[int, ...],
    value_fn: Callable[[tuple[LatticePoint, ...]], Fraction],
) -> PiecewiseTable:
    """Tabulate ``value_fn`` of (Γ_s for s in indices) over (lo, hi), one value per gap.

    A count reads only its tracked points: T̃_d the signature
    (Γ_{3e-1})_{e <= d}, and T also Γ_{3d-2}, whose step to Γ_{3d-1} names
    o_{3d-1}.  Those points change only at the candidates ∪ J_s, so they are
    walked once and updated at each candidate (see ``_gaps``), and a
    candidate's Minus (Plus) side is the value of the gap below (above) it;
    it is kept when they differ.
    """
    if lo < 1:
        raise ValueError(f"tables are defined on subranges of (1, inf); got lo = {lo}")
    if hi is not None and hi <= lo:
        raise ValueError(f"empty range ({lo}, {hi})")
    starts: list[Fraction] = []  # where each value begins; the first is lo, no breakpoint
    values: list[Fraction] = []
    for left, points in _gaps(lo, hi, indices):
        value = value_fn(points)
        if not values or value != values[-1]:
            starts.append(left)
            values.append(value)
    hi_out = None if hi is None or hi > max(indices) else hi  # the largest candidate is max(indices)/1
    return PiecewiseTable(lo, hi_out, tuple(starts[1:]), tuple(values))


def _signature_indices(target: CP2Target, label: object) -> tuple[int, ...]:
    """The indices 2, 5, ..., c1(A) - 1 of the Γ-signature."""
    return tuple(range(2, target.chern(label), 3))


def piecewise_table(
    target: CP2Target,
    label: object,
    lo: int | str | Fraction,
    hi: int | str | Fraction | None,
) -> PiecewiseTable:
    """Tabulate a -> T̃_A^a over (lo, hi); hi = None sweeps to infinity."""
    return _sweep(
        rational(lo),
        None if hi is None else rational(hi),
        _signature_indices(target, label),
        _WT_CACHE.__getitem__,
    )


def normalized_table(
    target: CP2Target,
    label: object,
    lo: int | str | Fraction,
    hi: int | str | Fraction | None,
) -> PiecewiseTable:
    """Tabulate a -> T_A^a; includes the orbit-identity ratios J_{c1(A)-2}."""
    signature = _signature_indices(target, label)
    d = len(signature)

    def unweighted(points: tuple[LatticePoint, ...]) -> Fraction:
        after, before = points[d - 1], points[d]  # Γ_{3d-1}, Γ_{3d-2}
        return _WT_CACHE[points[:d]] / (after[0] if after[0] > before[0] else after[1])

    return _sweep(
        rational(lo),
        None if hi is None else rational(hi),
        (*signature, target.chern(label) - 2),
        unweighted,
    )


def genfun_check(dmax: int) -> Report:
    """Verify [x^d] (1 + Σ T̃_e x^e)^{3d} = (3d)!/(d!)^3 for d = 1..dmax.

    The check runs on integers: F = 1 + Σ T̃_e x^e is put over the ``lcm`` of
    its denominators, so a non-integer count is a failure, not a crash, and
    each power keeps only the terms up to x^d.  It reads the counts through
    :func:`wt_T_infinity` alone and shares no arithmetic with the count path.
    """
    counts = [wt_T_infinity(e) for e in range(1, _cp2_degree(dmax) + 1)]
    scale = math.lcm(*(t.denominator for t in counts))
    base = [scale] + [t.numerator * (scale // t.denominator) for t in counts]  # scale * F
    failures: list[str] = []
    for d in range(1, dmax + 1):
        power = [1] + [0] * d  # (scale * F)^m up to x^d
        for _ in range(3 * d):
            power = [sum(power[i] * base[n - i] for i in range(n + 1)) for n in range(d + 1)]
        power_d = Fraction(power[d], scale ** (3 * d))
        expected = Fraction(math.factorial(3 * d), math.factorial(d) ** 3)
        if power_d != expected:
            failures.append(f"d={d}: [x^d] F^{3 * d} = {power_d}, expected {expected}")
    return Report(dmax, failures)
