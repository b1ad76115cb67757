"""Reeb spectrum of an ellipsoid and its lattice-path bookkeeping.

The boundary of the ellipsoid E(a_1, ..., a_n) carries one simple closed Reeb
orbit per axis; the m-fold cover of the axis-i orbit has action m * a_i.  When
some ratio a_i / a_j is rational these actions collide, so the spectrum is
ordered after a symbolic first-order perturbation of the parameters:

* ``Side.CANONICAL`` multiplies each a_i by (1 + i*ε), which separates every
  tie for an arbitrary number of axes;
* ``Side.PLUS`` / ``Side.MINUS`` (two axes only) perturb the second parameter
  to a_2 ± ε, modelling evaluation just above / below a rational ratio.

``gamma(params, k)`` is the lattice point Γ_k recording how many covers of
each axis orbit appear among the k smallest actions; equivalently it is the
unique minimizer of max_i(perturbed a_i * v_i) over nonnegative integer
vectors with v_1 + ... + v_n = k.

The perturbation only decides ties, so the production path never evaluates
it.  The parameters are scaled once to integers A_i = a_i * lcm(denominators),
and the tie rule becomes an integer rank per axis:

* CANONICAL: the lower axis goes first (rank_i = i);
* PLUS: axis 1 goes first;
* MINUS: axis 2 goes first.

The m-th cover of axis i then has the key (m * A_i, rank_i), and the spectrum
is the integer merge of the n progressions in key order.  ``gamma`` and
``orbit`` read a memoized prefix of that merge, one walk per parameter set
(an ``exact.Memo`` of at most ``CACHE_CAP`` walks; the oldest go first), and
``gamma_points`` reads several indices from one walk lookup.

``SpectrumParams`` keys this memo and those of :mod:`ellsuper.sft`, so it
validates its parameters and side and computes its hash once, when it is
built; it is a slotted class and ``OrbitId`` a named tuple, because
importing the dataclass machinery was a large share of the CLI's start-up.

``gamma_closed_form(params, k)`` answers one index without walking.  The
covers of axis j with key at most (T, r) number ⌊T / A_j⌋ when rank_j <= r
and ⌊(T - 1) / A_j⌋ otherwise.  For each axis i, bisection finds the smallest
m with at least k covers up to (m * A_i, rank_i); the least of these n keys
is the k-th cover, and the per-axis counts up to it are Γ_k.  That costs
O(n^2 log k) and memoizes nothing.  ``gamma_range`` starts there and takes
integer steps, which is how the CLI answers ``gamma --k lo..hi``.

The perturbation spelled out as dual numbers (``DualRational``,
``perturbed_value``, ``action_dual``) lives in :mod:`ellsuper.oracle` as the
independent reference route; the test suite checks the walk and the closed
form against it.

An index is an int, not a bool or a float, at or above a lower end:
:func:`is_index` is that one rule, and :func:`check_index` raises
ValueError where it fails.  Every entry here that takes an index or a degree
(``gamma``, ``gamma_points``, ``gamma_closed_form``, ``gamma_range``,
``orbit``, ``action``, ``jump_set``, ``jump_union``,
``candidate_discontinuities``) checks it so, several indices in one loop
(a range at its ends); and so do the degree rules of :mod:`ellsuper.sft`,
the CP² degree of :mod:`ellsuper.superpotential` and the bound of
:func:`ellsuper.jumps.support_scan`.  ``orbit_indices`` is the check of the
orbit indices that the jump routes and :func:`ellsuper.sft.local_descendant`
take: it returns them sorted, or raises ValueError unless each is an index
>= 1.  Each of these checks runs before any memo is read.  The L∞
morphisms of :mod:`ellsuper.sft` are the exception: their memos are keyed by
words, and ``('o', True) == ('o', 1)`` with the same hash, so a word with a
bool index raises only while the word with the int is not stored.  After
``epsilon(p).level((('o', 1),))``, ``epsilon(p).level((('o', True),))``
returns the same q_1.

``jump_set(k)`` = {1/k, 2/(k-1), ..., k/1} collects the two-axis ratios at
which Γ_k changes; i/(k-i+1) ascends in i, so no sort is needed.
``jump_union(indices)`` is the ascending, deduplicated union of these sets.
It orders and deduplicates i/(s-i+1) on the exact integer key
i * (L // (s-i+1)), L = lcm(1..max s), so the only ``Fraction`` objects it
builds are the survivors, and none is compared or hashed before then.
``candidate_discontinuities`` is the slice of the union over the indices
3i - 1 relevant to degree-d curve counts that lies above a lower end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import LatticePoint, Memo, format_rational, rational

__all__ = [
    "Side",
    "OrbitId",
    "SpectrumParams",
    "normalized",
    "gamma",
    "gamma_points",
    "is_index",
    "check_index",
    "orbit_indices",
    "gamma_closed_form",
    "gamma_range",
    "orbit",
    "action",
    "jump_set",
    "jump_union",
    "candidate_discontinuities",
]


class Side(Enum):
    """Which symbolic perturbation resolves rational ties in the spectrum."""

    MINUS = "minus"
    CANONICAL = "canonical"
    PLUS = "plus"

    def suffix(self) -> str:
        return {"minus": "-", "canonical": "", "plus": "+"}[self.value]


class OrbitId(NamedTuple):
    """A closed Reeb orbit: the ``multiplicity``-fold cover of the ``axis`` orbit (1-based axis)."""

    axis: int
    multiplicity: int

    def __str__(self) -> str:
        return f"nu{self.axis}^{self.multiplicity}"


class SpectrumParams:
    """Ellipsoid parameters plus the tie-breaking side; immutable and hashable.

    ``a`` is a tuple of positive rationals (ints and 'p/q' strings are
    coerced), and ``side`` must be a :class:`Side`.  PLUS/MINUS sides are
    only meaningful for two axes.  Every spectrum memo is keyed by these
    parameters, so the hash is computed once, here.
    """

    __slots__ = ("a", "side", "_hash")

    a: tuple[Fraction, ...]
    side: Side

    def __init__(self, a: Iterable[int | str | Fraction], side: Side = Side.CANONICAL) -> None:
        coerced = tuple(rational(x) for x in a)
        if not coerced:
            raise ValueError("need at least one ellipsoid parameter")
        if any(x <= 0 for x in coerced):
            raise ValueError(f"ellipsoid parameters must be positive, got {coerced}")
        if not isinstance(side, Side):
            raise ValueError(f"side must be Side.MINUS, Side.CANONICAL or Side.PLUS, got {side!r}")
        if side is not Side.CANONICAL and len(coerced) != 2:
            raise ValueError("PLUS/MINUS sides are defined for two-axis ellipsoids only")
        init = object.__setattr__
        init(self, "a", coerced)
        init(self, "side", side)
        init(self, "_hash", hash((coerced, side)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"SpectrumParams is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"SpectrumParams is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # rebuild through __init__: the cached hash is per process
        return SpectrumParams, (self.a, self.side)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.side is other.side

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SpectrumParams(a={self.a!r}, side={self.side!r})"

    @property
    def n(self) -> int:
        return len(self.a)

    def describe(self) -> str:
        return ",".join(format_rational(x) for x in self.a) + self.side.suffix()


def normalized(a: int | str | Fraction, side: Side = Side.CANONICAL) -> SpectrumParams:
    """Parameters for the normalized ellipsoid E(1, a)."""
    return SpectrumParams((Fraction(1), rational(a)), side)


def _integer_actions(params: SpectrumParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer actions A_i = a_i * lcm(denominators) and the tie rank of each axis (0-based).

    Ranks order tied covers: CANONICAL and PLUS put the lower axis first,
    MINUS puts axis 2 first.
    """
    scale = math.lcm(*(x.denominator for x in params.a))
    actions = tuple(x.numerator * (scale // x.denominator) for x in params.a)
    ranks = (1, 0) if params.side is Side.MINUS else tuple(range(params.n))
    return actions, ranks


class _Walk:
    """Integer merge of the progressions m * A_i, from a start point (Γ_0 by default).

    ``points[j]`` is the lattice point j steps after the start and ``axes[j - 1]``
    the (1-based) axis whose cover was taken at step j.
    """

    __slots__ = ("actions", "order", "counts", "levels", "axes", "points")

    def __init__(self, params: SpectrumParams, start: LatticePoint | None = None) -> None:
        self.actions, ranks = _integer_actions(params)
        # axes in rank order, so a strict comparison keeps the tie rule
        self.order = sorted(range(params.n), key=ranks.__getitem__)
        self.counts = list(start) if start is not None else [0] * params.n
        self.levels = [(c + 1) * a for c, a in zip(self.counts, self.actions)]  # next cover's action
        self.axes: list[int] = []
        self.points: list[LatticePoint] = [tuple(self.counts)]

    def ensure(self, k: int) -> None:
        todo = k + 1 - len(self.points)
        if todo <= 0:
            return
        actions, counts, levels = self.actions, self.counts, self.levels
        first, rest = self.order[0], self.order[1:]
        add_axis, add_point = self.axes.append, self.points.append
        for _ in range(todo):
            best = first
            for i in rest:
                if levels[i] < levels[best]:
                    best = i
            counts[best] += 1
            levels[best] += actions[best]
            add_axis(best + 1)
            add_point(tuple(counts))


_WALKS = Memo(_Walk)


def _walk(params: SpectrumParams, k: int) -> _Walk:
    walk = _WALKS[params]
    walk.ensure(k)
    return walk


def is_index(k: object, low: int | None) -> bool:
    """The one index rule: ``k`` is an int, not a bool or a float, and k >= ``low``
    (any int when ``low`` is None)."""
    return k.__class__ is int and (low is None or k >= low)


def check_index(k: int, low: int | None, name: str = "k") -> int:
    """``k`` if :func:`is_index` holds; ValueError naming ``name`` otherwise."""
    if not is_index(k, low):
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {k!r}")
    return k


def _check_indices(indices: Iterable[int], low: int) -> tuple[int, ...]:
    """The indices as a tuple if :func:`is_index` holds for each; otherwise
    :func:`check_index`'s ValueError for the first that fails.  The rule is
    inlined in one loop, which on a few indices is cheaper than a call per
    index or a set of their classes; a range holds only ints and has its
    least at one end, so only its ends are checked."""
    ks = tuple(indices)
    for k in ks[:1] + ks[-1:] if indices.__class__ is range else ks:
        if k.__class__ is not int or k < low:
            check_index(k, low)
    return ks


def gamma(params: SpectrumParams, k: int) -> LatticePoint:
    """Γ_k: per-axis cover counts among the k smallest perturbed actions."""
    return _walk(params, check_index(k, 0)).points[k]


def gamma_points(params: SpectrumParams, indices: Iterable[int]) -> tuple[LatticePoint, ...]:
    """(Γ_k for k in indices), read from one walk."""
    indices = _check_indices(indices, 0)
    points = _walk(params, max(indices, default=0)).points
    return tuple(points[k] for k in indices)


def orbit_indices(indices: Sequence[int]) -> tuple[int, ...]:
    """The orbit indices sorted; raises ValueError unless there are some and each is an int >= 1."""
    try:
        idx = _check_indices(sorted(indices), 1)
    except (TypeError, ValueError):  # not iterable, values that do not compare, or no index >= 1
        idx = ()
    if not idx:
        raise ValueError(f"orbit indices must be positive integers, got {indices}")
    return idx


def gamma_closed_form(params: SpectrumParams, k: int) -> LatticePoint:
    """Γ_k without walking: O(n^2 log k) integer operations, nothing memoized.

    The k-th cover is the smallest key (m * A_i, rank_i) below which (key
    included) lie at least k covers; per axis the smallest such m is found
    by bisection, and Γ_k counts the covers of each axis up to the least key.
    """
    if check_index(k, 0) == 0:
        return (0,) * params.n
    actions, ranks = _integer_actions(params)

    def covers(level: int, rank: int) -> list[int]:
        # per axis, the covers with key <= (level, rank); a cover of action
        # exactly `level` counts only on axes ranked no later than `rank`
        return [(level if r <= rank else level - 1) // a for a, r in zip(actions, ranks)]

    least = None
    for action_i, rank in zip(actions, ranks):
        lo, hi = 1, k  # the k-th cover of axis i has at least k covers up to it
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(covers(mid * action_i, rank)) >= k:
                hi = mid
            else:
                lo = mid + 1
        if least is None or (lo * action_i, rank) < least:
            least = (lo * action_i, rank)
    return tuple(covers(*least))


def gamma_range(params: SpectrumParams, lo: int, hi: int) -> list[LatticePoint]:
    """[Γ_lo, ..., Γ_hi]: the closed form at lo, then integer steps; nothing memoized."""
    check_index(hi, check_index(lo, 0, "lo"), "hi")
    walk = _Walk(params, gamma_closed_form(params, lo))
    walk.ensure(hi - lo)
    return walk.points


def orbit(params: SpectrumParams, k: int) -> OrbitId:
    """The k-th closed orbit (k >= 1) in increasing perturbed action."""
    walk = _walk(params, check_index(k, 1, "orbit index"))
    axis = walk.axes[k - 1]
    return OrbitId(axis, walk.points[k][axis - 1])


def action(params: SpectrumParams, k: int) -> Fraction:
    """Unperturbed action of the k-th orbit (the ε-free part; side-independent)."""
    o = orbit(params, k)
    return params.a[o.axis - 1] * o.multiplicity


def jump_set(k: int) -> tuple[Fraction, ...]:
    """J_k = {i/(j+1) : i + j = k, i >= 1, j >= 0}, ascending.

    For the normalized ellipsoid E(1, a), Γ_k changes exactly when a crosses
    a value in J_k.
    """
    check_index(k, 1)
    return tuple(Fraction(i, k - i + 1) for i in range(1, k + 1))  # ascends in i


def jump_union(indices: Iterable[int]) -> tuple[Fraction, ...]:
    """The union of J_s over ``indices``, ascending and deduplicated.

    With L = lcm(1..max s), i/(s-i+1) = key / L for the integer key
    i * (L // (s-i+1)), so the ratios are ordered and deduplicated on their
    keys, and a ``Fraction`` is built once per distinct ratio.  The largest
    ratio is max(indices)/1.
    """
    indices = set(_check_indices(indices, 1))  # checked first, so True does not merge with 1
    if not indices:
        return ()
    scale = math.lcm(*range(1, max(indices) + 1))
    ratios: dict[int, tuple[int, int]] = {}
    for s in indices:
        for i in range(1, s + 1):
            ratios.setdefault(i * (scale // (s - i + 1)), (i, s - i + 1))
    return tuple(Fraction(*ratios[key]) for key in sorted(ratios))


def candidate_discontinuities(d: int, lower: int | str | Fraction) -> tuple[Fraction, ...]:
    """Potential jump locations of degree-<= d counts: union of J_{3i-1}, i = 1..d.

    Only values strictly greater than ``lower`` are returned, sorted ascending
    and deduplicated.
    """
    values = jump_union(range(2, 3 * check_index(d, 1, "d"), 3))
    return values[bisect_right(values, rational(lower)):]
