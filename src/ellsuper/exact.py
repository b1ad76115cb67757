"""Exact arithmetic and deterministic combinatorial enumeration.

All numerics in this package are exact: plain rationals are stdlib
``fractions.Fraction`` (aliased ``Rational``).  :class:`DualRational` is a
rational number carrying an infinitesimal first-order term (``a + b*eps``
with ``eps**2 = 0``), ordered lexicographically; it spells out the symbolic
perturbation that breaks ties in the Reeb spectrum.  It is the oracle's
reference route (:mod:`ellsuper.oracle` and the tests): the production
lattice walk in :mod:`ellsuper.orbits` breaks the same ties by an integer
rank and never builds one.

The enumeration helpers are all deterministic and ordered, since downstream
recursions sum over them and tests freeze their output:

* :func:`partitions` — weakly decreasing positive parts, descending lex;
* :func:`compositions` — fixed-length nonnegative tuples, first part descending;
* :func:`shuffles` — (p, q)-shuffles as position permutations;
* :func:`ordered_shuffles` — block-increasing permutations for ascending block
  sizes, one representative per set partition with those block sizes;
  both shuffle enumerations are memoized, one entry per block-size tuple
  actually asked for;
* :func:`set_partitions` — all set partitions, blocks ordered by minimum;
* :func:`koszul_sign` — the sign a permutation picks up acting on graded
  letters (each crossing of two odd letters contributes -1).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, total_ordering
from itertools import combinations
from typing import Iterator, Sequence

__all__ = [
    "Rational",
    "LatticePoint",
    "Permutation",
    "DualRational",
    "rational",
    "format_rational",
    "vec_add",
    "vec_factorial",
    "partitions",
    "aut_size",
    "compositions",
    "shuffles",
    "ordered_shuffles",
    "set_partitions",
    "koszul_sign",
]

Rational = Fraction
LatticePoint = tuple  # tuple[int, ...]
Permutation = tuple  # tuple[int, ...]; sigma[slot] = original position (0-based)

_ZERO = Fraction(0)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep arithmetic exact."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an int, Fraction, or 'p/q' string")
    return Fraction(value)


def format_rational(value: int | Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(value))


@total_ordering
@dataclass(frozen=True)
class DualRational:
    """Rational with an infinitesimal tail: ``main + eps * ε`` where ``ε² = 0``.

    Comparison is lexicographic in (main, eps), i.e. the ordering induced by
    evaluating at any sufficiently small positive ε.  Products truncate the
    ε² term.
    """

    main: Fraction = _ZERO
    eps: Fraction = _ZERO

    @classmethod
    def of(cls, main: int | str | Fraction, eps: int | str | Fraction = 0) -> "DualRational":
        return cls(rational(main), rational(eps))

    def __add__(self, other: "DualRational") -> "DualRational":
        return DualRational(self.main + other.main, self.eps + other.eps)

    def __sub__(self, other: "DualRational") -> "DualRational":
        return DualRational(self.main - other.main, self.eps - other.eps)

    def __neg__(self) -> "DualRational":
        return DualRational(-self.main, -self.eps)

    def __mul__(self, other: "DualRational | int | Fraction") -> "DualRational":
        if isinstance(other, DualRational):
            return DualRational(self.main * other.main,
                                self.main * other.eps + self.eps * other.main)
        return DualRational(self.main * other, self.eps * other)

    __rmul__ = __mul__

    def __lt__(self, other: "DualRational") -> bool:
        return (self.main, self.eps) < (other.main, other.eps)

    def approx(self, delta: Fraction) -> Fraction:
        """Evaluate at ε = delta (used only to sanity-check the ordering)."""
        return self.main + self.eps * delta

    def __str__(self) -> str:
        if self.eps == 0:
            return format_rational(self.main)
        return f"{format_rational(self.main)}{'+' if self.eps > 0 else '-'}{format_rational(abs(self.eps))}e"


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


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as weakly decreasing positive tuples, descending lex order.

    partitions(4) -> (4,), (3,1), (2,2), (2,1,1), (1,1,1,1)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def aut_size(items: Sequence) -> int:
    """Order of the symmetry group of a multiset: product of (multiplicity)!."""
    out = 1
    for mult in Counter(items).values():
        out *= math.factorial(mult)
    return out


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of the given length summing to total.

    Deterministic order with the first component descending:
    compositions(2, 2) -> (2,0), (1,1), (0,2)
    """
    if total < 0 or length < 0:
        raise ValueError("total and length must be nonnegative")
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


@cache
def shuffles(p: int, q: int) -> tuple[Permutation, ...]:
    """(p, q)-shuffles of positions 0..p+q-1.

    Each shuffle is returned as the permutation sigma with sigma[:p] the
    chosen first block (ascending) and sigma[p:] the rest (ascending).
    """
    if p < 0 or q < 0:
        raise ValueError("block sizes must be nonnegative")
    k = p + q
    out = []
    for head in combinations(range(k), p):
        head_set = set(head)
        tail = tuple(x for x in range(k) if x not in head_set)
        out.append(head + tail)
    return tuple(out)


def ordered_shuffles(sizes: Sequence[int]) -> tuple[Permutation, ...]:
    """Block-increasing permutations for ascending block sizes, blocks canonical.

    ``sizes`` must be weakly increasing positive integers summing to k.  Each
    returned permutation lists the blocks consecutively, ascending within each
    block, with equal-size blocks ordered by their minimum element.  This
    enumerates each set partition with the given block-size multiset exactly
    once, so

        len(ordered_shuffles(sizes)) * prod(mult! over repeated sizes)
            = multinomial(k; sizes).
    """
    return _ordered_shuffles(tuple(sizes))


@cache
def _ordered_shuffles(sizes: tuple[int, ...]) -> tuple[Permutation, ...]:
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError("block sizes must be positive")
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("block sizes must be weakly increasing")
    k = sum(sizes)
    out: list[Permutation] = []

    def rec(idx: int, remaining: tuple[int, ...], acc: list[tuple[int, ...]]) -> None:
        if idx == len(sizes):
            out.append(tuple(x for block in acc for x in block))
            return
        size = sizes[idx]
        for block in combinations(remaining, size):
            if idx > 0 and sizes[idx - 1] == size and not acc[-1][0] < block[0]:
                continue
            block_set = set(block)
            rest = tuple(x for x in remaining if x not in block_set)
            acc.append(block)
            rec(idx + 1, rest, acc)
            acc.pop()

    rec(0, tuple(range(k)), [])
    return tuple(out)


def set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of {0..n-1}; blocks ascending, ordered by minimum."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for block in blocks:
            block.append(i)
            yield from rec(i + 1)
            block.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of rearranging graded letters v_0..v_{k-1} into v_{sigma[0]}, v_{sigma[1]}, ...

    Every pair of letters that crosses (an inversion of sigma) contributes
    (-1)^(|v_i|*|v_j|), i.e. -1 exactly when both crossing letters have odd
    degree.  ``degrees[i]`` is the degree of letter i in the original order.
    """
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError(f"not a permutation of 0..{len(sigma) - 1}: {sigma}")
    if len(degrees) != len(sigma):
        raise ValueError("degrees must match the permutation length")
    sign = 1
    for s in range(len(sigma)):
        for t in range(s + 1, len(sigma)):
            if sigma[s] > sigma[t] and degrees[sigma[s]] % 2 and degrees[sigma[t]] % 2:
                sign = -sign
    return sign
