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

      J(i_1..i_k) = (Γ^{a+}_j)! / (Σ_s Γ^{a-}_{i_s})!
                    - Σ_{partitions into >= 2 blocks}
                        (Γ^{a+}_j)! / (Σ_r Γ^{a+}_{b_r})! * Π_r J(block_r)

  with j as above and b_r the output index of each block;
* :func:`jump_via_xi` — direct evaluation through the L-infinity engine.

:func:`support_scan` enumerates every nonzero k >= 2 jump with output index
up to a bound, checking each hit against the energy inequality
Σ_s A(Γ^a_{i_s}) >= A(Γ^a_j) at the unperturbed parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import ordered_shuffles, partitions, rational, vec_add, vec_factorial
from .orbits import Side, action, gamma, gamma_points, jump_set, normalized
from .sft import o_key, single_coefficient, xi

__all__ = [
    "jump_cylinder",
    "jump_pants",
    "jump_general",
    "jump_via_xi",
    "ScanHit",
    "support_scan",
]


def _sides(a: Fraction) -> tuple:
    return normalized(a, Side.MINUS), normalized(a, Side.PLUS)


def jump_cylinder(a: int | str | Fraction, i: int) -> Fraction:
    """k = 1 jump: (Γ^{a+}_i)! / (Γ^{a-}_i)!; equals a on J_i and 1 otherwise."""
    a = rational(a)
    minus, plus = _sides(a)
    return Fraction(vec_factorial(gamma(plus, i)), vec_factorial(gamma(minus, i)))


def jump_pants(a: int | str | Fraction, i: int, j: int) -> Fraction:
    """k = 2 jump in closed form."""
    a = rational(a)
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


_GENERAL_CACHE: dict[tuple[Fraction, tuple[int, ...]], Fraction] = {}


def jump_general(a: int | str | Fraction, indices: Sequence[int]) -> Fraction:
    """Arbitrary-arity jump via the levelwise transfer recursion (memoized).

    The jump is symmetric in the indices, so the cache is keyed by the sorted
    tuple.
    """
    a = rational(a)
    idx = tuple(sorted(indices))
    if not idx or any(i < 1 for i in idx):
        raise ValueError(f"orbit indices must be positive integers, got {indices}")
    cache_key = (a, idx)
    cached = _GENERAL_CACHE.get(cache_key)
    if cached is not None:
        return cached
    minus, plus = _sides(a)
    k = len(idx)
    out_index = sum(idx) + k - 1
    numerator = vec_factorial(gamma(plus, out_index))
    value = Fraction(numerator, vec_factorial(vec_add(*gamma_points(minus, idx))))
    for desc_sizes in partitions(k):
        sizes = tuple(reversed(desc_sizes))
        if len(sizes) < 2:
            continue
        for sigma in ordered_shuffles(sizes):
            block_product = Fraction(1)
            block_outputs = []
            pos = 0
            for size in sizes:
                block = tuple(idx[p] for p in sigma[pos:pos + size])
                pos += size
                block_product *= jump_general(a, block)
                if block_product == 0:
                    break
                block_outputs.append(sum(block) + size - 1)
            if block_product == 0:
                continue
            value -= block_product * Fraction(numerator, vec_factorial(vec_add(*gamma_points(plus, block_outputs))))
    _GENERAL_CACHE[cache_key] = value
    return value


def jump_via_xi(a: int | str | Fraction, indices: Sequence[int]) -> Fraction:
    """Arbitrary-arity jump read off the L-infinity transfer morphism."""
    a = rational(a)
    idx = tuple(sorted(indices))
    if not idx or any(i < 1 for i in idx):
        raise ValueError(f"orbit indices must be positive integers, got {indices}")
    minus, plus = _sides(a)
    morphism = xi(minus, plus)
    word = tuple(o_key(i) for i in idx)
    out_index = sum(idx) + len(idx) - 1
    return single_coefficient(morphism.level(len(idx), word), o_key(out_index))


@dataclass(frozen=True)
class ScanHit:
    """One nonzero higher jump found by :func:`support_scan`."""

    a: Fraction
    indices: tuple[int, ...]
    value: Fraction


def support_scan(bound: int) -> tuple[ScanHit, ...]:
    """All nonzero jumps with k >= 2 inputs and output index Σi + k - 1 <= bound.

    For each unordered index tuple the ratio a ranges over the candidate set
    ∪_{s <= Σi+k-1} J_s (nonzero jumps cannot occur elsewhere).  Every hit is
    checked against the energy inequality at the unperturbed parameter; a
    violation raises RuntimeError.
    """
    if bound < 3:
        return ()
    hits: list[ScanHit] = []
    tuples: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], minimum: int, remaining: int) -> None:
        if len(prefix) >= 2:
            tuples.append(prefix)
        for i in range(minimum, remaining + 1):
            build(prefix + (i,), i, remaining - i)

    # output index = sum + k - 1 <= bound, every index >= 1
    build((), 1, bound)
    for idx in tuples:
        out_index = sum(idx) + len(idx) - 1
        if out_index > bound:
            continue
        candidates: set[Fraction] = set()
        for s in range(1, out_index + 1):
            candidates.update(jump_set(s))
        for a in sorted(candidates):
            value = jump_general(a, idx)
            if value == 0:
                continue
            at_a = normalized(a)
            total_action = sum(action(at_a, i) for i in idx)
            if total_action < action(at_a, out_index):
                raise RuntimeError(
                    f"energy inequality violated at a={a}, indices={idx}: "
                    f"{total_action} < {action(at_a, out_index)}"
                )
            hits.append(ScanHit(a, idx, value))
    hits.sort(key=lambda h: (h.a, len(h.indices), h.indices))
    return tuple(hits)
