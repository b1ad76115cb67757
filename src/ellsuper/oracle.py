"""Independent brute-force oracles for the fast implementations.

Each oracle recomputes a quantity by unoptimized first-principles enumeration
and exists only to validate the production code path:

* :func:`gamma_bruteforce` — Γ_k as the argmin of the perturbed max-action
  over *all* compositions of k (the greedy walk never enters);
* :func:`merge_spectrum` — the ordered spectrum via a lazy heap merge of the
  per-axis action streams (again independent of the walk);
* :func:`morphism_bruteforce` — the cofunctor extension as one sum over all
  set partitions of the letter positions with explicit Koszul signs, instead
  of the production recursion on the block that holds the first letter;
* :func:`coderivation_bruteforce` — the coderivation extension as a sum over
  every subset of letter positions at every arity, with explicit Koszul signs
  and a full re-sort of each output word, ignoring declared arities;
* :func:`wt_T_partitions` — the CP^2 count T̃_d by the defining recursion,
  summed over every partition of d (the production path evaluates the same
  recursion as an exponential of power series);
* :func:`jump_partitions` — the jump J^a(i_1..i_k) by the transfer recursion
  summed over every set partition of the index positions (the production
  path evaluates it as an exponential of series over index multisets).

Their enumeration helpers live here too, because nothing on the production
path calls them:

* :func:`set_partitions` — all set partitions, blocks ordered by minimum;
* :func:`koszul_sign` — the sign a permutation picks up acting on graded
  letters (each crossing of two odd letters contributes -1); the production
  engine counts parities instead.

Both L∞ oracles sort their output letters themselves (``sorted`` plus
:func:`koszul_sign`, dropping a repeated odd letter), so they take only the
types of :mod:`ellsuper.linf` and none of its sign code.

The symbolic perturbation itself (:class:`~ellsuper.orbits.DualRational`,
``perturbed_value``) lives beside the spectrum in :mod:`ellsuper.orbits`.
Input sizes are hard-guarded: these routines are intentionally exponential.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .exact import LatticePoint, aut_size, partitions, rational, vec_add, vec_factorial
from .linf import Combination, GeneratorSet, LinfMorphism, LinfStructure, Word
from .orbits import DualRational, OrbitId, Side, SpectrumParams, gamma, gamma_points, normalized, perturbed_value

__all__ = [
    "gamma_bruteforce",
    "merge_spectrum",
    "morphism_bruteforce",
    "coderivation_bruteforce",
    "wt_T_partitions",
    "jump_partitions",
    "set_partitions",
    "koszul_sign",
]

_GAMMA_MAX_K = 40
_GAMMA_MAX_N = 5
_MERGE_MAX_COUNT = 10_000
_MORPHISM_MAX_LEN = 5
_CODERIVATION_MAX_LEN = 6
_PARTITIONS_MAX_D = 20
_JUMP_MAX_ARITY = 9


def _compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    # local re-implementation: the oracle must not share code with the
    # production enumeration it validates
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


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


def _sorted_word(generators: GeneratorSet, letters: Sequence) -> tuple[Word | None, int]:
    """The letters sorted, with the Koszul sign of the sort; (None, 0) on a repeated odd letter."""
    degrees = [generators.degree(key) for key in letters]
    order = sorted(range(len(letters)), key=letters.__getitem__)
    word = tuple(letters[i] for i in order)
    if any(word[i] == word[i + 1] and degrees[order[i]] % 2 for i in range(len(word) - 1)):
        return None, 0
    return word, koszul_sign(order, degrees)


def gamma_bruteforce(params: SpectrumParams, k: int) -> LatticePoint:
    """Γ_k as the unique minimizer of max_i perturbed(a_i * v_i) over |v| = k."""
    if k > _GAMMA_MAX_K or params.n > _GAMMA_MAX_N:
        raise ValueError(
            f"brute force guarded to k <= {_GAMMA_MAX_K}, n <= {_GAMMA_MAX_N}; "
            f"got k={k}, n={params.n}"
        )
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return (0,) * params.n
    best_value: DualRational | None = None
    best_vector: tuple[int, ...] | None = None
    tie = False
    for vector in _compositions(k, params.n):
        value = max(
            perturbed_value(params, axis + 1, mult)
            for axis, mult in enumerate(vector)
            if mult > 0
        )
        if best_value is None or value < best_value:
            best_value, best_vector, tie = value, vector, False
        elif value == best_value:
            tie = True
    if tie:
        raise RuntimeError(f"perturbation failed to separate minimizers at k={k}, params={params}")
    assert best_vector is not None
    return best_vector


def merge_spectrum(
    params: SpectrumParams, count: int
) -> list[tuple[DualRational, OrbitId]]:
    """First ``count`` spectrum entries via a heap merge of per-axis streams."""
    if count > _MERGE_MAX_COUNT:
        raise ValueError(f"merge guarded to count <= {_MERGE_MAX_COUNT}, got {count}")
    heap: list[tuple[DualRational, int, int]] = []
    for axis in range(1, params.n + 1):
        heapq.heappush(heap, (perturbed_value(params, axis, 1), axis, 1))
    out: list[tuple[DualRational, OrbitId]] = []
    while len(out) < count:
        value, axis, mult = heapq.heappop(heap)
        out.append((value, OrbitId(axis, mult)))
        heapq.heappush(heap, (perturbed_value(params, axis, mult + 1), axis, mult + 1))
    return out


def morphism_bruteforce(morphism: LinfMorphism, word: Word) -> Combination:
    """φ̂(w) as a sum over set partitions of the letter positions.

    For each set partition (blocks ordered by minimum) the letters are
    rearranged block-by-block, picking up the explicit Koszul sign of that
    rearrangement, each block is fed to the corresponding level map, and the
    outputs are multiplied back together.
    """
    k = len(word)
    if k > _MORPHISM_MAX_LEN:
        raise ValueError(f"brute force guarded to word length <= {_MORPHISM_MAX_LEN}, got {k}")
    degrees = tuple(morphism.source.degree(key) for key in word)
    total: dict[Word, Fraction] = {}
    for blocks in set_partitions(k):
        arrangement = tuple(p for block in blocks for p in block)
        sign = koszul_sign(arrangement, degrees)
        factors: list[Combination] = []
        for block in blocks:
            value = morphism.level(len(block), tuple(word[p] for p in block))
            if not value:
                factors = []
                break
            factors.append(value)
        if not factors:
            continue
        partial: list[tuple[list, Fraction]] = [([], Fraction(sign))]
        for factor in factors:
            partial = [
                (letters + [w[0]], coeff * c)
                for letters, coeff in partial
                for w, c in factor.terms()
            ]
        for letters, coeff in partial:
            out_word, sort_sign = _sorted_word(morphism.target, letters)
            if out_word is None:
                continue
            new = total.get(out_word, Fraction(0)) + coeff * sort_sign
            if new == 0:
                total.pop(out_word, None)
            else:
                total[out_word] = new
    return Combination(total)


def coderivation_bruteforce(structure: LinfStructure, word: Word) -> Combination:
    """l̂(w) as a sum over every subset of letter positions at every arity.

    For each arity i = 1..k and each i-subset of positions (the head), the
    letters are rearranged head first, picking up the explicit Koszul sign of
    that rearrangement; l^i is applied to the head whatever arities the
    structure declares, and each output letter is put in front of the rest
    and the whole word re-sorted with the Koszul sign of the sort.
    """
    k = len(word)
    if k > _CODERIVATION_MAX_LEN:
        raise ValueError(f"brute force guarded to word length <= {_CODERIVATION_MAX_LEN}, got {k}")
    degrees = tuple(structure.generators.degree(key) for key in word)
    total: dict[Word, Fraction] = {}
    for arity in range(1, k + 1):
        for head in combinations(range(k), arity):
            rest = tuple(p for p in range(k) if p not in head)
            sign = koszul_sign(head + rest, degrees)
            value = structure.level(arity, tuple(word[p] for p in head))
            for out_word, coeff in value.terms():
                letters = [out_word[0]] + [word[p] for p in rest]
                target, sort_sign = _sorted_word(structure.generators, letters)
                if target is None:
                    continue
                new = total.get(target, Fraction(0)) + coeff * sign * sort_sign
                if new == 0:
                    total.pop(target, None)
                else:
                    total[target] = new
    return Combination(total)


def wt_T_partitions(d: int, params: SpectrumParams) -> Fraction:
    """T̃_d for CP^2 by the partition recursion

        T̃_d = Γ_{3d-1}! * ( 1/(d!)^3 - Σ_{λ ⊢ d, len(λ) >= 2} Π_s T̃_{λ_s} / (|Aut λ| * (Σ_s Γ_{3λ_s-1})!) ).
    """
    if d > _PARTITIONS_MAX_D:
        raise ValueError(f"partition recursion guarded to d <= {_PARTITIONS_MAX_D}, got {d}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if params.n != 2:
        raise ValueError("superpotential counts are defined for two-axis ellipsoids")
    counts: dict[int, Fraction] = {}
    for degree in range(1, d + 1):
        correction = Fraction(0)
        for parts in partitions(degree):
            if len(parts) < 2:
                continue
            product = Fraction(1)
            for part in parts:
                product *= counts[part]
            if product == 0:
                continue
            total_gamma = vec_add(*(gamma(params, 3 * part - 1) for part in parts))
            correction += product / (aut_size(parts) * vec_factorial(total_gamma))
        counts[degree] = vec_factorial(gamma(params, 3 * degree - 1)) * (
            Fraction(1, math.factorial(degree) ** 3) - correction
        )
    return counts[d]


def jump_partitions(a: int | str | Fraction, indices: Sequence[int]) -> Fraction:
    """J^a(i_1..i_k) by the set-partition recursion

        J(I) = (Γ^{a+}_j)! / (Σ_s Γ^{a-}_{i_s})!
               - Σ_{set partitions into >= 2 blocks} (Γ^{a+}_j)! / (Σ_r Γ^{a+}_{out(B_r)})! * Π_r J(B_r),

    summed over :func:`set_partitions` of the index positions; the values of
    the blocks are memoized for this call only.
    """
    a = rational(a)
    top = tuple(sorted(indices))
    if not top or any(i < 1 for i in top):
        raise ValueError(f"orbit indices must be positive integers, got {indices}")
    if len(top) > _JUMP_MAX_ARITY:
        raise ValueError(f"partition recursion guarded to arity <= {_JUMP_MAX_ARITY}, got {len(top)}")
    minus, plus = normalized(a, Side.MINUS), normalized(a, Side.PLUS)
    memo: dict[tuple[int, ...], Fraction] = {}

    def jump(idx: tuple[int, ...]) -> Fraction:
        cached = memo.get(idx)
        if cached is not None:
            return cached
        k = len(idx)
        out_index = sum(idx) + k - 1
        numerator = vec_factorial(gamma(plus, out_index))
        value = Fraction(numerator, vec_factorial(vec_add(*gamma_points(minus, idx))))
        for blocks in set_partitions(k):
            if len(blocks) < 2:
                continue
            block_product = Fraction(1)
            for block in blocks:
                block_product *= jump(tuple(idx[p] for p in block))
                if block_product == 0:
                    break
            if block_product == 0:
                continue
            block_outputs = [sum(idx[p] for p in block) + len(block) - 1 for block in blocks]
            value -= block_product * Fraction(
                numerator, vec_factorial(vec_add(*gamma_points(plus, block_outputs)))
            )
        memo[idx] = value
        return value

    return jump(top)
