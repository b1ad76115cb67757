"""Independent brute-force oracles for the fast implementations.

Each oracle recomputes a quantity by unoptimized first-principles enumeration
and exists only to validate the production code path:

* :func:`gamma_bruteforce` — Γ_k as the argmin of the perturbed max-action
  over *all* compositions of k, compared on one table of the covers'
  perturbed actions as integer (main, eps) pairs over one common
  denominator (the greedy walk never enters);
* :func:`merge_spectrum` — the ordered spectrum via a lazy heap merge of the
  per-axis action streams (again independent of the walk); its prefix
  counts are the Γ_k and orbit identities that :func:`wt_T_partitions`,
  :func:`jump_partitions` and :func:`action_dual` read, so no oracle calls
  the walk of :mod:`ellsuper.orbits`;
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
  path evaluates it as an exponential of series over index multisets);
* :func:`cp2_exp_mc` — the degree-d piece of exp(Σ_e T̃_e o_{3e-1}) over the
  partitions of d; pushed through the L∞ engine by ``sft.epsilon``, its
  single-letter part must be the closed count N_d = 1/(d!)^3;
* :func:`exp_series_pass_fractions` — the exponential-of-series kernel with
  every coefficient a ``Fraction``, the reference for the integer-numerator
  kernel :func:`ellsuper.exact.exp_series_pass`.

The symbolic perturbation and the enumerations behind these live here too,
because nothing on the production path calls them:

* :class:`DualRational` — a perturbed action ``main + eps·ε``, ordered as at
  a tiny ε > 0; :func:`perturbed_value` and :func:`action_dual` give the
  perturbed action of a cover and of the k-th orbit (the production spectrum
  ranks ties by integers instead);
* :func:`partitions` — integer partitions, weakly decreasing parts in
  descending lex order;
* :func:`set_partitions` — all set partitions, blocks ordered by minimum;
* :func:`koszul_sign` — the sign a permutation picks up acting on graded
  letters (each crossing of two odd letters contributes -1); the production
  engine counts parities instead;
* :func:`shuffles` — the (p, q)-shuffles as position permutations, the
  reference for the head/rest block plans of :mod:`ellsuper.linf`.

Both L∞ oracles sort their output letters themselves (``sorted`` plus
:func:`koszul_sign`, dropping a repeated odd letter), so they take only the
types of :mod:`ellsuper.linf` and none of its sign code.

Input sizes are hard-guarded: these routines are intentionally exponential.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exact import LatticePoint, aut_size, rational, vec_add, vec_factorial
from .linf import Combination, GeneratorSet, LinfMorphism, LinfStructure, Word
from .orbits import OrbitId, Side, SpectrumParams, normalized
from .sft import o_key

__all__ = [
    "DualRational",
    "perturbed_value",
    "action_dual",
    "gamma_bruteforce",
    "merge_spectrum",
    "morphism_bruteforce",
    "coderivation_bruteforce",
    "wt_T_partitions",
    "jump_partitions",
    "cp2_exp_mc",
    "exp_series_pass_fractions",
    "partitions",
    "set_partitions",
    "koszul_sign",
    "shuffles",
]

_GAMMA_MAX_K = 40
_GAMMA_MAX_N = 5
_MERGE_MAX_COUNT = 10_000
_MORPHISM_MAX_LEN = 5
_CODERIVATION_MAX_LEN = 6
_PARTITIONS_MAX_D = 20
_JUMP_MAX_ARITY = 9


class DualRational(NamedTuple):
    """A perturbed action ``main + eps·ε``; the tuple order is lexicographic in
    (main, eps), i.e. the order at any sufficiently small ε > 0."""

    main: Fraction
    eps: Fraction


def perturbed_value(params: SpectrumParams, axis: int, multiplicity: int) -> DualRational:
    """Symbolically perturbed action of the multiplicity-fold cover on the given axis.

    CANONICAL: a_i -> a_i * (1 + i*ε), so the value is (m*a_i, i*m*a_i*ε).
    PLUS/MINUS: a_2 -> a_2 ± ε, so axis 2 carries an ε-part of ±m and axis 1
    is unperturbed.
    """
    if not 1 <= axis <= params.n:
        raise ValueError(f"axis must be in 1..{params.n}, got {axis}")
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    main = params.a[axis - 1] * multiplicity
    if params.side is Side.CANONICAL:
        return DualRational(main, axis * main)
    if axis == 1:
        return DualRational(main, Fraction(0))
    eps = Fraction(multiplicity)
    return DualRational(main, eps if params.side is Side.PLUS else -eps)


def action_dual(params: SpectrumParams, k: int) -> DualRational:
    """Perturbed action of the k-th orbit, read off :func:`merge_spectrum`."""
    if k < 1:
        raise ValueError(f"orbit index must be >= 1, got {k}")
    return merge_spectrum(params, k)[k - 1][0]


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


def shuffles(p: int, q: int) -> tuple[tuple[int, ...], ...]:
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


def _sorted_word(generators: GeneratorSet, letters: Sequence) -> tuple[Word | None, int]:
    """The letters sorted, with the Koszul sign of the sort; (None, 0) on a repeated odd letter."""
    degrees = [generators.degree(key) for key in letters]
    order = sorted(range(len(letters)), key=letters.__getitem__)
    word = tuple(letters[i] for i in order)
    if any(word[i] == word[i + 1] and degrees[order[i]] % 2 for i in range(len(word) - 1)):
        return None, 0
    return word, koszul_sign(order, degrees)


def gamma_bruteforce(params: SpectrumParams, k: int) -> LatticePoint:
    """Γ_k as the unique minimizer of max_i perturbed(a_i * v_i) over |v| = k.

    The perturbed actions of the covers 1..k of each axis are computed once,
    as a table of integer (main, eps) pairs over one common denominator;
    every composition of k is then compared on that table.
    """
    if k > _GAMMA_MAX_K or params.n > _GAMMA_MAX_N:
        raise ValueError(
            f"brute force guarded to k <= {_GAMMA_MAX_K}, n <= {_GAMMA_MAX_N}; "
            f"got k={k}, n={params.n}"
        )
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return (0,) * params.n
    rows = [
        [perturbed_value(params, axis, mult) for mult in range(1, k + 1)]
        for axis in range(1, params.n + 1)
    ]
    # one positive scale for every (main, eps) keeps the lexicographic order
    # and equality; the integer pair (0, 0) at multiplicity 0 lies below
    # every cover, whose main part is positive
    scale = math.lcm(*(x.denominator for row in rows for value in row for x in value))

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    table = [[(0, 0)] + [(scaled(main), scaled(eps)) for main, eps in row] for row in rows]
    best_value: tuple[int, int] | None = None
    best_vector: tuple[int, ...] | None = None
    tie = False
    for vector in _compositions(k, params.n):
        value = max([row[mult] for row, mult in zip(table, vector)])
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


def _merge_gammas(params: SpectrumParams, count: int) -> list[LatticePoint]:
    """[Γ_0, ..., Γ_count] as per-axis counts over prefixes of :func:`merge_spectrum`."""
    counts = [0] * params.n
    points = [tuple(counts)]
    for _, (axis, _) in merge_spectrum(params, count):
        counts[axis - 1] += 1
        points.append(tuple(counts))
    return points


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
            value = morphism.level(tuple(word[p] for p in block))
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
            value = structure.level(tuple(word[p] for p in head))
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
    points = _merge_gammas(params, 3 * d - 1)
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
            total_gamma = vec_add(*(points[3 * part - 1] for part in parts))
            correction += product / (aut_size(parts) * vec_factorial(total_gamma))
        counts[degree] = vec_factorial(points[3 * degree - 1]) * (
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
    minus = _merge_gammas(normalized(a, Side.MINUS), top[-1])
    plus = _merge_gammas(normalized(a, Side.PLUS), sum(top) + len(top) - 1)
    memo: dict[tuple[int, ...], Fraction] = {}

    def jump(idx: tuple[int, ...]) -> Fraction:
        cached = memo.get(idx)
        if cached is not None:
            return cached
        k = len(idx)
        out_index = sum(idx) + k - 1
        numerator = vec_factorial(plus[out_index])
        value = Fraction(numerator, vec_factorial(vec_add(*(minus[i] for i in idx))))
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
                numerator, vec_factorial(vec_add(*(plus[i] for i in block_outputs)))
            )
        memo[idx] = value
        return value

    return jump(top)


def exp_series_pass_fractions(steps: Iterable[tuple]) -> dict:
    """The exponential-of-series pass with every coefficient a ``Fraction``.

    The reference for :func:`ellsuper.exact.exp_series_pass`, which takes the
    same steps but keeps each series as integer numerators over one
    denominator.  Values v_I = P_I! (N_I - Σ over splittings of I into >= 2
    parts), all in one pass.

    Each step is ``(I, w(I), aut(I), splits, P_I, N_I)``, and the steps come
    in an order where every part of I precedes I.  ``splits`` yields
    ``(S, I∖S, w(S))`` once for each nonempty proper part S of I, the weight
    w is additive, and ``P_I = (x, y)`` is a lattice point.  With
    F_I = v_I / aut(I) u^{P_I} and E = exp(F), Euler's operator gives

        w(I) (E_I - F_I) = Σ_S w(S) F_S E_{I∖S},
        v_I = P_I! ( N_I - aut(I) Σ_Q [u^Q](E_I - F_I) / Q! ),

    so E_I - F_I comes from smaller parts, then v_I, then E_I.  Zero values
    add no monomial.  Returns {I: v_I}.
    """
    values: dict = {}
    monomials: dict = {}  # I -> (x, y, c) with F_I = c u^(x, y), c != 0
    series: dict = {}  # I -> E_I as {(x, y): coefficient}
    factorial = math.factorial
    for key, weight, aut, splits, (x_out, y_out), base in steps:
        scaled: dict[tuple[int, int], Fraction] = {}  # w(I) (E_I - F_I)
        for sub, complement, sub_weight in splits:
            mono = monomials.get(sub)
            if mono is None:
                continue
            x_s, y_s, coeff = mono
            coeff *= sub_weight
            for (x, y), term in series[complement].items():
                point = (x + x_s, y + y_s)
                scaled[point] = scaled.get(point, 0) + coeff * term
        rest = {point: coeff / weight for point, coeff in scaled.items()}  # E_I - F_I
        correction = sum(
            (coeff / (factorial(x) * factorial(y)) for (x, y), coeff in rest.items()),
            Fraction(0),
        )
        if aut != 1:
            correction *= aut
        value = factorial(x_out) * factorial(y_out) * (base - correction)
        values[key] = value
        if value != 0:
            coeff = value if aut == 1 else value / aut
            monomials[key] = (x_out, y_out, coeff)
            rest[(x_out, y_out)] = rest.get((x_out, y_out), 0) + coeff
        series[key] = rest
    return values


def cp2_exp_mc(counts: Mapping[int, Fraction], d: int) -> Combination:
    """Degree-d piece of exp(Σ_e T̃_e · o_{3e-1}) for CP^2, with ``counts[e]`` = T̃_e.

    One word o_{3λ_1-1} ⊙ ... ⊙ o_{3λ_s-1} per partition λ of d (the trivial
    one included), with coefficient Π_s T̃_{λ_s} / |Aut λ|; distinct
    partitions give distinct words, and zero coefficients are dropped.
    """
    if d > _PARTITIONS_MAX_D:
        raise ValueError(f"partition sum guarded to d <= {_PARTITIONS_MAX_D}, got {d}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    terms: dict[Word, Fraction] = {}
    for parts in partitions(d):
        coeff = Fraction(1, aut_size(parts))
        for part in parts:
            coeff *= counts[part]
        terms[tuple(o_key(3 * part - 1) for part in reversed(parts))] = coeff
    return Combination(terms)
