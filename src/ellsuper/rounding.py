"""A two-family L-infinity algebra modelling all rational rounding steps at once.

Generators (over Z^2_{>=0} index pairs):

* odd    alpha_{i,j}, i, j >= 1,      degree -1 - 2(i + j);
* even   beta_{i,j},  (i, j) != (0, 0), degree -2 - 2(i + j).

Structure maps (all others zero):

    l^1(alpha_{i,j}) = j * beta_{i-1,j} - i * beta_{i,j-1}
    l^2(alpha_{i,j}, alpha_{k,l}) = (i*l - j*k) * alpha_{i+k, j+l}
    l^2(alpha_{i,j}, beta_{k,l})  = (i*l - j*k) * beta_{i+k, j+l}

The beta generators represent Reeb orbits of a (symbolically perturbed)
polydisk-like domain; the augmentation

    eps~^k(beta_{i_1,j_1}, ..., beta_{i_k,j_k})
        = q_{Σi + Σj + k - 1} / ((Σi)! * (Σj)!),   zero on any alpha,

is an L-infinity homomorphism to the abelian model C_o: pushing l^1 and l^2
through eps~ cancels pairwise.  :func:`verify_aug` checks this symbolically
on a window of words.  For an ellipsoid E(1, a) the inclusion-like morphism
psi_a sending o_k to beta_{Γ^a_k} (and no higher levels) factors the
stationary-descendant morphism: eps~ ∘ psi_a = eps_a.

The algebra declares what the engine may skip: its levels vanish above
arity 2 and on every head with no α (the only odd letters), so l̂ of an
all-β word is zero without a rule call.  psi_a declares level 1 only.

The generators, the algebra and the augmentation are module constants
built at import (building one only stores its rule), so their memos are
shared by every caller in the process; each memo is an
:class:`ellsuper.exact.Memo` and holds at most ``CACHE_CAP`` entries.  The
level of eps~ on a word depends only on (Σi, Σj, k) when every letter is a
β, and is zero otherwise, so its level memo is keyed by exactly that
(:func:`_tilde_key`) and its rule reads the key alone: one entry per index
total and length, plus one shared entry for every word that holds an α.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from typing import Iterator

from .linf import (
    Combination,
    GeneratorSet,
    Key,
    LinfMorphism,
    LinfStructure,
    Word,
    check_structure,
    compose,
    extend_coderivation,
    morphisms_agree,
)
from .orbits import SpectrumParams, gamma
from .report import Report, merge_reports
from .sft import ca_generators, co_generators, epsilon, index_words, o_key, q_key

__all__ = [
    "alpha_key",
    "beta_key",
    "v_generators",
    "v_algebra",
    "tilde_epsilon",
    "psi_map",
    "verify_aug",
    "psi_factorization",
    "structure_window_check",
]


def alpha_key(i: int, j: int) -> Key:
    return ("alpha", i, j)


def beta_key(i: int, j: int) -> Key:
    return ("beta", i, j)


def _v_degree(key: Key) -> int:
    if isinstance(key, tuple) and len(key) == 3:
        kind, i, j = key
        if kind == "alpha" and isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1:
            return -1 - 2 * (i + j)
        if (
            kind == "beta"
            and isinstance(i, int)
            and isinstance(j, int)
            and i >= 0
            and j >= 0
            and (i, j) != (0, 0)
        ):
            return -2 - 2 * (i + j)
    raise ValueError(f"unknown generator key {key!r} (expected alpha_(i>=1,j>=1) or beta_(i,j)!=(0,0))")


_V_GENERATORS = GeneratorSet("V", _v_degree)


def v_generators() -> GeneratorSet:
    return _V_GENERATORS


def _v_rule(word: Word) -> Combination:
    """l^k(word) for k = len(word): l^1 and l^2 as above, zero above arity 2."""
    k = len(word)
    if k == 1:
        kind, i, j = word[0]
        if kind != "alpha":
            return Combination()
        out: dict[Word, int] = {}
        if j != 0 and (i - 1, j) != (0, 0):
            out[(beta_key(i - 1, j),)] = j
        if i != 0 and (i, j - 1) != (0, 0):
            word_down = (beta_key(i, j - 1),)
            out[word_down] = out.get(word_down, 0) - i
        return Combination(out)
    if k == 2:
        (kind1, i, j), (kind2, kk, ll) = word
        coefficient = i * ll - j * kk
        if coefficient == 0:
            return Combination()
        if kind1 == "alpha" and kind2 == "alpha":
            return Combination.single((alpha_key(i + kk, j + ll),), coefficient)
        if kind1 == "alpha" and kind2 == "beta":
            return Combination.single((beta_key(i + kk, j + ll),), coefficient)
        return Combination()  # beta . beta
    return Combination()


_V_ALGEBRA = LinfStructure(v_generators(), _v_rule, arities=(1, 2), odd_heads=True)


def v_algebra() -> LinfStructure:
    """The structure above (one instance, shared module-wide)."""
    return _V_ALGEBRA


_HAS_ALPHA = ("alpha",)  # the one key of every word with an α letter: its level is zero


def _tilde_key(word: Word) -> tuple:
    """What ``_tilde_rule`` reads of a word: (Σi, Σj, k) for all-β words, one key for the rest."""
    i_total = 0
    j_total = 0
    for kind, i, j in word:
        if kind != "beta":
            return _HAS_ALPHA
        i_total += i
        j_total += j
    return (i_total, j_total, len(word))


def _tilde_rule(key: tuple) -> Combination:
    """eps~^k on every word whose ``_tilde_key`` is ``key``; k is its last entry."""
    if key is _HAS_ALPHA:
        return Combination()
    i_total, j_total, k = key
    return Combination.single(
        (q_key(i_total + j_total + k - 1),),
        Fraction(1, factorial(i_total) * factorial(j_total)),
    )


_TILDE = LinfMorphism(v_generators(), co_generators(), _tilde_rule, memo_key=_tilde_key)


def tilde_epsilon() -> LinfMorphism:
    """The augmentation eps~ : V -> C_o (one instance, shared module-wide)."""
    return _TILDE


def psi_map(params: SpectrumParams) -> LinfMorphism:
    """psi_a : C_a -> V with psi^1(o_k) = beta_{Γ^a_k} and psi^{>=2} = 0."""
    if params.n != 2:
        raise ValueError("psi_map needs a two-axis ellipsoid (beta indices are pairs)")

    def rule(word: Word) -> Combination:
        if len(word) != 1:
            return Combination()
        x, y = gamma(params, word[0][1])
        return Combination.single((beta_key(x, y),))

    return LinfMorphism(ca_generators(), v_generators(), rule, arities=(1,))


def _beta_window(index_bound: int) -> list[Key]:
    return [
        beta_key(i, j)
        for i in range(index_bound + 1)
        for j in range(index_bound + 1)
        if 0 < i + j <= index_bound
    ]


def _alpha_window(index_bound: int) -> list[Key]:
    return [
        alpha_key(i, j)
        for i in range(1, index_bound)
        for j in range(1, index_bound)
        if i + j <= index_bound
    ]


def _window_words(index_bound: int, length_bound: int) -> Iterator[Word]:
    """Words with at most one alpha letter, all index sums <= index_bound."""
    betas = _beta_window(index_bound)
    alphas = _alpha_window(index_bound)
    for length in range(1, length_bound + 1):
        for beta_part in combinations_with_replacement(betas, length):
            yield beta_part
        for alpha in alphas:
            for beta_part in combinations_with_replacement(betas, length - 1):
                yield (alpha,) + beta_part


def verify_aug(
    index_bound: int,
    length_bound: int,
    structure: LinfStructure | None = None,
    morphism: LinfMorphism | None = None,
) -> Report:
    """Check that eps~ kills the image of the coderivation on a word window.

    Words carry at most one alpha letter and indices with i + j <= index_bound.
    The single-generator projection pi_1(eps~^(l̂(w))) = 0 is checked for all
    word lengths up to ``length_bound``; the full bar-level equation
    eps~^(l̂(w)) = 0 is additionally spot-checked for lengths up to 3.
    Alternative structure/morphism arguments exist so tests can confirm that
    perturbed structure constants break the check.
    """
    structure = structure or v_algebra()
    morphism = morphism or tilde_epsilon()
    failures: list[str] = []
    checked = 0
    for word in _window_words(index_bound, length_bound):
        checked += 1
        image = extend_coderivation(structure, word)
        projected = image.apply(morphism.level)
        if projected:
            failures.append(f"pi_1(aug(coderivation)) nonzero on {word}: {projected}")
            continue
        if len(word) <= 3:
            full = image.apply(morphism.extend)
            if full:
                failures.append(f"bar-level aug(coderivation) nonzero on {word}: {full}")
    return Report(checked, failures)


def psi_factorization(
    params: SpectrumParams,
    length_bound: int,
    index_cap: int = 4,
) -> Report:
    """Check eps~ ∘ psi_a = eps_a on words of o_{1..index_cap} up to a length bound."""
    composed = compose(tilde_epsilon(), psi_map(params))
    direct = epsilon(params)
    return morphisms_agree(composed, direct, index_words(o_key, length_bound, index_cap))


def _two_alpha_words(index_bound: int) -> list[Word]:
    """The words of two distinct alpha letters, index sums <= index_bound.

    The window is built in canonical order, so each pair is a canonical word.
    """
    return list(combinations(_alpha_window(index_bound), 2))


def structure_window_check(index_bound: int, length_bound: int) -> Report:
    """Convenience: check_structure of the rounding algebra over the window."""
    words = list(_window_words(index_bound, length_bound))
    # also include words with two alphas: the odd/odd bracket is exercised there
    return merge_reports(
        check_structure(v_algebra(), words),
        check_structure(v_algebra(), _two_alpha_words(index_bound)),
    )
