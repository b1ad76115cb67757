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

The letters, eps~ and psi_a live in :mod:`ellsuper.sft`, where eps_a is
built as that composite; this module holds the algebra and the checks.
:func:`psi_factorization` compares eps_a with a morphism whose levels are
:func:`ellsuper.sft.local_descendant`'s closed form, so the check shares no
rule with what it checks.

The algebra declares what the engine may skip: its levels vanish above
arity 2 and on every head with no α (the only odd letters), so l̂ of an
all-β word is zero without a rule call.  It is a module constant built at
import (building it only stores its rule), so its memos are shared by every
caller in the process; each memo is an :class:`ellsuper.exact.Memo` and
holds at most ``CACHE_CAP`` entries.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterator

from .linf import (
    Combination,
    Key,
    LinfMorphism,
    LinfStructure,
    Word,
    check_structure,
    extend_coderivation,
    morphisms_agree,
)
from .orbits import SpectrumParams, check_index
from .report import Report, merge_reports
from .sft import (
    alpha_key,
    beta_key,
    ca_generators,
    co_generators,
    epsilon,
    index_words,
    local_descendant,
    o_key,
    q_key,
    tilde_epsilon,
    v_generators,
)

__all__ = [
    "v_algebra",
    "verify_aug",
    "psi_factorization",
    "structure_window_check",
]


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
    """Words with at most one alpha letter, all index sums <= index_bound.

    Each bound must be an int, not a bool or a float (ValueError); a bound
    <= 0 gives no word.
    """
    check_index(index_bound, None, "index_bound")
    check_index(length_bound, None, "length_bound")
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
    eps~^(l̂(w)) = 0 is additionally spot-checked for lengths up to 3.  A
    zero image passes both at once.  On lengths up to 3 the bar-level image
    is computed first and pi_1 is read off it as its length-1 part: levels
    land in single generators, so only the one-block term of each
    extension has length 1, and that term is the level.  A nonzero pi_1
    is reported in place of the bar-level failure, as on longer words.
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
        if not image:
            continue
        if len(word) <= 3:
            full = image.apply(morphism.extend)
            projected = full.restrict_length(1)
        else:
            full = projected = image.apply(morphism.level)
        if projected:
            failures.append(f"pi_1(aug(coderivation)) nonzero on {word}: {projected}")
        elif full:
            failures.append(f"bar-level aug(coderivation) nonzero on {word}: {full}")
    return Report(checked, failures)


def psi_factorization(
    params: SpectrumParams,
    length_bound: int,
    index_cap: int = 4,
) -> Report:
    """Check eps~ ∘ psi_a = eps_a on words of o_{1..index_cap} up to a length bound.

    The composite is :func:`ellsuper.sft.epsilon`.  The other side is a
    morphism whose levels are :func:`ellsuper.sft.local_descendant`'s closed
    form, extended by the block recursion, so it reads no rule of eps~.
    """

    def closed_form(word: Word) -> Combination:
        count, psi_power = local_descendant(params, [key[1] for key in word])
        return Combination.single((q_key(psi_power + 1),), count)

    direct = LinfMorphism(ca_generators(), co_generators(), closed_form)
    return morphisms_agree(epsilon(params), direct, index_words(o_key, length_bound, index_cap))


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
