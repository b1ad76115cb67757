"""L-infinity models attached to an ellipsoid and the cobordism maps between them.

Two abelian models appear:

* ``C_a`` — one even generator o_k per orbit index k >= 1, degree -2-2k,
  where o_k stands for the k-th Reeb orbit of E(a);
* ``C_o`` — the same graded module with generators q_k (the model of a
  point, i.e. of the trivial isotropy cylinder data).

Neither generator set carries a filtration; the parameters a enter only
through the level maps below, so one set of each family serves every a.

The stationary-descendant morphism eps_a : C_a -> C_o has level maps

    eps^k(o_{i_1}, ..., o_{i_k}) = q_{i_1 + ... + i_k + k - 1}
                                   / (Γ_{i_1} + ... + Γ_{i_k})!

where Γ_i is the lattice path of E(a) and (x, y)! = x! * y! (any number of
axes).  Its levelwise inverse is eta_a, and the transfer map between two
parameter sets is Xi = eta_{target} ∘ eps_{source}; its single-generator
coefficients are the building blocks of every jump formula downstream.

eps_a depends on a only through the points Γ^a_i, so it is built as
eps~ ∘ psi_a on the lattice model V.  V has an odd letter alpha_{i,j}
(i, j >= 1) of degree -1-2(i+j) and an even letter beta_P = ("beta", *P) per
nonzero lattice point P (any number of axes) of degree -2-2|P|; the rounding
algebra of :mod:`ellsuper.rounding` lives on the same letters.  psi_a is the
:func:`ellsuper.linf.letter_map` o_i -> beta_{Γ^a_i}: it keeps the parity of
the letters (both are even) and their order, because Γ_{i+1} = Γ_i + e_j, so
the image of a sorted o-word is a sorted beta-word with coefficient 1, and
eps_a reads eps~ at that image with no extension of psi_a.  eps~, the
augmentation, is one module constant with no parameters: zero on any word
that holds an alpha, and

    eps~^k(beta_{P_1}, ..., beta_{P_k}) = q_{Σ|P_s| + k - 1} / (Σ_s P_s)!

on the rest, with its level memo keyed by (Σ_s P_s, k) and one key for every
word with an alpha (:func:`_lattice_key`, a plain loop on two-axis words).
Every parameter set and side thus shares eps~'s level and extension memos
with the rounding checks: two ellipsoids whose paths agree on a word's
indices, such as a- and a+ below the jump of a, return the identical level
and extension.  What psi_a keeps of its own is one letter memo, o_i ->
beta_{Γ^a_i}, filled by one ``gamma`` call per index after C_a's degree rule
has accepted the key, so eps_a rejects ('o', 0) or ('q', 1) on every call.
:func:`local_descendant` keeps the closed form of one level for the CLI's
``descendant`` and for the factorization check
:func:`ellsuper.rounding.psi_factorization`, which shares no rule with eps~.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Sequence

from .exact import Memo
from .linf import (
    Combination,
    GeneratorSet,
    Key,
    LinfMorphism,
    Word,
    compose,
    identity_morphism,
    invert,
    letter_map,
    morphisms_agree,
)
from .orbits import SpectrumParams, check_index, gamma, gamma_points, is_index, orbit_indices
from .report import Report, merge_reports

__all__ = [
    "o_key",
    "q_key",
    "alpha_key",
    "beta_key",
    "ca_generators",
    "co_generators",
    "v_generators",
    "tilde_epsilon",
    "psi_map",
    "epsilon",
    "eta",
    "xi",
    "local_descendant",
    "index_words",
    "inverse_check",
    "xi_chain_check",
]


def o_key(k: int) -> Key:
    return ("o", k)


def q_key(k: int) -> Key:
    return ("q", k)


def _orbit_degree(prefix: str, key: Key) -> int:
    if (
        not isinstance(key, tuple)
        or len(key) != 2
        or key[0] != prefix
        or not is_index(key[1], 1)
    ):
        raise ValueError(f"unknown generator key {key!r} (expected ('{prefix}', k) with k >= 1)")
    return -2 - 2 * key[1]


_CA_GENERATORS = GeneratorSet("Ca", lambda key: _orbit_degree("o", key))
_CO_GENERATORS = GeneratorSet("Co", lambda key: _orbit_degree("q", key))


def ca_generators() -> GeneratorSet:
    """Generators o_k of the ellipsoid model (one set, shared by every E(a))."""
    return _CA_GENERATORS


def co_generators() -> GeneratorSet:
    """Generators q_k of the point model (one set, the target for every E(a))."""
    return _CO_GENERATORS


def alpha_key(i: int, j: int) -> Key:
    return ("alpha", i, j)


def beta_key(*point: int) -> Key:
    return ("beta", *point)


def _lattice_degree(key: Key) -> int:
    if isinstance(key, tuple) and len(key) >= 2 and all(is_index(x, 0) for x in key[1:]):
        if key[0] == "beta" and sum(key[1:]) >= 1:
            return -2 - 2 * sum(key[1:])
        if key[0] == "alpha" and len(key) == 3 and min(key[1:]) >= 1:
            return -1 - 2 * (key[1] + key[2])
    raise ValueError(
        f"unknown generator key {key!r} (expected ('alpha', i, j) with i, j >= 1"
        " or ('beta', *P) with P a nonzero lattice point)"
    )


_LATTICE_GENERATORS = GeneratorSet("V", _lattice_degree)


def v_generators() -> GeneratorSet:
    """Lattice letters α_{i,j} and β_P (one set, shared by the rounding algebra and every ψ_a)."""
    return _LATTICE_GENERATORS


_HAS_ALPHA = ("alpha",)  # the one key of every word with an α letter: its level is zero


def _lattice_key(word: Word) -> tuple:
    """What eps~'s level reads of a word: (*Σ_s P_s, k) for an all-β word, one key for a word with an α.

    Two-axis letters are summed in a plain loop.  At the first letter with
    another number of axes the word takes the general sum, which raises
    ValueError on points of unequal length.
    """
    x = y = 0
    try:
        for kind, i, j in word:
            if kind != "beta":
                return _HAS_ALPHA
            x += i
            y += j
    except ValueError:
        return (*map(sum, zip(*[letter[1:] for letter in word], strict=True)), len(word))
    return (x, y, len(word))


def _lattice_rule(key: tuple) -> Combination:
    """eps~^k on every word whose ``_lattice_key`` is ``key``, on integers; k is its last entry."""
    if key is _HAS_ALPHA:
        return Combination()
    *total, k = key
    denominator = 1
    for x in total:
        denominator *= math.factorial(x)
    return Combination.single((q_key(sum(total) + k - 1),), Fraction(1, denominator))


# eps~ : lattice model -> C_o, one morphism for the rounding algebra and every parameter set
_AUGMENTATION = LinfMorphism(_LATTICE_GENERATORS, _CO_GENERATORS, _lattice_rule, memo_key=_lattice_key)


def tilde_epsilon() -> LinfMorphism:
    """The augmentation eps~ : V -> C_o (one instance, shared module-wide)."""
    return _AUGMENTATION


def psi_map(params: SpectrumParams) -> LinfMorphism:
    """psi_a : C_a -> V, the letter map o_i -> beta_{Γ^a_i} on any number of axes."""
    return letter_map(ca_generators(), _LATTICE_GENERATORS, lambda key: beta_key(*gamma(params, key[1])))


def _epsilon(params: SpectrumParams) -> LinfMorphism:
    return compose(tilde_epsilon(), psi_map(params))


# the computes call the public functions through the module globals
_EPSILON_CACHE = Memo(_epsilon)
_ETA_CACHE = Memo(lambda params: invert(epsilon(params), lambda key: o_key(key[1])))
_XI_CACHE = Memo(lambda pair: compose(eta(pair[1]), epsilon(pair[0])))


def epsilon(params: SpectrumParams) -> LinfMorphism:
    """The stationary-descendant morphism C_a -> C_o (all arities), eps~ ∘ psi_a."""
    return _EPSILON_CACHE[params]


def eta(params: SpectrumParams) -> LinfMorphism:
    """Levelwise inverse of eps_params, cached per parameter set (all arities)."""
    return _ETA_CACHE[params]


def xi(source: SpectrumParams, target: SpectrumParams) -> LinfMorphism:
    """Transfer morphism Xi = eta_target ∘ eps_source : C_source -> C_target,
    cached per ordered pair and shared by every arity."""
    return _XI_CACHE[source, target]


def local_descendant(params: SpectrumParams, indices: Sequence[int]) -> tuple[Fraction, int]:
    """Count of rational curves in E(params) with ends o_{i_1}, ..., o_{i_k}
    through a point with a maximal tangency (psi-power) constraint: the
    closed form of eps_params^k(o_{i_1}, ..., o_{i_k}).

    Returns (N, m) with N = 1 / (Σ_s Γ_{i_s})! and m = Σ_s i_s + k - 2 the
    psi-power of the point constraint.  The points Γ_{i_s} are read from one
    walk, and the factorial is taken on integers, one axis at a time: the
    walk's points are nonnegative and all have the same length.  Raises
    ValueError unless the indices are ints >= 1 (:func:`orbits.orbit_indices`).
    """
    indices = orbit_indices(indices)
    denominator = 1
    for axis in zip(*gamma_points(params, indices)):
        denominator *= math.factorial(sum(axis))
    return Fraction(1, denominator), sum(indices) + len(indices) - 2


def index_words(key_fn: Callable[[int], Key], length_bound: int, index_cap: int) -> list[Word]:
    """Canonical words of key_fn(1..index_cap) of length 1..length_bound, shortest first.

    Each bound must be an int, not a bool or a float (ValueError); a bound
    <= 0 gives no word.
    """
    check_index(length_bound, None, "length_bound")
    check_index(index_cap, None, "index_cap")
    letters = [key_fn(i) for i in range(1, index_cap + 1)]
    return [
        keys
        for length in range(1, length_bound + 1)
        for keys in combinations_with_replacement(letters, length)
    ]


def inverse_check(params: SpectrumParams, bound: int, index_cap: int = 4) -> Report:
    """Verify eta∘eps = id on C_a and eps∘eta = id on C_o up to a word-length bound."""
    eps = epsilon(params)
    inv = eta(params)
    left = compose(inv, eps)
    right = compose(eps, inv)
    source_words = index_words(o_key, bound, index_cap)
    target_words = index_words(q_key, bound, index_cap)
    return merge_reports(
        morphisms_agree(left, identity_morphism(ca_generators()), source_words),
        morphisms_agree(right, identity_morphism(co_generators()), target_words),
    )


def xi_chain_check(
    low: SpectrumParams,
    mid: SpectrumParams,
    high: SpectrumParams,
    bound: int,
    index_cap: int = 3,
) -> Report:
    """Verify Xi_{mid->high} ∘ Xi_{low->mid} = Xi_{low->high} on a word window."""
    chained = compose(xi(mid, high), xi(low, mid))
    direct = xi(low, high)
    return morphisms_agree(chained, direct, index_words(o_key, bound, index_cap))
