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
eps_Γ ∘ psi_a.  The lattice model has one even generator g_P per nonzero
lattice point P (any number of axes), of degree -2-2|P|; psi_a is the strict
map o_i -> g_{Γ^a_i}, which keeps the order of the letters because
Γ_{i+1} = Γ_i + e_j; and eps_Γ, one module constant with no parameters,
sends g_{P_1} ... g_{P_k} to q_{Σ|P_s| + k - 1} / (Σ_s P_s)!, with its level
memo keyed by (Σ_s P_s, k).  Every parameter set and side thus shares
eps_Γ's level and extension memos: two ellipsoids whose paths agree on a
word's indices, such as a- and a+ below the jump of a, return the identical
extension.  :func:`local_descendant` keeps the closed form of one level for
the CLI's ``descendant`` and for the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Sequence

from .exact import LatticePoint, Memo
from .linf import (
    Combination,
    GeneratorSet,
    Key,
    LinfMorphism,
    Word,
    compose,
    identity_morphism,
    invert,
    morphisms_agree,
)
from .orbits import SpectrumParams, gamma, gamma_points, orbit_indices
from .report import Report, merge_reports

__all__ = [
    "o_key",
    "q_key",
    "ca_generators",
    "co_generators",
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
        or not isinstance(key[1], int)
        or key[1] < 1
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


def _lattice_degree(key: Key) -> int:
    if (
        isinstance(key, tuple)
        and len(key) == 2
        and key[0] == "g"
        and isinstance(key[1], tuple)
        and all(isinstance(x, int) and x >= 0 for x in key[1])
        and sum(key[1]) >= 1
    ):
        return -2 - 2 * sum(key[1])
    raise ValueError(f"unknown generator key {key!r} (expected ('g', P) with P a nonzero lattice point)")


_LATTICE_GENERATORS = GeneratorSet("Gamma", _lattice_degree)


def _point_sum(word: Word) -> tuple[LatticePoint, int]:
    """What eps_Γ's level reads of a word: (Σ_s P_s, k); points of unequal length raise."""
    return tuple(map(sum, zip(*[key[1] for key in word], strict=True))), len(word)


def _lattice_rule(key: tuple[LatticePoint, int]) -> Combination:
    """eps_Γ^k on every word whose point sum and length are ``key``, on integers."""
    total, k = key
    denominator = 1
    for x in total:
        denominator *= math.factorial(x)
    return Combination.single((q_key(sum(total) + k - 1),), Fraction(1, denominator))


# eps_Γ : lattice model -> C_o, one morphism for every parameter set
_EPSILON_GAMMA = LinfMorphism(_LATTICE_GENERATORS, _CO_GENERATORS, _lattice_rule, memo_key=_point_sum)


def _psi(params: SpectrumParams) -> LinfMorphism:
    """psi_a : C_a -> lattice model, o_i -> g_{Γ^a_i}, zero above level one."""

    def rule(word: Word) -> Combination:
        if len(word) != 1:
            return Combination()
        return Combination.single((("g", gamma(params, word[0][1])),))

    return LinfMorphism(ca_generators(), _LATTICE_GENERATORS, rule, arities=(1,))


def _epsilon(params: SpectrumParams) -> LinfMorphism:
    return compose(_EPSILON_GAMMA, _psi(params))


# the computes call the public functions through the module globals
_EPSILON_CACHE = Memo(_epsilon)
_ETA_CACHE = Memo(lambda params: invert(epsilon(params), lambda key: o_key(key[1])))
_XI_CACHE = Memo(lambda pair: compose(eta(pair[1]), epsilon(pair[0])))


def epsilon(params: SpectrumParams) -> LinfMorphism:
    """The stationary-descendant morphism C_a -> C_o (all arities), eps_Γ ∘ psi_a."""
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
    """Canonical words of key_fn(1..index_cap) of length 1..length_bound, shortest first."""
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
