"""ellsuper: exact ellipsoidal superpotentials.

Exact-arithmetic computation of:

* the Reeb spectrum of an ellipsoid, with symbolic tie-breaking, and its
  lattice-path bookkeeping Γ_k (:mod:`ellsuper.orbits`);
* a lazy L-infinity engine over Q — coderivation and cofunctor extensions,
  composition, levelwise inversion (:mod:`ellsuper.linf`);
* the stationary-descendant morphism, its inverse, transfer morphisms, and
  Maurer-Cartan exponentials (:mod:`ellsuper.sft`);
* weighted and unweighted counts T̃/T of rational curves in CP^2 with one
  end on an ellipsoid, piecewise in the parameter, with the generating
  function cross-check (:mod:`ellsuper.superpotential`);
* jump formulas for the transfer morphism across a single rational ratio
  (:mod:`ellsuper.jumps`);
* the two-family rounding algebra and its augmentation (:mod:`ellsuper.rounding`);
* brute-force oracles for all of the above (:mod:`ellsuper.oracle`).

The ``ellsuper`` console script exposes the main computations; see README.
"""

from .exact import (
    DualRational,
    LatticePoint,
    Permutation,
    Rational,
    aut_size,
    compositions,
    format_rational,
    koszul_sign,
    ordered_shuffles,
    partitions,
    rational,
    set_partitions,
    shuffles,
    vec_add,
    vec_factorial,
)
from .jumps import ScanHit, jump_cylinder, jump_general, jump_pants, jump_via_xi, support_scan
from .linf import (
    Combination,
    GeneratorSet,
    LinfMorphism,
    LinfStructure,
    Word,
    abelian,
    canonical_word,
    check_structure,
    compose,
    extend_coderivation,
    identity_morphism,
    invert,
    morphisms_agree,
)
from .orbits import (
    OrbitId,
    Side,
    SpectrumParams,
    action,
    action_dual,
    candidate_discontinuities,
    gamma,
    jump_set,
    normalized,
    orbit,
    perturbed_value,
)
from .report import Report
from .rounding import (
    psi_factorization,
    psi_map,
    tilde_epsilon,
    v_algebra,
    v_ell,
    v_generators,
    verify_aug,
)
from .sft import (
    MCElement,
    ca_algebra,
    ca_generators,
    co_algebra,
    co_generators,
    epsilon,
    eta,
    exp_mc,
    inverse_check,
    local_descendant,
    o_key,
    q_key,
    single_coefficient,
    xi,
    xi_chain_check,
)
from .superpotential import (
    CP2Target,
    PiecewiseTable,
    T,
    T_infinity,
    closed_descendant_toric,
    embedding_bound,
    genfun_check,
    normalized_table,
    piecewise_table,
    wt_T,
    wt_T_infinity,
)

__version__ = "0.1.0"
