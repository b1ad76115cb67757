"""ellsuper: exact ellipsoidal superpotentials.

Exact-arithmetic computation of:

* the Reeb spectrum of an ellipsoid, with symbolic tie-breaking, and its
  lattice-path bookkeeping Γ_k (:mod:`ellsuper.orbits`);
* a lazy L-infinity engine over Q — coderivation and cofunctor extensions,
  composition, levelwise inversion (:mod:`ellsuper.linf`);
* the lattice letters α/β, the one augmentation ε̃ on them, the letter
  maps ψ_a, and the stationary-descendant morphism ε_a = ε̃ ∘ ψ_a, its
  inverse, and transfer morphisms (:mod:`ellsuper.sft`);
* weighted and unweighted counts T̃/T of rational curves in CP^2 with one
  end on an ellipsoid, piecewise in the parameter, with the generating
  function cross-check (:mod:`ellsuper.superpotential`);
* jump formulas for the transfer morphism across a single rational ratio
  (:mod:`ellsuper.jumps`);
* the two-family rounding algebra on the lattice letters, and the checks
  that ε̃ intertwines it and that ε̃ ∘ ψ_a is the closed form
  (:mod:`ellsuper.rounding`);
* brute-force oracles for all of the above, with the dual-number spectrum
  and the CP^2 Maurer-Cartan exponential (:mod:`ellsuper.oracle`).

The package root exports the submodules only (``from ellsuper.orbits import
gamma``); the ``ellsuper`` console script exposes the main computations; see
README.
"""

from . import exact, jumps, linf, orbits, report, rounding, sft, superpotential

__version__ = "0.1.0"
