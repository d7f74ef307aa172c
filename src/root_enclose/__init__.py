"""Guaranteed rational enclosures of nth roots via interval refinement maps.

The package computes enclosures of the nth root of a positive rational x by
iterating a refinement map from [min(1,x), max(1,x)], held on a dyadic
lattice [a/2**k, b/2**k], until the width bound is met, represents the
whole parametrized family of degree-n refinement maps, and checks the
family's properties (contraction, canonical form, dominance of the
Secant-Newton member, the measure-zero equality locus) with exact
rational arithmetic: sample points are chosen so the root is rational and
every comparison is exact.
"""

from ._kernels import BACKEND_NAME as kernel_backend
from .analysis import (
    DominanceStats,
    SampleConfig,
    Verdict,
    Witness,
    check_denominator_bounds,
    check_dominance,
    equality_locus,
    evaluate_locus,
    falsify_contraction,
    sample_triples,
)
from .maps import (
    CanonicalReport,
    DenominatorZeroError,
    MapCoefficients,
    MapSpecError,
    apply_pair,
    check_canonical,
    counterexample_map,
    load_map,
    secant_newton,
)
from .numeric import Interval, geom_sum, parse_rational, pow_int
from .solver import (
    FloatTrace,
    NotContractingError,
    RefineTrace,
    bisect_to_eps,
    initial_interval,
    refine_float,
    refine_to_eps,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalReport",
    "DenominatorZeroError",
    "DominanceStats",
    "FloatTrace",
    "Interval",
    "MapCoefficients",
    "MapSpecError",
    "NotContractingError",
    "RefineTrace",
    "SampleConfig",
    "Verdict",
    "Witness",
    "apply_pair",
    "bisect_to_eps",
    "check_canonical",
    "check_denominator_bounds",
    "check_dominance",
    "counterexample_map",
    "equality_locus",
    "evaluate_locus",
    "falsify_contraction",
    "geom_sum",
    "initial_interval",
    "kernel_backend",
    "load_map",
    "parse_rational",
    "pow_int",
    "refine_float",
    "refine_to_eps",
    "sample_triples",
    "secant_newton",
]
