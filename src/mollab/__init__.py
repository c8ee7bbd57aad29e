"""mollab: variational machinery for critical-line zero proportions.

The pipeline, bottom to top:

* ``quad``    adaptive Clenshaw-Curtis quadrature with certified tails
              (cross-routes and checks; the kappa path does not use it).
* ``hyp2f1``  real-ray Gauss hypergeometric evaluation (series, Pfaff
              map, and the negative-axis connection form).
* ``varsol``  the fundamental pair, variation-of-parameters solution S
              of S'' + tanh(t) S' + c S = c beta/(1 + e^{2t}), and its
              boundary constant, profiles, and weighted integrals.
* ``kappa``   mollifier moments and the proportion bound
              kappa = 1 - ln c / R for the special (equal-weight) and
              general (free R, beta, moments) modes, plus direct
              quadrature/functional cross-routes.
* ``oracle``  independent brute-force recomputations (finite-difference
              BVP, discrete functional minimizer) used for validation.
* ``siegel``  the pulled-back unit-interval profile Q_R and its
              step-function limit scans.
* ``cli``     the ``mollab`` command-line tool.
"""

__version__ = "0.1.0"

from .quad import QuadConfig, QuadResult, integrate, tail_bound
from .hyp2f1 import HypArgs, hyp2f1_deriv, hyp2f1_neg
from .varsol import (
    ModeParams,
    SPECIAL_THETA_R,
    c1_constant,
    make_mode_general,
    make_mode_special,
    s_profile,
    s_value,
)
from .kappa import (
    KappaResult,
    MollifierSpec,
    equal_weight_R,
    k_functional_direct,
    kappa_from_functional,
    kappa_general,
    kappa_special,
)
from .oracle import SolutionProfile, bvp_solve, compare_profiles, discrete_minimize
from .siegel import q_profile, q_value, step_limit_scan

__all__ = [
    "__version__",
    "QuadConfig",
    "QuadResult",
    "integrate",
    "tail_bound",
    "HypArgs",
    "hyp2f1_deriv",
    "hyp2f1_neg",
    "ModeParams",
    "SPECIAL_THETA_R",
    "c1_constant",
    "make_mode_general",
    "make_mode_special",
    "s_profile",
    "s_value",
    "KappaResult",
    "MollifierSpec",
    "equal_weight_R",
    "k_functional_direct",
    "kappa_from_functional",
    "kappa_general",
    "kappa_special",
    "SolutionProfile",
    "bvp_solve",
    "compare_profiles",
    "discrete_minimize",
    "q_profile",
    "q_value",
    "step_limit_scan",
]
