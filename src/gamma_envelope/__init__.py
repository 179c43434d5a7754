"""Sharp elementary bounds for the gamma function on (0, 1) and beyond.

The core result is the double inequality

    ((x^2+1)/(x+1))^(2(1-gamma)) < Gamma(x+1) < ((x^2+1)/(x+1))^gamma

on (0, 1) with both exponents sharp (gamma is the Euler-Mascheroni
constant).  The package evaluates this and eleven related bound
families, certifies the sign lemmas behind the proof with exact rational
Sturm sequences, audits every step of the monotonicity proof on a grid,
and probes the attached conjectures and open problems numerically.
"""

from gamma_envelope.refcore import (
    EULER_GAMMA,
    backend,
    constants,
    digamma,
    gamma,
    ln_gamma,
    polygamma,
)
from gamma_envelope.bounds import (
    BoundPair,
    DomainError,
    catalog,
    evaluate_family,
    extended_bounds,
    polygamma_bounds,
    theorem_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "BoundPair",
    "DomainError",
    "backend",
    "catalog",
    "constants",
    "digamma",
    "evaluate_family",
    "extended_bounds",
    "gamma",
    "ln_gamma",
    "polygamma",
    "polygamma_bounds",
    "theorem_bounds",
    "__version__",
]
