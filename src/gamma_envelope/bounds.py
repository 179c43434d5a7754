"""Catalog of elementary bound families for the gamma function.

Each family is evaluated in log-space (exponent times log of the base,
products as sums of logs) so that large arguments do not overflow and the
relative error stays uniform.  A :class:`BoundPair` carries both the log
values, always finite (a family whose log side leaves double range raises
:class:`DomainError` instead), and the exponentiated floats; the floats
saturate to ``inf`` when a bound is valid but beyond double range (e.g.
upper bounds behaving like exp(1/2x) near zero), so all comparisons
should use the log fields.

Conventions: a family brackets either Gamma(x+1) or Gamma(x); the
``argument_convention`` field on every pair says which.  One-sided
families carry a ``-inf`` sentinel on the missing side plus the
``one_sided`` flag so comparison code never ranks a fabricated value.
"""

import math
from dataclasses import dataclass, field

from gamma_envelope import refcore

GAMMA_OF_X_PLUS_1 = "gamma_of_x_plus_1"
GAMMA_OF_X = "gamma_of_x"


class DomainError(ValueError):
    """Argument outside a family's validity domain."""


@dataclass
class BoundPair:
    """A certified (lower, upper) interval for Gamma at one point."""

    lower: float
    upper: float
    argument_convention: str
    family: str
    x: float
    log_lower: float
    log_upper: float
    is_equality_point: bool = False
    one_sided: bool = False
    warning: str | None = None


def _safe_exp(v):
    if v == -math.inf:
        return -math.inf
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pair(log_lower, log_upper, conv, family, x, is_equality_point=False,
          one_sided=False, warning=None):
    # the one constructor of the catalog's pairs holds them to finite log
    # sides: past x ~ 2.56e305, where lnGamma(x+1) itself overflows, and
    # at tiny x, a family's log sides can round to +-inf
    if not (math.isfinite(log_upper) and (
            math.isfinite(log_lower)
            or one_sided and log_lower == -math.inf)):
        raise DomainError(
            "%s(%r): log bounds (%r, %r) are outside double range"
            % (family, x, log_lower, log_upper)
        )
    return BoundPair(
        _safe_exp(log_lower), _safe_exp(log_upper), conv, family, x,
        log_lower, log_upper, is_equality_point, one_sided, warning,
    )


def theorem_bounds(x, alpha=None, beta=None):
    """Sharp-exponent envelope of (x^2+1)/(x+1) around Gamma(x+1) on (0,1).

    Defaults are the sharp exponents 2(1-gamma) (lower) and gamma (upper);
    passing anything weaker on either side sets a warning flag because the
    containment guarantee is lost.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("theorem_bounds requires 0 < x < 1, got %r" % (x,))
    c = refcore.constants()
    a = c.alpha_sharp if alpha is None else float(alpha)
    b = c.beta_sharp if beta is None else float(beta)
    warning = None
    if a < c.alpha_sharp or b > c.beta_sharp:
        warning = "exponents outside the sharp region; containment not guaranteed"
    lb = math.log1p(refcore.log_base_arg(x))
    return _pair(
        a * lb, b * lb, GAMMA_OF_X_PLUS_1, "qi_guo", x, warning=warning
    )


# From this integer part on, extended_bounds takes ln(x!/t!) from ln Gamma
# instead of summing n logs.  Largest relative errors against mpmath over
# 200 random x per n: the sum 2.1e-16 at n = 4, 3.6e-16 at 24 and
# 3.9e-15 at 1000; the closed form 2.2e-15, 3.4e-16 and 2.1e-16.
_EXTENDED_CLOSED_FORM_N = 32


def extended_bounds(x):
    """Envelope extended beyond (0,1) by the factorial recurrence.

    Brackets Gamma(x+1) for any x > 0; at positive integers both sides
    collapse to x! and the pair is flagged as an equality point.
    """
    _require_finite(x, "extended_bounds")
    if not x > 0.0:
        raise DomainError("extended_bounds requires x > 0, got %r" % (x,))
    n = math.floor(x)
    t = x - n
    # ln(x (x-1) ... (t+1)), summed while that is the more accurate form
    if n < _EXTENDED_CLOSED_FORM_N:
        log_prod = 0.0
        for i in range(int(n)):
            log_prod += math.log(x - i)
    else:
        log_prod = refcore.ln_gamma(x + 1.0) - refcore.ln_gamma(t + 1.0)
    c = refcore.constants()
    lb = math.log1p(refcore.log_base_arg(t)) if t > 0.0 else 0.0
    return _pair(
        c.alpha_sharp * lb + log_prod,
        c.beta_sharp * lb + log_prod,
        GAMMA_OF_X_PLUS_1,
        "qi_guo_extended",
        x,
        is_equality_point=(t == 0.0),
    )


def polygamma_bounds(k, x):
    """Elementary sandwich for (-1)^(k+1) psi^(k)(x), k >= 1, x > 0.

    Returned directly (not in log-space), so x**(k+1) must be in range.
    """
    _require_finite(x, "polygamma_bounds")
    if k < 1:
        raise DomainError("polygamma_bounds requires k >= 1, got %r" % (k,))
    if not x > 0.0:
        raise DomainError("polygamma_bounds requires x > 0, got %r" % (x,))
    try:
        head = math.factorial(k - 1) / x**k
        tail = math.factorial(k) / x ** (k + 1)
    except (OverflowError, ZeroDivisionError):  # a power over/underflows
        head = tail = math.inf
    lower = head + 0.5 * tail
    upper = head + tail
    if upper == math.inf:
        raise DomainError("polygamma_bounds(%d, %r): out of range" % (k, x))
    return BoundPair(
        lower, upper, "abs_polygamma_k", "polygamma", x,
        math.log(lower), math.log(upper),
    )


# ---------------------------------------------------------------------------
# family catalog


def _ivady(x):
    _require_open_unit(x, "ivady")
    return _pair(
        math.log((x * x + 1.0) / (x + 1.0)),
        math.log((x * x + 2.0) / (x + 2.0)),
        GAMMA_OF_X_PLUS_1,
        "ivady",
        x,
    )


def _qi_guo_rearranged(x):
    _require_open_unit(x, "qi_guo_rearranged")
    c = refcore.constants()
    lb = math.log1p(refcore.log_base_arg(x))
    lx = math.log(x)
    return _pair(
        c.alpha_sharp * lb - lx,
        c.beta_sharp * lb - lx,
        GAMMA_OF_X,
        "qi_guo_rearranged",
        x,
    )


def _lambda6(x):
    _require_open_unit(x, "lambda6")
    c = refcore.constants()
    lb = math.log((x * x + 6.0) / (x + 6.0))
    return _pair(
        6.0 * c.euler_gamma * lb,
        7.0 * (1.0 - c.euler_gamma) * lb,
        GAMMA_OF_X_PLUS_1,
        "lambda6",
        x,
    )


def _alzer_power(x):
    if x <= 0.0 or x == 1.0:
        raise DomainError(
            "alzer_power is valid on (0,1) and (1,inf), got %r" % (x,)
        )
    c = refcore.constants()
    if x < 1.0:
        a, b = c.alzer_alpha, c.alzer_beta
    else:
        a, b = c.alzer_beta, 1.0
    lx = math.log(x)
    return _pair(
        (a * (x - 1.0) - c.euler_gamma) * lx,
        (b * (x - 1.0) - c.euler_gamma) * lx,
        GAMMA_OF_X,
        "alzer_power",
        x,
    )


def _alzer_batir(x):
    _require_positive(x, "alzer_batir")
    base = 0.5 * math.log(2.0 * math.pi) + x * math.log(x) - x
    return _pair(
        base - 0.5 * refcore.digamma(x + 1.0 / 3.0),
        base - 0.5 * refcore.digamma(x),
        GAMMA_OF_X,
        "alzer_batir",
        x,
    )


def _qi_guo_zhang(x):
    if not 0.0 < x <= 1.0:
        raise DomainError("qi_guo_zhang requires 0 < x <= 1, got %r" % (x,))
    core = x * (1.0 - math.log(x) + refcore.digamma(x)) * math.log(x)
    return _pair(
        core - x,
        core - (x - 1.0),
        GAMMA_OF_X,
        "qi_guo_zhang",
        x,
        is_equality_point=(x == 1.0),
    )


def _batir_14(x):
    _require_positive(x, "batir_14")
    g = refcore.EULER_GAMMA
    inv_eg = math.exp(-g)  # 1 / e^gamma
    # ln(x+c) = ln(c) + log1p(x/c) with the ln(c) terms cancelled
    # analytically: both sides vanish like O(x) at 0, and the log of a
    # rounded x + c would leave an O(ulp) error there.
    return _pair(
        -x * math.log(2.0) + (x + 0.5) * math.log1p(2.0 * x) - x,
        -g * x + (x + inv_eg) * math.log1p(x / inv_eg) - x,
        GAMMA_OF_X_PLUS_1,
        "batir_14",
        x,
    )


def _batir_15(x):
    _require_positive(x, "batir_15")
    core = (x + 0.5) * (math.log(x + 0.5) - 1.0)
    return _pair(
        0.5 * math.log(2.0 * math.e) + core,
        0.5 * math.log(2.0 * math.pi) + core,
        GAMMA_OF_X_PLUS_1,
        "batir_15",
        x,
    )


def _batir_12(x):
    _require_positive(x, "batir_12")
    core = x * math.log(x) - x - 1.0 / (6.0 * (x + 0.375))
    return _pair(
        0.5 * math.log(2.0 * x + 1.0) + core + 4.0 / 9.0,
        0.5 * math.log(math.pi * (2.0 * x + 1.0)) + core,
        GAMMA_OF_X_PLUS_1,
        "batir_12",
        x,
    )


def _unitball(x):
    if not x > 0.5:
        raise DomainError("unitball requires x > 1/2, got %r" % (x,))
    return _pair(
        -math.inf,
        x * math.log(2.0 * x),
        GAMMA_OF_X_PLUS_1,
        "unitball",
        x,
        one_sided=True,
    )


def _require_finite(x, what):
    # NaN and +-inf slip through the families' own interval tests (NaN
    # fails every comparison, inf passes x > 0) and yield NaN or inf pairs
    if not math.isfinite(x):
        raise DomainError("%s requires finite x, got %r" % (what, x))


def _require_open_unit(x, family):
    if not 0.0 < x < 1.0:
        raise DomainError("%s requires 0 < x < 1, got %r" % (family, x))


def _require_positive(x, family):
    if not x > 0.0:
        raise DomainError("%s requires x > 0, got %r" % (family, x))


@dataclass(frozen=True)
class FamilyEntry:
    id: str
    domain: str
    convention: str
    citation: str
    evaluate: object = field(repr=False)
    one_sided: bool = False


FAMILIES = {
    e.id: e
    for e in [
        FamilyEntry(
            "ivady",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "rational bounds (x^2+1)/(x+1) < Gamma(x+1) < (x^2+2)/(x+2)",
            _ivady,
        ),
        FamilyEntry(
            "qi_guo",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "sharp-exponent envelope ((x^2+1)/(x+1))^a with a in "
            "{2(1-gamma), gamma}",
            theorem_bounds,
        ),
        FamilyEntry(
            "qi_guo_extended",
            "(0,inf), equality at integers",
            GAMMA_OF_X_PLUS_1,
            "sharp envelope extended by the factorial recurrence",
            extended_bounds,
        ),
        FamilyEntry(
            "qi_guo_rearranged",
            "(0,1)",
            GAMMA_OF_X,
            "sharp envelope divided by x to bracket Gamma(x)",
            _qi_guo_rearranged,
        ),
        FamilyEntry(
            "lambda6",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "envelope of (x^2+6)/(x+6) with exponents 6*gamma and "
            "7(1-gamma)",
            _lambda6,
        ),
        FamilyEntry(
            "alzer_power",
            "(0,1) u (1,inf), region-specific constants",
            GAMMA_OF_X,
            "power bounds x^(c(x-1)-gamma)",
            _alzer_power,
        ),
        FamilyEntry(
            "alzer_batir",
            "(0,inf)",
            GAMMA_OF_X,
            "Stirling form sqrt(2 pi) x^x exp(-x - psi(x+c)/2), "
            "c in {1/3, 0}",
            _alzer_batir,
        ),
        FamilyEntry(
            "qi_guo_zhang",
            "(0,1], equality at x=1 (upper)",
            GAMMA_OF_X,
            "bounds x^(x(1-ln x+psi(x))) / e^(x-c), c in {0, 1}",
            _qi_guo_zhang,
        ),
        FamilyEntry(
            "batir_12",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "sqrt(2x+1) x^x exp(-(x + 1/(6(x+3/8)) - c)) forms",
            _batir_12,
        ),
        FamilyEntry(
            "batir_14",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "shifted-Stirling forms sqrt(2)(x+1/2)^(x+1/2) e^-x and the "
            "e^(gamma/e^gamma) companion",
            _batir_14,
        ),
        FamilyEntry(
            "batir_15",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "((x+1/2)/e)^(x+1/2) between sqrt(2e) and sqrt(2 pi)",
            _batir_15,
        ),
        FamilyEntry(
            "unitball",
            "(1/2,inf), upper side only",
            GAMMA_OF_X_PLUS_1,
            "one-sided bound Gamma(x+1) < (2x)^x",
            _unitball,
            one_sided=True,
        ),
    ]
}


def evaluate_family(family_id, x):
    """Evaluate one catalog family at x; raises DomainError outside its
    validity domain or where a log bound leaves double range."""
    try:
        entry = FAMILIES[family_id]
    except KeyError:
        raise KeyError("unknown bound family %r" % (family_id,)) from None
    x = float(x)
    _require_finite(x, family_id)
    return entry.evaluate(x)


def catalog():
    """Enumerable view: (id, domain, citation, convention) per family."""
    return [
        (e.id, e.domain, e.citation, e.convention)
        for e in FAMILIES.values()
    ]
