"""Catalog of elementary bound families for the gamma function.

Each family is evaluated in log-space (exponent times log of the base,
products as sums of logs) so that large arguments do not overflow and the
relative error stays uniform.  A :class:`BoundPair` carries the two log
sides, always finite (a family whose log side leaves double range raises
:class:`DomainError` instead); its floats ``lower`` and ``upper`` are
derived on read, and saturate to ``inf`` when a bound is valid but beyond
double range (e.g. upper bounds behaving like exp(1/2x) near zero), so all
comparisons should use the log sides.

Conventions: a family brackets either Gamma(x+1) or Gamma(x); the
``argument_convention`` field on every pair says which.  One-sided
families carry a ``-inf`` sentinel on the missing side plus the
``one_sided`` flag so comparison code never ranks a fabricated value.
"""

import math
from typing import NamedTuple

from gamma_envelope import refcore

GAMMA_OF_X_PLUS_1 = "gamma_of_x_plus_1"
GAMMA_OF_X = "gamma_of_x"


# the sharp constants, built once at refcore's import
_C = refcore.constants()


class DomainError(ValueError):
    """Argument outside a family's validity domain."""


def _safe_exp(v):
    if v == -math.inf:
        return -math.inf
    if v > refcore.LN_DBL_MAX:  # exp overflows
        return math.inf
    return math.exp(v)


class BoundPair:
    """A certified interval for Gamma at one point, held as its log sides;
    ``lower`` and ``upper`` are their exponentials, computed on read."""

    __slots__ = ("log_lower", "log_upper", "argument_convention", "family",
                 "x", "is_equality_point", "one_sided", "warning")

    def __init__(self, log_lower, log_upper, argument_convention, family, x,
                 is_equality_point=False, one_sided=False, warning=None):
        self.log_lower, self.log_upper = log_lower, log_upper
        self.argument_convention, self.family, self.x = (
            argument_convention, family, x)
        self.is_equality_point, self.one_sided, self.warning = (
            is_equality_point, one_sided, warning)

    @property
    def lower(self):
        return _safe_exp(self.log_lower)

    @property
    def upper(self):
        return _safe_exp(self.log_upper)

    def __repr__(self):
        return "BoundPair(%s)" % ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__)


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
    return BoundPair(log_lower, log_upper, conv, family, x,
                     is_equality_point, one_sided, warning)


def _exponent(value, param):
    # theorem_bounds' alpha or beta: a finite real number, as a float
    if type(value) is not float:
        value = refcore._gate("theorem_bounds", value, "point", DomainError,
                              param)
    _require_finite(value, "theorem_bounds", param)
    return value


def theorem_bounds(x, alpha=None, beta=None):
    """Sharp-exponent envelope of (x^2+1)/(x+1) around Gamma(x+1) on (0,1).

    Defaults are the sharp exponents 2(1-gamma) (lower) and gamma (upper);
    passing anything weaker on either side sets a warning flag because the
    containment guarantee is lost.
    """
    if type(x) is not float:
        x = refcore._gate("theorem_bounds", x, "point", DomainError)
    if not 0.0 < x < 1.0:
        raise DomainError("theorem_bounds requires 0 < x < 1, got %r" % (x,))
    a = _C.alpha_sharp if alpha is None else _exponent(alpha, "alpha")
    b = _C.beta_sharp if beta is None else _exponent(beta, "beta")
    warning = None
    if a < _C.alpha_sharp or b > _C.beta_sharp:
        warning = "exponents outside the sharp region; containment not guaranteed"
    lb = refcore.log_base(refcore.AT_POINT, x)
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
    if type(x) is not float:
        x = refcore._gate("extended_bounds", x, "point", DomainError)
    _require_finite(x, "extended_bounds")
    return evaluate_family("qi_guo_extended", x)


def _polygamma_sides(k, x):
    # (k-1)!/x^k and k!/x^(k+1), powers as products, which round alike on
    # a float and an array; the tail is 0 only where x^(k+1) overflows
    power = x
    for _ in range(k - 1):
        power = power * x
    head = float(math.factorial(k - 1)) / power
    tail = float(math.factorial(k)) / (power * x)
    return head + 0.5 * tail, head + tail, tail


class Sandwich(NamedTuple):
    """The elementary bounds on (-1)^(k+1) psi^(k)(x): floats or arrays."""

    lower: object
    upper: object


def polygamma_bounds(k, x):
    """Elementary sandwich (lower, upper) for (-1)^(k+1) psi^(k)(x),
    k >= 1, x > 0, at a float or every element of a 1-D numpy array, whose
    sides equal the float form's element by element.

    Returned directly (not in log-space), so x**(k+1) must be in range; on
    an array the first element out of it raises the float form's error."""
    if type(x) is not float:
        x = refcore._gate("polygamma_bounds", x, "either", DomainError)
        if type(x) is not float:
            return _polygamma_bounds_array(k, x)
    _require_finite(x, "polygamma_bounds")
    if not refcore._is_integer(k):
        raise DomainError("polygamma_bounds requires an integer k, got %r"
                          % (k,))
    if k < 1:
        raise DomainError("polygamma_bounds requires k >= 1, got %r" % (k,))
    if not x > 0.0:
        raise DomainError("polygamma_bounds requires x > 0, got %r" % (x,))
    try:
        lower, upper, tail = _polygamma_sides(k, x)
    except (OverflowError, ZeroDivisionError):  # k! or a power leaves range
        tail = 0.0
    if not (tail > 0.0 and upper < math.inf):
        raise DomainError("polygamma_bounds(%d, %r): out of range" % (k, x))
    return Sandwich(lower, upper)


def _polygamma_bounds_array(k, x):
    import numpy as np

    first = float(x[0]) if len(x) else 1.0
    if not refcore._is_integer(k) or k < 1:
        polygamma_bounds(k, first)  # k is rejected: the float form raises
    try:
        with np.errstate(all="ignore"):
            lower, upper, tail = _polygamma_sides(k, x)
    except OverflowError:  # k! leaves range: the float form raises
        polygamma_bounds(k, first)
    outside = x[~((x > 0.0) & (tail > 0.0) & (upper < math.inf))]
    if len(outside):  # the float form raises its error there
        polygamma_bounds(k, float(outside[0]))
    return Sandwich(lower, upper)


# ---------------------------------------------------------------------------
# family catalog
#
# Each family's two log sides are written once, as a function of x and a
# kernel namespace, refcore.AT_POINT at a float and refcore.ON_ARRAY on an
# array, so every element of an array rounds as the float does.


def _falling_log(x):
    # ln(x (x-1) ... (t+1)), t = x - floor(x), summed while that is the
    # more accurate form, else from ln Gamma
    n = math.floor(x)
    if n < _EXTENDED_CLOSED_FORM_N:
        log_prod = 0.0
        for i in range(n):
            log_prod += math.log(x - i)
        return log_prod
    return refcore.ln_gamma(x + 1.0) - refcore.ln_gamma(x - n + 1.0)


def _ivady(x, k):
    return refcore.log_base(k, x), refcore.log_base(k, x, 2.0)


def _envelope(lam):
    # ln Gamma(x+1)/ln b is between its limits at 0 and 1 for lam <= lambda_inc
    # or >= lambda_dec (here 1, 6); ln b < 0, so the lower side gets the larger
    lower, upper = sorted(refcore.envelope_exponents(lam), reverse=True)

    def sides(x, k):
        lb = refcore.log_base(k, x, lam)
        return lower * lb, upper * lb

    return sides


_qi_guo = _envelope(1.0)


def _qi_guo_extended(x, k):
    # the envelope at t = x - floor(x) times x (x-1) ... (t+1); at t = 0
    # ln b is -0.0 and the sides are the falling log
    lower, upper = _qi_guo(x % 1.0, k)
    log_prod = k.each(_falling_log, x)
    return lower + log_prod, upper + log_prod


def _qi_guo_rearranged(x, k):
    lower, upper = _qi_guo(x, k)
    lx = k.log(x)
    return lower - lx, upper - lx


def _alzer_power(x, k):
    below = x < 1.0
    a = k.where(below, _C.alzer_alpha, _C.alzer_beta)
    b = k.where(below, _C.alzer_beta, 1.0)
    lx = k.log(x)
    return ((a * (x - 1.0) - _C.euler_gamma) * lx,
            (b * (x - 1.0) - _C.euler_gamma) * lx)


def _alzer_batir(x, k):
    base = 0.5 * math.log(2.0 * math.pi) + x * k.log(x) - x
    return (base - 0.5 * k.digamma(x + 1.0 / 3.0),
            base - 0.5 * k.digamma(x))


def _qi_guo_zhang(x, k):
    lx = k.log(x)
    core = x * (1.0 - lx + k.digamma(x)) * lx
    return core - x, core - (x - 1.0)


def _batir_14(x, k):
    g = refcore.EULER_GAMMA
    inv_eg = math.exp(-g)  # 1 / e^gamma
    # ln(x+c) = ln(c) + log1p(x/c) with the ln(c) terms cancelled
    # analytically: both sides vanish like O(x) at 0, and the log of a
    # rounded x + c would leave an O(ulp) error there.
    return (-x * math.log(2.0) + (x + 0.5) * k.log1p(2.0 * x) - x,
            -g * x + (x + inv_eg) * k.log1p(x / inv_eg) - x)


def _batir_15(x, k):
    core = (x + 0.5) * (k.log(x + 0.5) - 1.0)
    return (0.5 * math.log(2.0 * math.e) + core,
            0.5 * math.log(2.0 * math.pi) + core)


def _batir_12(x, k):
    core = x * k.log(x) - x - 1.0 / (6.0 * (x + 0.375))
    return (0.5 * k.log(2.0 * x + 1.0) + core + 4.0 / 9.0,
            0.5 * k.log(math.pi * (2.0 * x + 1.0)) + core)


def _unitball(x, k):
    return -math.inf, x * k.log(2.0 * x)


def _require_finite(x, what, param="x"):
    # NaN and +-inf slip through the families' own interval tests (NaN
    # fails every comparison, inf passes x > 0) and yield NaN or inf pairs
    if not math.isfinite(x):
        raise DomainError("%s requires finite %s, got %r" % (what, param, x))


def _open_unit(x):
    return (0.0 < x) & (x < 1.0)


def _positive(x):
    return x > 0.0


class FamilyEntry(NamedTuple):
    id: str
    domain: str
    convention: str
    citation: str
    sides: object  # (x, kernels) -> both log sides
    inside: object  # x -> in the domain, per element
    domain_error: str  # its DomainError, %r for x
    one_sided: bool = False
    equality: object = None  # x -> x! exactly


FAMILIES = {
    e.id: e
    for e in [
        FamilyEntry(
            "ivady",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "rational bounds (x^2+1)/(x+1) < Gamma(x+1) < (x^2+2)/(x+2)",
            _ivady, _open_unit, "ivady requires 0 < x < 1, got %r",
        ),
        FamilyEntry(
            "qi_guo",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "sharp-exponent envelope ((x^2+1)/(x+1))^a with a in "
            "{2(1-gamma), gamma}",
            _qi_guo, _open_unit, "qi_guo requires 0 < x < 1, got %r",
        ),
        FamilyEntry(
            "qi_guo_extended",
            "(0,inf), equality at integers",
            GAMMA_OF_X_PLUS_1,
            "sharp envelope extended by the factorial recurrence",
            _qi_guo_extended, _positive,
            "qi_guo_extended requires x > 0, got %r",
            equality=lambda x: x % 1.0 == 0.0,
        ),
        FamilyEntry(
            "qi_guo_rearranged",
            "(0,1)",
            GAMMA_OF_X,
            "sharp envelope divided by x to bracket Gamma(x)",
            _qi_guo_rearranged, _open_unit,
            "qi_guo_rearranged requires 0 < x < 1, got %r",
        ),
        FamilyEntry(
            "lambda6",
            "(0,1)",
            GAMMA_OF_X_PLUS_1,
            "envelope of (x^2+6)/(x+6) with exponents 6*gamma and "
            "7(1-gamma)",
            _envelope(6.0), _open_unit, "lambda6 requires 0 < x < 1, got %r",
        ),
        FamilyEntry(
            "alzer_power",
            "(0,1) u (1,inf), region-specific constants",
            GAMMA_OF_X,
            "power bounds x^(c(x-1)-gamma)",
            _alzer_power, lambda x: (x > 0.0) & (x != 1.0),
            "alzer_power is valid on (0,1) and (1,inf), got %r",
        ),
        FamilyEntry(
            "alzer_batir",
            "(0,inf)",
            GAMMA_OF_X,
            "Stirling form sqrt(2 pi) x^x exp(-x - psi(x+c)/2), "
            "c in {1/3, 0}",
            _alzer_batir, _positive, "alzer_batir requires x > 0, got %r",
        ),
        FamilyEntry(
            "qi_guo_zhang",
            "(0,1], equality at x=1 (upper)",
            GAMMA_OF_X,
            "bounds x^(x(1-ln x+psi(x))) / e^(x-c), c in {0, 1}",
            _qi_guo_zhang, lambda x: (0.0 < x) & (x <= 1.0),
            "qi_guo_zhang requires 0 < x <= 1, got %r",
            equality=lambda x: x == 1.0,
        ),
        FamilyEntry(
            "batir_12",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "sqrt(2x+1) x^x exp(-(x + 1/(6(x+3/8)) - c)) forms",
            _batir_12, _positive, "batir_12 requires x > 0, got %r",
        ),
        FamilyEntry(
            "batir_14",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "shifted-Stirling forms sqrt(2)(x+1/2)^(x+1/2) e^-x and the "
            "e^(gamma/e^gamma) companion",
            _batir_14, _positive, "batir_14 requires x > 0, got %r",
        ),
        FamilyEntry(
            "batir_15",
            "(0,inf)",
            GAMMA_OF_X_PLUS_1,
            "((x+1/2)/e)^(x+1/2) between sqrt(2e) and sqrt(2 pi)",
            _batir_15, _positive, "batir_15 requires x > 0, got %r",
        ),
        FamilyEntry(
            "unitball",
            "(1/2,inf), upper side only",
            GAMMA_OF_X_PLUS_1,
            "one-sided bound Gamma(x+1) < (2x)^x",
            _unitball, lambda x: x > 0.5, "unitball requires x > 1/2, got %r",
            one_sided=True,
        ),
    ]
}


def _entry(family_id):
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise KeyError("unknown bound family %r" % (family_id,)) from None


def evaluate_family(family_id, x):
    """Evaluate one catalog family at x; raises DomainError outside its
    validity domain or where a log bound leaves double range."""
    try:  # one unpacking instead of five attribute loads
        _, _, conv, _, sides, inside, domain_error, one_sided, equality = (
            FAMILIES[family_id])
    except KeyError:
        _entry(family_id)  # raises the unknown family's KeyError
    if type(x) is not float:  # costs the float path what float(x) did
        x = refcore._gate(family_id, x, "point", DomainError)
    if not math.isfinite(x):
        _require_finite(x, family_id)
    if not inside(x):
        raise DomainError(domain_error % (x,))
    log_lower, log_upper = sides(x, refcore.AT_POINT)
    # _pair's test, written in: NaN fails every comparison
    if -math.inf < log_upper < math.inf and (
            -math.inf < log_lower < math.inf
            or one_sided and log_lower == -math.inf):
        return BoundPair(log_lower, log_upper, conv, family_id, x,
                         equality is not None and equality(x), one_sided)
    _pair(log_lower, log_upper, conv, family_id, x)  # raises DomainError


def family_logs_array(family_id, xs):
    """Both log sides of one catalog family at every element of a 1-D
    float array, in one evaluation with the array kernels.

    Returns (log_lower, log_upper), both NaN at the elements where
    :func:`evaluate_family` would raise, outside the domain or where a log
    side is not finite.  A one-sided family's lower side is -inf.
    """
    import numpy as np

    entry = _entry(family_id)
    xs = refcore._gate(family_id, xs, "array", DomainError)
    lower = np.full(xs.shape, np.nan)
    upper = np.full(xs.shape, np.nan)
    ok = (np.abs(xs) < math.inf) & entry.inside(xs)
    # overflow and 0/0 become non-finite sides, which are flagged bad
    with np.errstate(all="ignore"):
        lower[ok], upper[ok] = entry.sides(xs[ok], refcore.ON_ARRAY)
    finite_lower = np.isfinite(lower)
    if entry.one_sided:
        finite_lower |= lower == -math.inf
    bad = ~(finite_lower & np.isfinite(upper))
    lower[bad] = upper[bad] = np.nan
    return lower, upper


def catalog():
    """Enumerable view: (id, domain, citation, convention) per family."""
    return [
        (e.id, e.domain, e.citation, e.convention)
        for e in FAMILIES.values()
    ]
