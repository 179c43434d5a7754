"""Reference ln Gamma, psi and psi^(k), their namespaces and shared constants.

Scheme: on (0.5, 2.5) ln Gamma sums its Taylor series about 2 with no
shift (below).  Elsewhere each kernel shifts the argument upward by the
recurrence until it exceeds ``_SHIFT_CUTOFF`` = 15, then sums the
Stirling-type asymptotic series.  Each asymptotic series keeps only the
Bernoulli terms that can change a double at y >= 15: 7 of the ten for
ln Gamma, 8 for psi, 6 for psi', 7 for psi'' and 8 for psi'''.  The first
term left out is below 2^-54 of the partial sum before it, so less than
half an ulp of that sum, and the ratio only falls as y grows: adding it,
or any later and smaller term, rounds back to the same double, so the
kernels return what the ten-term series returns, bit for bit.  The
truncation error of every kernel is below 1e-13 relative, which leaves the
double-precision rounding of the recurrence as the dominant error source;
the shift is accurate in absolute terms only.

On (0.5, 2.5) ln Gamma(y) is the Taylor series of ln Gamma(2+z) (DLMF
5.7.3, https://dlmf.nist.gov/5.7; 23 coefficients from ``ZETA_MINUS_ONE``)
at z = y - 2 from 1.5 up, and at z = y - 1, minus log1p(z), below.  Both z
are exact and |z| <= 0.5, and against mpmath the result is within 8e-16
relative, through the zeros at 1 and 2.  Since x + 1 rounds,
:func:`ln_gamma1p` takes z from x itself next to the zeros of
ln Gamma(1+x) at x = 0 and 1: z = x on (-0.5, 0.1), within 3.5e-16
relative, and z = x - 1 on (0.9, 1.5), within 2.6e-16.  Elsewhere it
returns ``ln_gamma(1.0 + x)``, which the rounding of 1 + x leaves within
1.2e-15 relative on [0.1, 0.9].

Each series is written once, as plain arithmetic on a float or an array,
and serves a scalar kernel and its array twin (``ln_gamma_array``,
``ln_gamma1p_array``, ``digamma_array``, ``polygamma_array``); the two
differ only in their input check and their shift loop, which take the
same steps in the same order.  ``ln_gamma1p_array`` mirrors
``ln_gamma1p``: its own bands, else ``ln_gamma_array(1 + x)``.  The
Taylor branch takes only +, -, * and ``math.log1p``, so ``ln_gamma_array``
equals ``ln_gamma`` bit for bit on (0.5, 2.5), and ``ln_gamma1p_array``
equals ``ln_gamma1p`` on (-0.5, 1.5).  Elsewhere a twin differs from its
scalar kernel only where numpy's ``log`` or ``**`` rounds a term
differently from the ``math`` function or float ``**``: by a few ulps of
the shift sum, on about 0.05% of arguments outside (0.5, 2.5) (ln Gamma)
and on 0.1% (psi, psi') to 5% (psi'', psi''') of arguments in (1, 2).

All functions are pure and stateless.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

#: Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286

PI_SQ_OVER_6 = math.pi * math.pi / 6.0

# exp of this is finite and exp of the next double overflows
LN_DBL_MAX = math.log(sys.float_info.max)

_SHIFT_CUTOFF = 15.0

_HALF_LN_TWO_PI = 0.9189385332046727417803297364

# B_2n, n = 1..10, exact; every series coefficient below derives from it.
_BERNOULLI = tuple(Fraction(*b) for b in (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
))

# B_2n / (2n (2n-1)) for the ln-gamma tail
_LNGAMMA_COEFFS = tuple(
    float(b / (2 * n * (2 * n - 1))) for n, b in enumerate(_BERNOULLI, 1)
)

# B_2n / (2n) for the digamma tail
_DIGAMMA_COEFFS = tuple(
    float(b / (2 * n)) for n, b in enumerate(_BERNOULLI, 1)
)


def _polygamma_constants(k):
    # (-1)^(k+1) psi^(k)(y) = (k-1)!/y^k + k!/(2 y^(k+1))
    #                         + sum B_2n (2n+k-1)!/(2n)! y^(-2n-k);
    # each series coefficient is the float product float(B_2n) * r with
    # the integer r = (2n+k-1)!/(2n)!.
    fact_k = float(math.factorial(k))
    sign = 1.0 if k % 2 else -1.0  # (-1)^(k+1)
    return (
        sign,
        sign * fact_k,  # recurrence term numerator
        float(math.factorial(k - 1)),
        fact_k * 0.5,
        tuple(float(b) * math.perm(2 * n + k - 1, k - 1)
              for n, b in enumerate(_BERNOULLI, 1)),
    )


_POLYGAMMA_CONSTANTS = {k: _polygamma_constants(k) for k in (1, 2, 3)}

# The leading slice of each table that the series sum.  At y = _SHIFT_CUTOFF
# the first term left out is 0.22, 0.10, 0.70, 0.31 and 0.12 times 2^-54 of
# the exact partial sum before it (ln Gamma, psi, psi', psi'', psi''').
_LNGAMMA_TAIL = _LNGAMMA_COEFFS[:7]
_DIGAMMA_TAIL = _DIGAMMA_COEFFS[:8]
_POLYGAMMA_TAILS = {
    k: _POLYGAMMA_CONSTANTS[k][4][:n] for k, n in ((1, 6), (2, 7), (3, 8))
}

# zeta(m) - 1 for m = 2..24, correctly rounded: the Taylor coefficients'
# arithmetic core for expansions about x = 1 and 2
# (psi^(m)(2) = (-1)^(m+1) m! (zeta(m+1) - 1)).
ZETA_MINUS_ONE = (
    0.6449340668482264,
    0.2020569031595943,
    0.08232323371113819,
    0.03692775514336993,
    0.01734306198444914,
    0.008349277381922827,
    0.00407735619794434,
    0.0020083928260822143,
    0.0009945751278180853,
    0.0004941886041194645,
    0.0002460865533080483,
    0.00012271334757848915,
    6.124813505870483e-05,
    3.058823630702049e-05,
    1.528225940865187e-05,
    7.637197637899763e-06,
    3.81729326499984e-06,
    1.908212716553939e-06,
    9.539620338727962e-07,
    4.769329867878064e-07,
    2.38450502727733e-07,
    1.1921992596531106e-07,
    5.960818905125948e-08,
)

# ln_gamma1p takes z from x itself on (-0.5, _ZERO_BAND) and on
# (1 - _ZERO_BAND, 1.5), where the rounding of 1 + x would cost the most
# relative accuracy; [0.1, 0.9] stays with ln_gamma(1 + x), whose calls
# perfbench's tracer test counts (ROADMAP item 10)
_ZERO_BAND = 0.1

# ln Gamma(2+z) = (1-gamma) z + sum_{k=2}^{24} (-1)^k (zeta(k)-1) z^k/k; the
# terms left out sum to at most 4.7e-17 at |z| <= 0.5 (at z = -0.5, 3.9e-16
# of ln Gamma(1.5))
_LNGAMMA2P_COEFFS = tuple(reversed([1.0 - EULER_GAMMA] + [
    (-1) ** k * c / k for k, c in enumerate(ZETA_MINUS_ONE, 2)]))


def backend():
    """Name of the kernel backend; the kernels are pure Python."""
    return "python"


def _ln_gamma_series(y, log):
    # Stirling series for ln Gamma(y), y at or past the cutoff; plain
    # arithmetic on a float or an array, ``log`` the matching logarithm
    inv = 1.0 / y
    inv2 = inv * inv
    tail = 0.0
    p = inv
    for c in _LNGAMMA_TAIL:
        tail += c * p
        p = p * inv2
    return (y - 0.5) * log(y) - y + _HALF_LN_TWO_PI + tail


def _ln_gamma2p_series(z):
    # ln Gamma(2+z) for |z| <= 0.5 by Horner's rule; float or array
    s = 0.0
    for c in _LNGAMMA2P_COEFFS:  # highest power first
        s = s * z + c
    return s * z


def _ln_gamma1p_taylor(x):
    # ln Gamma(1+x) for -0.5 < x < 1.5 with no shift: the series at
    # z = x - 1 from 0.5 up, at z = x minus log1p(x) below; |z| <= 0.5
    if x < 0.5:
        return _ln_gamma2p_series(x) - math.log1p(x)
    return _ln_gamma2p_series(x - 1.0)


def _digamma_series(y, log):
    # asymptotic series for psi(y), y at or past the cutoff
    inv = 1.0 / y
    inv2 = inv * inv
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p = p * inv2
    return log(y) - 0.5 * inv - tail


def _polygamma_series(k, y):
    # asymptotic series for psi^(k)(y), y at or past the cutoff
    sign, _, fact_km1, half_fact_k, _ = _POLYGAMMA_CONSTANTS[k]
    inv = 1.0 / y
    inv2 = inv * inv
    value = fact_km1 * inv**k + half_fact_k * inv ** (k + 1)
    p = inv ** (2 + k)
    for c in _POLYGAMMA_TAILS[k]:
        value += c * p
        p = p * inv2
    return sign * value


def ln_gamma(x):
    """ln Gamma(x) for finite x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError("ln_gamma requires finite x > 0, got %r" % (x,))
    if 0.5 < x < 2.5:
        return _ln_gamma1p_taylor(x - 1.0)  # x - 1 is exact here
    log = math.log
    cutoff = _SHIFT_CUTOFF
    shift = 0.0
    y = x
    while y < cutoff:
        shift += log(y)
        y += 1.0
    return _ln_gamma_series(y, log) - shift


def ln_gamma1p(x):
    """ln Gamma(1+x) for finite x > -1, to a few ulps relative at 0 and 1:
    near them the series takes z from x itself, since 1 + x rounds."""
    x = float(x)
    if not -1.0 < x < math.inf:
        raise ValueError("ln_gamma1p requires finite x > -1, got %r" % (x,))
    if -0.5 < x < _ZERO_BAND or -_ZERO_BAND < x - 1.0 < 0.5:
        return _ln_gamma1p_taylor(x)
    return ln_gamma(1.0 + x)


def digamma(x):
    """psi(x) for finite x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError("digamma requires finite x > 0, got %r" % (x,))
    cutoff = _SHIFT_CUTOFF
    shift = 0.0
    y = x
    while y < cutoff:
        shift += 1.0 / y
        y += 1.0
    return _digamma_series(y, math.log) - shift


def _out_of_range(k, x):
    return ValueError("psi^(%d)(%r) is not a finite double" % (k, x))


def polygamma(k, x):
    """psi^(k)(x) for k in {1, 2, 3} and finite x > 0."""
    x = float(x)
    if k not in (1, 2, 3):
        raise ValueError("polygamma supports k in {1, 2, 3}, got %r" % (k,))
    if not 0.0 < x < math.inf:
        raise ValueError("polygamma requires finite x > 0, got %r" % (x,))
    rec = _POLYGAMMA_CONSTANTS[k][1]
    power = k + 1
    cutoff = _SHIFT_CUTOFF
    # recurrence: psi^(k)(x) = psi^(k)(x+1) + (-1)^(k+1) k! / x^(k+1)
    shift = 0.0
    y = x
    try:
        while y < cutoff:
            shift += rec / y**power
            y += 1.0
    except ZeroDivisionError:  # y**power underflowed to 0
        raise _out_of_range(k, x) from None
    value = _polygamma_series(k, y) + shift
    if not math.isfinite(value):
        raise _out_of_range(k, x)
    return value


def _finite_array(name, x, low=0.0):
    """``x`` as a float array; every element must be finite and > low."""
    # numpy is imported by the array kernels only: the scalar kernels and
    # the bound families load without it
    import numpy as np

    x = np.asarray(x, dtype=float)
    if not np.all((x > low) & (x < math.inf)):  # a NaN fails both
        raise ValueError("%s requires every x finite and > %g" % (name, low))
    return x


def _each(fn, x):
    """A scalar function of every element of a 1-D array, so that each
    rounds as it does on a float (a list's floats are faster to feed than
    the array's numpy scalars)."""
    import numpy as np

    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _shift_up(x, term):
    """(y, shift): each element raised by 1 until it reaches the cutoff,
    as the scalar kernels' loop does, and the sum of ``term(y)`` over the
    steps that element took, added in the same order.  An element past
    the cutoff adds term * 0 to its shift and 0 to its y, which changes
    neither."""
    y = x.copy()
    shift = 0.0
    below = y < _SHIFT_CUTOFF
    while below.any():
        shift += term(y) * below
        y += below
        below = y < _SHIFT_CUTOFF
    return y, shift


def _taylor_array(x):
    """:func:`_ln_gamma1p_taylor` of every element of an array in
    (-0.5, 1.5), with the same operations in the same order."""
    import numpy as np

    lower = x < 0.5
    s = _ln_gamma2p_series(np.where(lower, x, x - 1.0))
    # math.log1p, as the scalar kernel: np.log1p rounds some x differently;
    # fed element by element, with no list of every x held at once
    x = x[lower]
    s[lower] -= np.fromiter(map(math.log1p, x), float, len(x))
    return s


def _ln_gamma_elements(y):
    # ln_gamma's branches, element by element, on a checked array: the
    # Taylor series at y - 1 (exact) on (0.5, 2.5), the shift elsewhere
    import numpy as np

    out = np.empty_like(y)  # 0-d stays an array
    taylor = (0.5 < y) & (y < 2.5)
    far, shift = _shift_up(y[~taylor], np.log)
    # past y ~ 2.56e305 the series overflows to inf, as the scalar's does
    with np.errstate(over="ignore"):
        out[~taylor] = _ln_gamma_series(far, np.log) - shift
    out[taylor] = _taylor_array(y[taylor] - 1.0)
    return out


def ln_gamma_array(x):
    """:func:`ln_gamma` of every element of a float array."""
    return _ln_gamma_elements(_finite_array("ln_gamma_array", x))


def ln_gamma1p_array(x):
    """:func:`ln_gamma1p` of every element of a float array: the Taylor
    series at x itself on ln_gamma1p's own bands, else
    ``ln_gamma_array(1 + x)``."""
    import numpy as np

    x = _finite_array("ln_gamma1p_array", x, -1.0)
    out = np.empty_like(x)
    own = (((-0.5 < x) & (x < _ZERO_BAND))
           | ((-_ZERO_BAND < x - 1.0) & (x - 1.0 < 0.5)))
    out[own] = _taylor_array(x[own])
    out[~own] = _ln_gamma_elements(1.0 + x[~own])
    return out


def digamma_array(x):
    """:func:`digamma` of every element of a float array."""
    import numpy as np

    y, shift = _shift_up(_finite_array("digamma_array", x),
                         lambda y: 1.0 / y)
    return _digamma_series(y, np.log) - shift


def polygamma_array(k, x):
    """:func:`polygamma` of order k in {1, 2, 3} of every element of a
    float array."""
    if k not in (1, 2, 3):
        raise ValueError("polygamma supports k in {1, 2, 3}, got %r" % (k,))
    import numpy as np

    rec = _POLYGAMMA_CONSTANTS[k][1]

    def term(y):
        # y ** (k + 1) overflows only in elements long past the cutoff
        # (y > 1e77), whose term _shift_up multiplies by 0; it underflows,
        # and the term overflows, only where psi^(k) leaves double range
        with np.errstate(over="ignore", divide="ignore"):
            return rec / y ** (k + 1)

    x = _finite_array("polygamma_array", x)
    y, shift = _shift_up(x, term)
    value = _polygamma_series(k, y) + shift
    bad = ~np.isfinite(value)
    if bad.any():
        raise _out_of_range(k, float(x[bad].flat[0]))
    return value


# The kernels of a formula written once for a float (AT_POINT) or a 1-D
# array (ON_ARRAY), where each math function runs element by element and
# so rounds as at a float.  Kernels are looked up here at each call, so a
# wrapper installed on this module sees every call.  each(f, x) is f of x
# or of each element; where(c, a, b) is a where c holds, else b.
AT_POINT = SimpleNamespace(
    log=math.log, log1p=math.log1p, each=lambda f, x: f(x),
    where=lambda c, a, b: a if c else b, digamma=lambda x: digamma(x),
    ln_gamma=lambda x: ln_gamma(x), ln_gamma1p=lambda x: ln_gamma1p(x),
)


def _where(c, a, b):
    import numpy as np

    return np.where(c, a, b)


ON_ARRAY = SimpleNamespace(
    log=partial(_each, math.log), log1p=partial(_each, math.log1p),
    each=_each, where=_where, digamma=lambda x: digamma_array(x),
    ln_gamma=lambda x: ln_gamma_array(x),
    ln_gamma1p=lambda x: ln_gamma1p_array(x),
)


def gamma(x):
    """Gamma(x) = exp(ln_gamma(x)), x > 0, where it is a finite double."""
    log_value = ln_gamma(x)
    if not log_value <= LN_DBL_MAX:
        raise ValueError("Gamma(%r) is not a finite double" % (x,))
    return math.exp(log_value)


@dataclass(frozen=True)
class Constants:
    """The numeric anchors every bound family derives from."""

    euler_gamma: float
    pi_sq_over_6: float
    alpha_sharp: float  # 2 (1 - euler_gamma), sharp lower exponent
    beta_sharp: float  # euler_gamma, sharp upper exponent
    alzer_alpha: float  # 1 - euler_gamma
    alzer_beta: float  # (pi^2/6 - euler_gamma) / 2


_CONSTANTS = Constants(
    euler_gamma=EULER_GAMMA,
    pi_sq_over_6=PI_SQ_OVER_6,
    alpha_sharp=2.0 * (1.0 - EULER_GAMMA),
    beta_sharp=EULER_GAMMA,
    alzer_alpha=1.0 - EULER_GAMMA,
    alzer_beta=0.5 * (PI_SQ_OVER_6 - EULER_GAMMA),
)


def constants():
    """The one :class:`Constants`, built at import."""
    return _CONSTANTS


def log_base_arg(x, lam=1.0):
    """(x^2+lam)/(x+lam) - 1 = x(x-1)/(x+lam): ln of the envelope base is
    log1p of this; float or array.  x - 1 is exact on [0.5, 2], so this
    stays within a few ulps relative through its zero at x = 1.  Past
    x ~ 1.34e154, where x(x-1) overflows, it is x((x-1)/(x+lam))."""
    if isinstance(x, (float, int)):
        v = x * (x - 1.0) / (x + lam)
        return v if v < math.inf else x * ((x - 1.0) / (x + lam))
    if not (abs(x) > 1e154).any():  # x (x - 1) is finite
        return x * (x - 1.0) / (x + lam)
    import numpy as np

    with np.errstate(over="ignore"):
        v = x * (x - 1.0) / (x + lam)
    return np.where(np.isposinf(v), x * ((x - 1.0) / (x + lam)), v)


def _check_gamma_literal():
    # The stored literal must agree with -psi(1) computed by the kernels;
    # a mismatch means a broken coefficient table and poisons every bound.
    if abs(EULER_GAMMA + digamma(1.0)) > 1e-12:
        raise RuntimeError("Euler-Mascheroni literal disagrees with -digamma(1)")


_check_gamma_literal()
