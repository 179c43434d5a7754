"""Reference ln Gamma, psi and psi^(k), their namespaces and shared constants.

Scheme: on (0, 2.5) every kernel sums one polynomial, its Taylor series
about 2 economized, with no shift (below).  From 2.5 up each kernel shifts
the argument upward by the recurrence until it exceeds ``_SHIFT_CUTOFF`` =
15, then sums the Stirling-type asymptotic series.  Each asymptotic series
keeps only the Bernoulli terms that can change a double at y >= 15: 7 of
the ten for ln Gamma, 8 for psi, 6 for psi', 7 for psi'' and 8 for
psi'''.  The first term left out is below 2^-54 of the partial sum before
it, so less than half an ulp of that sum, and the ratio only falls as y
grows: adding it, or any later and smaller term, rounds back to the same
double, so the kernels return what the ten-term series returns, bit for
bit.  The truncation error of every kernel is below 1e-13 relative, which
leaves the double-precision rounding of the recurrence as the dominant
error source; the shift is accurate in absolute terms only (ln Gamma to
1.4e-14 relative just past 2.5).

The band sums ln Gamma(2+z)/z or psi^(k)(2+z), k = 0..3, as a polynomial
in z of 18, 20, 20, 22 and 23 terms: the Chebyshev economization on
|z| <= 0.5 of the Taylor series about 2 (DLMF 5.7.3, 5.7.4, 5.15.1;
https://dlmf.nist.gov/5.7), which needs 24, 30, 30, 32 and 35 terms to
meet the same rule.  The rule: the Chebyshev coefficients left out, in
absolute value, plus the Taylor tail past degree 60 sum to less than
2^-54 of the smallest |f| on |z| <= 0.5 (1.4e-17 to 3.9e-17 of it), so
to less than half an ulp of the series.  The tables are literals derived
with mpmath at 60 digits: the Taylor series to degree 60, re-expanded in
Chebyshev polynomials of 2z, cut at the least number of terms that meets
the rule, re-expanded in powers of z, each coefficient rounded once to a
double; the tests derive them again.  The band splits three ways, so
that z is exact and |z| <= 0.5: z = x - 2 on [1.5, 2.5); z = x - 1 on
[0.5, 1.5), plus the recurrence term at x (ln Gamma: on (0.5, 1.5),
minus log1p(z)); z = x below, plus the terms at x and 1 + x (ln Gamma:
minus log1p(x) and log x).  Against mpmath (40 digits, 20000 seeded
points per kernel on (1e-300, 2.5), half log-uniform) ln Gamma is within
5.5e-16 relative, through its zeros at 1 and 2, and psi', psi'' and
psi''' within 4.6e-16.  psi is within 3.3e-16 max(1, |psi|), so
within 2.2e-15 relative except next to its zero at 1.4616, where the relative
error grows as 1/|psi| (1.4e-13 at 1.46134).  Since x + 1 rounds,
:func:`ln_gamma1p` takes z from x itself next to the zeros of ln
Gamma(1+x) at x = 0 and 1: z = x on (-0.5, 0.1), within 3.5e-16
relative, and z = x - 1 on (0.9, 1.5), within 2.6e-16.  Elsewhere it
returns ``ln_gamma(1.0 + x)``, which the rounding of 1 + x leaves within
1.2e-15 relative on [0.1, 0.9].

Each series is straight-line code generated from its coefficient table
at its first call: each band polynomial one nested Horner expression,
each Stirling tail one written-out forward sum, with no loop at a call.
The code is plain arithmetic on a float or an array, and a scalar kernel
and its array twin (``ln_gamma_array``, ``ln_gamma1p_array``,
``digamma_array``, ``polygamma_array``) call the same code.  Each twin
checks its input and runs one engine, ``_twin``, on its row of one
table, ``_TWINS``: the band function, a shift step's term and the series
past the cutoff; the engine's shift loop takes the scalar kernels' steps
in the same order.  ``ln_gamma1p_array`` mirrors ``ln_gamma1p``: its own
bands, else the ln Gamma row at 1 + x.  The engine splits an array at
2.5 by gather and scatter only when elements lie on both sides, and
psi's band adds its recurrence term on [0.5, 1.5) in place,
``np.add(..., where=...)``, skipping a sub-band with no element; none of
this changes an operation on any element.  The band takes only +, -, *,
/ and ``math.log`` or ``math.log1p`` element by element, and every power
is a product, so on (0, 2.5) each twin equals its scalar kernel bit for
bit (``ln_gamma1p_array`` equals ``ln_gamma1p`` on (-1, 1.5)), and the
psi', psi'' and psi''' twins equal theirs everywhere.  Past 2.5 the ln Gamma
and psi twins differ from their scalar kernels only where numpy's ``log``
rounds differently from ``math.log``: by a few ulps of the shift sum, on
0.04% (ln Gamma) and 0.02% (psi) of arguments in [2.5, 16).

All functions are pure; the one state is each series' code, generated at
its first call and the same in every process.
"""

import math
import sys
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

#: Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286

PI_SQ_OVER_6 = math.pi * math.pi / 6.0

# exp of this is finite and exp of the next double overflows
LN_DBL_MAX = math.log(sys.float_info.max)

_SHIFT_CUTOFF = 15.0

# below this no kernel shifts: each sums its band polynomial
_TAYLOR_END = 2.5

_HALF_LN_TWO_PI = 0.9189385332046727417803297364

# B_2n, n = 1..10, exact, as (numerator, denominator); every series
# coefficient below derives from it.  An int over an int is correctly
# rounded, so each coefficient is the double nearest its exact rational.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
)

# B_2n / (2n (2n-1)) for the ln-gamma tail
_LNGAMMA_COEFFS = tuple(num / (den * 2 * n * (2 * n - 1))
                        for n, (num, den) in enumerate(_BERNOULLI, 1))

# B_2n / (2n) for the digamma tail
_DIGAMMA_COEFFS = tuple(num / (den * 2 * n)
                        for n, (num, den) in enumerate(_BERNOULLI, 1))


def _polygamma_constants(k):
    # (-1)^(k+1) psi^(k)(y) = (k-1)!/y^k + k!/(2 y^(k+1))
    #                         + sum B_2n (2n+k-1)!/(2n)! y^(-2n-k);
    # each series coefficient is the float product B_2n * r, B_2n
    # rounded to a double, with the integer r = (2n+k-1)!/(2n)!.
    fact_k = float(math.factorial(k))
    sign = 1.0 if k % 2 else -1.0  # (-1)^(k+1)
    return (
        sign,
        sign * fact_k,  # recurrence term numerator
        float(math.factorial(k - 1)),
        fact_k * 0.5,
        tuple(num / den * math.perm(2 * n + k - 1, k - 1)
              for n, (num, den) in enumerate(_BERNOULLI, 1)),
    )


_POLYGAMMA_CONSTANTS = {k: _polygamma_constants(k) for k in (1, 2, 3)}

# y**n for n = 1..5 as products, which round alike on a float and on an
# array (float ** and numpy's ** do not always)
_POWERS = (None, lambda y: y, lambda y: y * y, lambda y: y * y * y,
           lambda y: (y * y) * (y * y), lambda y: (y * y) * (y * y) * y)

# The leading slice of each table that the series sum.  At y = _SHIFT_CUTOFF
# the first term left out is 0.22, 0.10, 0.70, 0.31 and 0.12 times 2^-54 of
# the exact partial sum before it (ln Gamma, psi, psi', psi'', psi''').
_LNGAMMA_TAIL = _LNGAMMA_COEFFS[:7]
_DIGAMMA_TAIL = _DIGAMMA_COEFFS[:8]
_POLYGAMMA_TAILS = {
    k: _POLYGAMMA_CONSTANTS[k][4][:n] for k, n in ((1, 6), (2, 7), (3, 8))
}

# zeta(m) - 1 for m = 2..14, correctly rounded: the arithmetic core of
# proofaudit's Taylor series about x = 1
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
)

# ln_gamma1p takes z from x itself on (-0.5, _ZERO_BAND) and on
# (1 - _ZERO_BAND, 1.5), where the rounding of 1 + x would cost the most
# relative accuracy; [0.1, 0.9] stays with ln_gamma(1 + x), whose calls
# perfbench's tracer test counts (ROADMAP item 10)
_ZERO_BAND = 0.1

# The band series on |z| <= 1/2, each a polynomial in z, highest power
# first: ln Gamma(2+z)/z and psi^(k)(2+z), k = 0..3, each the Chebyshev
# economization of its Taylor series about 2 (module docstring), derived
# with mpmath at 60 digits; tests/test_refcore.py derives them again and
# compares with ==.
_LNGAMMA2P_COEFFS = (
    2.7880013392491846e-07, -5.812501250599261e-07, 9.199898075671394e-07,
    -1.9741884532905586e-06, 4.3847319318293745e-06, -9.456338120610123e-06,
    2.0505584372896933e-05, -4.492371708374659e-05, 9.945767440096764e-05,
    -0.00022315497868931946, 0.0005096695153484373, -0.0011927539009204018,
    0.002890510331036772, -0.007385551028937974, 0.020580808427780335,
    -0.0673523010531956, 0.32246703342411326, 0.42278433509846713,
)

_PSI2P_COEFFS = (
    (
        1.3353198676963285e-06, -2.628575731010178e-06, 3.588999760794955e-06,
        -7.230932253375558e-06, 1.5356393399483115e-05, -3.071133869681147e-05,
        6.123355636501606e-05, -0.00012269107207273986, 0.00024608835245399605,
        -0.0004941910840399837, 0.0009945749891440375, -0.0020083926585784968,
        0.0040773562043552175, -0.008349277388407227, 0.01734306198428647,
        -0.03692775514324263, 0.08232323371114009, -0.20205690315959526,
        0.6449340668482264, 0.42278433509846713,
    ),
    (
        -1.381254391333848e-05, 2.5831552130128303e-05, -3.177525125567741e-05,
        6.0523741624372546e-05, -0.00012303283000796998,
        0.00023056174848157392, -0.00042807030801720876, 0.0007959850813870609,
        -0.0014725805559501748, 0.002706978910305702, -0.004941884468717751,
        0.0089511743371195, -0.016067142681396657, 0.02854149345584702,
        -0.05009566428969042, 0.08671530992086628, -0.1477110205735012,
        0.24696970113342506, -0.4041138063191885, 0.6449340668482264,
    ),
    (
        4.670875421599469e-05, -8.395987583412551e-05, 8.896594327738673e-05,
        -0.00016273598180040707, 0.0003303970547067221, -0.000590358415888005,
        0.0010373552958236637, -0.0018315537988580252, 0.003209414984358025,
        -0.0055672456536075355, 0.00955469548583897, -0.016198145664109216,
        0.027069521704801015, -0.04447697524666868, 0.07160940917115773,
        -0.11246999823305485, 0.17124896031432713, -0.2504783214581286,
        0.34686123968897636, -0.4431330617204363, 0.49393940226682914,
        -0.4041138063191886,
    ),
    (
        0.000335576928845283, -0.0005814697767695287, 0.0005404391194264546,
        -0.0009523602957205992, 0.0019394139241477061, -0.0033176513123588484,
        0.005537361735665867, -0.009329894972117276, 0.01557599815992372,
        -0.025662869792726823, 0.041720414444218555, -0.06680452564405553,
        0.10510181051979334, -0.16198163010588112, 0.24362568729867742,
        -0.3558157945391442, 0.5012658644327362, -0.6748199895725683,
        0.8562448015681441, -1.0019132858306528, 1.0405837190669494,
        -0.8862661234408785, 0.49393940226682914,
    ),
)

# psi^(k)(x) = psi^(k)(x+1) + rec / x^(k+1); rec for k = 0..3
_RECURRENCE = (-1.0,) + tuple(_POLYGAMMA_CONSTANTS[k][1] for k in (1, 2, 3))


def _horner(coeffs):
    """z -> the polynomial with these coefficients, highest power first, by
    Horner's rule written out as one expression, ((c0 * z + c1) * z + c2)
    ..., so that no loop runs at a call.  It takes the steps of the loop
    ``s = 0.0; for each c: s = s * z + c`` in the same order (its first
    step, 0.0 * z + c0, is c0 for finite z); z a float or an array.  The
    repr of a double reads back as that double, so the compiled literals
    are the table's entries."""
    return eval("lambda z: " + "(" * len(coeffs)
                + ") * z + ".join(map(repr, coeffs)) + ")", {})


def _forward(coeffs):
    """(acc, p, r) -> acc + c0 p + c1 p r + c2 p r^2 + ... summed forward as
    one written-out expression, acc + c0 * p + c1 * (p := p * r) + ...:
    each sum's left side is evaluated first, so it takes the steps of the
    loop ``for each c: acc = acc + c * p; p = p * r`` in the same order;
    float or array."""
    return eval("lambda acc, p, r: acc + %r * p" % coeffs[0] + "".join(
        map(" + {!r} * (p := p * r)".format, coeffs[1:])), {})


def _on_first_call(make, tables):
    """``[make(t) for t in tables]``, each made at its first call: until
    then its slot holds a stand-in that makes it, puts it in the slot and
    hands the call on, so a process compiles only the series it sums
    (compiling all ten at import would take about 1.2 ms)."""
    series = []

    def stand_in(i):
        def first_call(*args):
            series[i] = make(tables[i])
            return series[i](*args)
        return first_call

    series.extend(map(stand_in, range(len(tables))))
    return series


# Every series as straight-line code generated from its table, indexed by
# the order k of psi^(k), k = 0..3, with ln Gamma last, at _LN_GAMMA: the
# band polynomials (_taylor[_LN_GAMMA](z) * z is ln Gamma(2+z)) and
# the Stirling tails.  Scalar kernels and array twins call the same code.
_LN_GAMMA = 4
_taylor = _on_first_call(_horner, _PSI2P_COEFFS + (_LNGAMMA2P_COEFFS,))
_tail = _on_first_call(_forward, (_DIGAMMA_TAIL,) + tuple(
    _POLYGAMMA_TAILS[k] for k in (1, 2, 3)) + (_LNGAMMA_TAIL,))


def backend():
    """Name of the kernel backend; the kernels are pure Python."""
    return "python"


def _ln_gamma_series(y, log):
    # Stirling series for ln Gamma(y), y at or past the cutoff; plain
    # arithmetic on a float or an array, ``log`` the matching logarithm
    inv = 1.0 / y
    tail = _tail[_LN_GAMMA](0.0, inv, inv * inv)
    return (y - 0.5) * log(y) - y + _HALF_LN_TWO_PI + tail


def _ln_gamma1p_taylor(x):
    # ln Gamma(1+x) for -0.5 < x < 1.5 with no shift: the series at
    # z = x - 1 from 0.5 up, at z = x minus log1p(x) below; |z| <= 0.5
    if x < 0.5:
        return _taylor[_LN_GAMMA](x) * x - math.log1p(x)
    z = x - 1.0
    return _taylor[_LN_GAMMA](z) * z


def _psi_taylor(k, x):
    # psi^(k)(x) for 0 < x < 2.5 with no shift: the series at z = x - 2
    # from 1.5 up; at z = x - 1 plus the recurrence term at x from 0.5 up;
    # at z = x plus the terms at x and 1 + x below.  z is exact and
    # |z| <= 0.5.  ZeroDivisionError where x**(k+1) underflows to 0.
    series = _taylor[k]
    if x >= 1.5:
        return series(x - 2.0)
    rec, power = _RECURRENCE[k], _POWERS[k + 1]
    if x >= 0.5:
        return series(x - 1.0) + rec / power(x)
    return series(x) + (rec / power(x) + rec / power(1.0 + x))


def _digamma_series(y, log):
    # asymptotic series for psi(y), y at or past the cutoff
    inv = 1.0 / y
    inv2 = inv * inv
    return log(y) - 0.5 * inv - _tail[0](0.0, inv2, inv2)


def _polygamma_series(k, y):
    # asymptotic series for psi^(k)(y), y at or past the cutoff
    sign, _, fact_km1, half_fact_k, _ = _POLYGAMMA_CONSTANTS[k]
    inv = 1.0 / y
    value = fact_km1 * _POWERS[k](inv) + half_fact_k * _POWERS[k + 1](inv)
    return sign * _tail[k](value, _POWERS[k + 2](inv), inv * inv)


# The input contract of every public entry (README, "Input contract"): a
# point entry takes a number, an array entry a 1-D array, the others
# either.  A number is a float, or any numbers.Real but a bool or a numpy
# timedelta64 (an int, a Fraction, a numpy scalar), made a float; an array
# is an ndarray of dtype kind f, i or u with ndim 1, made float64.  All
# else raises: text, None, a list, a Decimal, a complex, a 2-D array, ...
_TAKES = {"point": "a float {}", "array": "a 1-D numpy array",
          "either": "a float or a 1-D numpy array"}


def _gate(name, x, form="point", error=ValueError, param="x"):
    """``x`` as the float or 1-D float64 array that ``form`` takes (a key
    of :data:`_TAKES`), else ``error``: "<name> requires <what form takes>,
    got <x's kind>".  Every entry that takes a float tests ``type(x) is
    float`` inline first, so the float path never enters it."""
    np = sys.modules.get("numpy")  # no value is numpy's before it loads
    if np is not None and isinstance(x, np.ndarray):
        if form != "point" and x.ndim == 1 and x.dtype.kind in "fiu":
            return x.astype(float, copy=False)
        kind = "%d-D %s array" % (x.ndim, x.dtype.name)
    else:
        import numbers

        kind = type(x).__name__
        if (form != "array" and isinstance(x, numbers.Real)
                and not isinstance(x, bool) and kind != "timedelta64"):
            try:
                return float(x)
            except OverflowError:  # an int or a Fraction past 1.8e308
                kind += " outside double range"
    raise error("%s requires %s, got %s"
                % (name, _TAKES[form].format(param), kind))


def ln_gamma(x):
    """ln Gamma(x) for finite x > 0."""
    if type(x) is not float:
        x = _gate("ln_gamma", x)
    if not 0.0 < x < math.inf:
        raise ValueError("ln_gamma requires finite x > 0, got %r" % (x,))
    if x < _TAYLOR_END:
        if x > 0.5:
            return _ln_gamma1p_taylor(x - 1.0)  # x - 1 is exact here
        return _ln_gamma1p_taylor(x) - math.log(x)
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
    if type(x) is not float:
        x = _gate("ln_gamma1p", x)
    if not -1.0 < x < math.inf:
        raise ValueError("ln_gamma1p requires finite x > -1, got %r" % (x,))
    if -0.5 < x < _ZERO_BAND or -_ZERO_BAND < x - 1.0 < 0.5:
        return _ln_gamma1p_taylor(x)
    return ln_gamma(1.0 + x)


def digamma(x):
    """psi(x) for finite x > 0."""
    if type(x) is not float:
        x = _gate("digamma", x)
    if not 0.0 < x < math.inf:
        raise ValueError("digamma requires finite x > 0, got %r" % (x,))
    if x < _TAYLOR_END:
        return _psi_taylor(0, x)
    cutoff = _SHIFT_CUTOFF
    shift = 0.0
    y = x
    while y < cutoff:
        shift += 1.0 / y
        y += 1.0
    return _digamma_series(y, math.log) - shift


def _out_of_range(k, x):
    return ValueError("psi^(%d)(%r) is not a finite double" % (k, x))


def _is_integer(k):
    # an order, index or count: True and 1.0 equal 1 but are none
    return type(k) is not bool and hasattr(k, "__index__")


def _check_order(k):
    if not _is_integer(k) or k not in (1, 2, 3):
        raise ValueError("polygamma supports k in {1, 2, 3}, got %r" % (k,))


def polygamma(k, x):
    """psi^(k)(x) for k in {1, 2, 3} and finite x > 0."""
    if type(x) is not float:
        x = _gate("polygamma", x)
    if type(k) is not int or k not in (1, 2, 3):
        _check_order(k)
    if not 0.0 < x < math.inf:
        raise ValueError("polygamma requires finite x > 0, got %r" % (x,))
    if x < _TAYLOR_END:
        try:
            value = _psi_taylor(k, x)
        except ZeroDivisionError:  # x**(k+1) underflowed to 0
            raise _out_of_range(k, x) from None
    else:
        rec, power = _RECURRENCE[k], _POWERS[k + 1]
        cutoff = _SHIFT_CUTOFF
        shift = 0.0
        y = x
        while y < cutoff:
            shift += rec / power(y)
            y += 1.0
        value = _polygamma_series(k, y) + shift
    if not math.isfinite(value):
        raise _out_of_range(k, x)
    return value


def _each(fn, x):
    """A scalar function of every element of a 1-D array, so that each
    rounds as it does on a float (a list's floats are faster to feed than
    the array's numpy scalars)."""
    import numpy as np

    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _taylor_array(x):
    """:func:`_ln_gamma1p_taylor` of every element of an array in
    (-0.5, 1.5), with the same operations in the same order."""
    import numpy as np

    lower = x < 0.5
    z = np.where(lower, x, x - 1.0)
    s = _taylor[_LN_GAMMA](z) * z
    # math.log1p, as the scalar kernel: np.log1p rounds some x differently
    s[lower] -= _each(math.log1p, x[lower])
    return s


def _ln_gamma_band(x):
    # ln_gamma below 2.5: the series at x - 1 (exact) above 0.5, else at x
    import numpy as np

    low = x <= 0.5
    s = _taylor_array(np.where(low, x, x - 1.0))
    s[low] -= _each(math.log, x[low])
    return s


def _psi_taylor_array(k, x):
    """:func:`_psi_taylor` of every element of an array in (0, 2.5), with
    the same operations in the same order; an infinity where x**(k+1)
    underflows or a term overflows."""
    import numpy as np

    low = x < 0.5
    mid = ~low & (x < 1.5)
    s = _taylor[k](np.where(low, x, x - np.where(mid, 1.0, 2.0)))
    rec, power = _RECURRENCE[k], _POWERS[k + 1]
    with np.errstate(over="ignore", divide="ignore"):
        if mid.any():  # the term at every x, added where mid holds
            np.add(s, rec / power(x), out=s, where=mid)
        if low.any():
            x = x[low]
            s[low] += rec / power(x) + rec / power(1.0 + x)
    return s


def _psi_row(k):
    rec, power = _RECURRENCE[k], _POWERS[k + 1]
    series = (_digamma_series if k == 0
              else lambda y, log: _polygamma_series(k, y))
    return (partial(_psi_taylor_array, k), lambda y, log: rec / power(y),
            series)


# The array twins' rows, indexed as _taylor and _tail: the band function
# below 2.5, the term a shift step adds at y and the series past the
# cutoff, these two taking numpy's log.  psi's term is -1 / y and ln
# Gamma's -log y, so every row adds its shift where the scalar kernels
# subtract theirs: a sum of negated terms is the negated sum, bit for bit.
_TWINS = (*map(_psi_row, range(4)),
          (_ln_gamma_band, lambda y, log: -log(y), _ln_gamma_series))


def _twin(k, x):
    """Row k of :data:`_TWINS` on a checked 1-D array: the band function
    below 2.5; from there the series at y plus the shift, each element
    raised by 1 until it reaches the cutoff and its steps' terms summed in
    the scalar kernels' order.  Only the elements below the cutoff are
    shifted, gathered once in ascending order: y + 1 rounds monotonically,
    so those still below after each step are a prefix, which the next
    step takes as a slice.  The others keep a shift of 0.0, which the
    scalar kernels add too.  An array that lies wholly on one side of 2.5
    is handed over whole, with no gather or scatter."""
    import numpy as np

    band_of, term, series = _TWINS[k]
    band = x < _TAYLOR_END
    if band.all():
        return band_of(x)
    split = band.any()
    y = x[~band] if split else x.copy()
    shift = np.zeros(len(y))
    below = np.flatnonzero(y < _SHIFT_CUTOFF)
    below = below[np.argsort(y[below])]
    z, s = y[below], shift[below]
    n = len(z)
    while n:
        s[:n] += term(z[:n], np.log)
        z[:n] += 1.0
        n = np.searchsorted(z[:n], _SHIFT_CUTOFF)
    y[below], shift[below] = z, s
    # past y ~ 2.56e305 ln Gamma's series overflows, as the scalar's
    with np.errstate(over="ignore"):
        far = series(y, np.log) + shift
    if not split:
        return far
    out = np.empty_like(x)
    out[band] = band_of(x[band])
    out[~band] = far
    return out


def _positive_array(name, x):
    # the input check of the twins on x > 0
    x = _gate(name, x, "array")
    if not ((x > 0.0) & (x < math.inf)).all():  # a NaN fails both
        raise ValueError("%s requires every x finite and > 0" % name)
    return x


def ln_gamma_array(x):
    """:func:`ln_gamma` of every element of a 1-D array."""
    return _twin(_LN_GAMMA, _positive_array("ln_gamma_array", x))


def ln_gamma1p_array(x):
    """:func:`ln_gamma1p` of every element of a 1-D array: the band
    polynomial at x itself on ln_gamma1p's own bands, else the ln Gamma
    twin at 1 + x."""
    import numpy as np

    x = _gate("ln_gamma1p_array", x, "array")
    if not ((x > -1.0) & (x < math.inf)).all():
        raise ValueError("ln_gamma1p_array requires every x finite and > -1")
    out = np.empty_like(x)
    own = (((-0.5 < x) & (x < _ZERO_BAND))
           | ((-_ZERO_BAND < x - 1.0) & (x - 1.0 < 0.5)))
    out[own] = _taylor_array(x[own])
    out[~own] = _twin(_LN_GAMMA, 1.0 + x[~own])
    return out


def digamma_array(x):
    """:func:`digamma` of every element of a 1-D array."""
    return _twin(0, _positive_array("digamma_array", x))


def polygamma_array(k, x):
    """:func:`polygamma` of order k in {1, 2, 3} of every element of a
    1-D array."""
    _check_order(k)
    import numpy as np

    x = _positive_array("polygamma_array", x)
    value = _twin(k, x)
    bad = ~np.isfinite(value)
    if bad.any():
        raise _out_of_range(k, float(x[bad][0]))
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
    polygamma=lambda k, x: polygamma(k, x),
)


def _where(c, a, b):
    import numpy as np

    return np.where(c, a, b)


ON_ARRAY = SimpleNamespace(
    log=partial(_each, math.log), log1p=partial(_each, math.log1p),
    each=_each, where=_where, digamma=lambda x: digamma_array(x),
    ln_gamma=lambda x: ln_gamma_array(x),
    ln_gamma1p=lambda x: ln_gamma1p_array(x),
    polygamma=lambda k, x: polygamma_array(k, x),
)


def gamma(x):
    """Gamma(x) = exp(ln_gamma(x)), x > 0, where it is a finite double."""
    if type(x) is not float:
        x = _gate("gamma", x)
    log_value = ln_gamma(x)
    if not log_value <= LN_DBL_MAX:
        raise ValueError("Gamma(%r) is not a finite double" % (x,))
    return math.exp(log_value)


def envelope_exponents(lam):
    """((1+lam)(1-gamma), lam gamma), the limits at 1 and 0 of ln Gamma(x+1)
    / ln((x^2+lam)/(x+lam)): the lambda-envelope's exponents, at call time."""
    return (1.0 + lam) * (1.0 - EULER_GAMMA), lam * EULER_GAMMA


class Constants(NamedTuple):
    """The numeric anchors every bound family derives from."""

    euler_gamma: float
    pi_sq_over_6: float
    alpha_sharp: float  # 2 (1 - euler_gamma), sharp lower exponent
    beta_sharp: float  # euler_gamma, sharp upper exponent
    alzer_alpha: float  # 1 - euler_gamma
    alzer_beta: float  # (pi^2/6 - euler_gamma) / 2


_CONSTANTS = Constants(
    EULER_GAMMA, PI_SQ_OVER_6,
    *envelope_exponents(1.0),  # alpha_sharp, beta_sharp
    alzer_alpha=1.0 - EULER_GAMMA,
    alzer_beta=0.5 * (PI_SQ_OVER_6 - EULER_GAMMA),
)


def constants():
    """The one :class:`Constants`, an immutable named tuple built at
    import."""
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


def log_base(k, x, lam=1.0):
    """ln((x^2+lam)/(x+lam)) with the kernels ``k``: log1p of
    :func:`log_base_arg`, so it keeps its digits next to x = 0 and 1."""
    return k.log1p(log_base_arg(x, lam))


def _check_gamma_literal():
    # The stored literal must agree with -psi(1) computed by the kernels;
    # a mismatch means a broken coefficient table and poisons every bound.
    if abs(EULER_GAMMA + digamma(1.0)) > 1e-12:
        raise RuntimeError("Euler-Mascheroni literal disagrees with -digamma(1)")


_check_gamma_literal()
