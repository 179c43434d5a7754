"""Exact sign certification of integer-coefficient polynomials.

Everything here runs on exact rational arithmetic (``fractions.Fraction``
over Python ints): a certificate is only worth producing if re-checking it
cannot raise tolerance questions.

The module also carries the four fixed-sign polynomials used by the
monotonicity proof (see :data:`LEMMA_POLYNOMIALS`); their certification on
(0, 1) is the machine half of the Descartes-rule argument.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

# Endpoint perturbation when p vanishes exactly at an interval endpoint.
ENDPOINT_EPS = Fraction(1, 10**6)


def _trim(coeffs):
    """Drop trailing zero coefficients in place; a lone zero stays."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class Polynomial:
    """Univariate polynomial with exact integer coefficients.

    Coefficients are stored in ascending degree order with a nonzero
    leading coefficient (trailing zeros stripped on construction).
    """

    def __init__(self, coefficients):
        self.coefficients = _trim([int(c) for c in coefficients]) or [0]

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def is_zero(self):
        return self.coefficients == [0]

    def __call__(self, x):
        """Horner evaluation; exact when x is int/Fraction."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Polynomial(
            [i * c for i, c in enumerate(self.coefficients)][1:] or [0]
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(tuple(self.coefficients))

    def __repr__(self):
        return "Polynomial(%r)" % (self.coefficients,)

    def cauchy_root_bound(self):
        """1 + max |a_i / a_n|: all real roots lie in (-B, B)."""
        lead = abs(self.coefficients[-1])
        if lead == 0:
            raise ValueError("zero polynomial has no root bound")
        return 1 + max(
            Fraction(abs(c), lead) for c in self.coefficients[:-1]
        ) if self.degree > 0 else Fraction(1)


def sign_changes(p):
    """Sign changes in the coefficient sequence, zeros skipped.

    By Descartes' rule this bounds the number of positive real roots and
    matches it modulo 2.
    """
    if p.is_zero():
        raise ValueError("sign_changes is undefined for the zero polynomial")
    signs = [1 if c > 0 else -1 for c in p.coefficients if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _frac_coeffs(p):
    return [Fraction(c) for c in p.coefficients]


def _poly_divmod(a, b):
    """Exact quotient and remainder of a / b over Fraction coefficient
    lists (ascending)."""
    db, lb = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 1)
    rem = list(a)
    while len(rem) - 1 >= db and rem != [0]:
        dr = len(rem) - 1
        q = rem[-1] / lb
        quot[dr - db] = q
        for i in range(db + 1):
            rem[dr - db + i] -= q * b[i]
        rem.pop()  # leading term cancelled exactly
        rem = _trim(rem) or [Fraction(0)]
    return quot, rem


def _poly_gcd(a, b):
    while b != [0]:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _square_free(p):
    """p / gcd(p, p') as Fraction coefficient list (ascending)."""
    a = _frac_coeffs(p)
    if len(a) == 1:
        return a
    b = _frac_coeffs(p.derivative())
    g = _poly_gcd(a, b)
    if len(g) == 1:
        return a
    return _poly_divmod(a, g)[0]


def _eval_list(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sturm_chain(coeffs):
    chain = [coeffs]
    deriv = _trim([i * c for i, c in enumerate(coeffs)][1:]) or [Fraction(0)]
    if deriv != [0]:
        chain.append(deriv)
        while True:
            r = _poly_divmod(chain[-2], chain[-1])[1]
            if r == [0]:
                break
            chain.append([-c for c in r])
    return chain


def _chain_sign_changes(chain, x):
    signs = []
    for coeffs in chain:
        v = _eval_list(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _nudge_endpoints(p, a, b):
    """(a, b, adjusted): the interval as Fractions, each endpoint where p
    vanishes moved inward by :data:`ENDPOINT_EPS` until it no longer
    does.  The zero polynomial vanishes everywhere and is rejected."""
    if p.is_zero():
        raise ValueError("sign and root questions are undefined for the "
                         "zero polynomial")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b, got a=%s b=%s" % (a, b))
    adjusted = False
    while p(a) == 0:
        a += ENDPOINT_EPS
        adjusted = True
    while p(b) == 0:
        b -= ENDPOINT_EPS
        adjusted = True
    return a, b, adjusted


def sturm_root_count(p, a, b):
    """Exact number of distinct real roots of p in the open interval (a, b).

    Endpoints where p vanishes are nudged inward by :data:`ENDPOINT_EPS`
    so the Sturm count is well defined.
    """
    a, b, _ = _nudge_endpoints(p, a, b)
    if not a < b:
        return 0
    chain = _sturm_chain(_square_free(p))
    # Sturm: V(a) - V(b) counts distinct roots in (a, b]; p(b) != 0 so the
    # half-open interval equals the open one.
    return _chain_sign_changes(chain, a) - _chain_sign_changes(chain, b)


@dataclass
class SignCertificate:
    """Machine-checkable record of why p has fixed sign on (a, b)."""

    polynomial: Polynomial
    interval: tuple  # (Fraction, Fraction), after any endpoint adjustment
    claimed_sign: str  # "negative" | "positive"
    descartes_bound: int
    endpoint_values: list  # [(Fraction point, Fraction value), ...]
    sturm_root_count: int
    verdict: str  # "certified" | "refuted"
    endpoint_adjusted: bool = False
    spot_checks: list = field(default_factory=list)  # extra exact anchors

    def to_json(self):
        def frac(q):
            q = Fraction(q)
            return "%d/%d" % (q.numerator, q.denominator)

        return json.dumps(
            {
                "coefficients": self.polynomial.coefficients,
                "interval": [frac(self.interval[0]), frac(self.interval[1])],
                "claimed_sign": self.claimed_sign,
                "descartes_bound": self.descartes_bound,
                "endpoint_values": [
                    [frac(x), frac(v)] for x, v in self.endpoint_values
                ],
                "sturm_root_count": self.sturm_root_count,
                "verdict": self.verdict,
                "endpoint_adjusted": self.endpoint_adjusted,
                "spot_checks": [
                    [frac(x), frac(v)] for x, v in self.spot_checks
                ],
            },
            indent=2,
            sort_keys=True,
        )


def _matches(value, claimed):
    if claimed == "negative":
        return value < 0
    if claimed == "positive":
        return value > 0
    raise ValueError("claimed sign must be 'negative' or 'positive'")


def certify_sign(p, a, b, claimed, spot_points=()):
    """Certify (or refute) that p has the claimed strict sign on (a, b).

    Certified means: zero roots on the open interval by Sturm count, and
    exact evaluation at both endpoints and the midpoint agrees with the
    claim.  Endpoints where p vanishes are nudged inward by
    :data:`ENDPOINT_EPS` and the adjustment is recorded.  ``spot_points``
    are extra rational points whose exact values are recorded for
    cross-checking against published anchor values.
    """
    a, b, adjusted = _nudge_endpoints(p, a, b)
    mid = (a + b) / 2
    points = [a, mid, b]
    values = [(x, p(x)) for x in points]
    count = sturm_root_count(p, a, b)
    ok = count == 0 and all(_matches(v, claimed) for _, v in values)
    return SignCertificate(
        polynomial=p,
        interval=(a, b),
        claimed_sign=claimed,
        descartes_bound=sign_changes(p),
        endpoint_values=values,
        sturm_root_count=count,
        verdict="certified" if ok else "refuted",
        endpoint_adjusted=adjusted,
        spot_checks=[(Fraction(x), p(Fraction(x))) for x in spot_points],
    )


# The four fixed-sign polynomials of the proof's algebraic lemma, ascending
# coefficients, keyed by their index there (index 2 is transcendental and
# lives in proofaudit).  All are strictly negative on (0, 1).
LEMMA_POLYNOMIALS = {
    1: Polynomial([-3, -4, -2, 4, 1]),
    3: Polynomial([-1, -6, -21, -16, -3, 6, 1]),
    4: Polynomial([-1, -7, -8, -2, 5, 1]),
    5: Polynomial([-6, -83, -198, -205, -62, 27, 34, 5]),
}

# Published integer anchor values are re-derived at these points.
LEMMA_SPOT_POINTS = {1: (1, 2), 3: (1, 3), 4: (1, 2), 5: (1, 2)}


def certify_lemma_polynomials():
    """Certificates for all four fixed-sign polynomials on (0, 1)."""
    return {
        i: certify_sign(
            LEMMA_POLYNOMIALS[i], 0, 1, "negative", LEMMA_SPOT_POINTS[i]
        )
        for i in sorted(LEMMA_POLYNOMIALS)
    }
