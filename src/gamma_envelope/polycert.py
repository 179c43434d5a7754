"""Exact sign certification of integer-coefficient polynomials.

Everything here runs on exact rational arithmetic (``fractions.Fraction``
over Python ints): a certificate is only worth producing if re-checking it
cannot raise tolerance questions.

The module also carries the four fixed-sign polynomials used by the
monotonicity proof (see :data:`LEMMA_POLYNOMIALS`); their certification on
(0, 1) is the machine half of the Descartes-rule argument.
"""

from dataclasses import dataclass, field
from fractions import Fraction

def _trim(coeffs):
    """Drop trailing zero coefficients in place; a lone zero stays."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _horner(coeffs, x):
    """Value at x of the polynomial with ascending ``coeffs``; exact when
    x and the coefficients are int/Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
        return _horner(self.coefficients, x)

    def derivative(self):
        return Polynomial(
            [i * c for i, c in enumerate(self.coefficients)][1:] or [0]
        )

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


def _poly_rem(a, b):
    """Exact remainder of a / b over int or Fraction coefficient lists
    (ascending)."""
    db, lb = len(b) - 1, b[-1]
    rem = list(a)
    while len(rem) - 1 >= db and rem != [0]:
        dr = len(rem) - 1
        q = Fraction(rem[-1]) / lb
        for i in range(db + 1):
            rem[dr - db + i] -= q * b[i]
        rem.pop()  # leading term cancelled exactly
        rem = _trim(rem) or [Fraction(0)]
    return rem


def _sturm_chain(p):
    """p, p' and the negated remainders of Euclid's algorithm on them.

    Every member is a multiple of g = gcd(p, p'), and the chain divided by
    g is a Sturm chain of p's square-free part.  At a point where p is
    nonzero g is nonzero too, so dividing by it changes no sign
    variation: the chain counts p's distinct roots without a square-free
    pass."""
    chain = [p.coefficients, p.derivative().coefficients]
    while chain[-1] != [0]:
        chain.append([-c for c in _poly_rem(chain[-2], chain[-1])])
    return chain[:-1]


def _chain_sign_changes(chain, x):
    signs = []
    for coeffs in chain:
        v = _horner(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _interval(p, a, b):
    """(a, b) as Fractions, after checking that a < b.  The zero
    polynomial vanishes everywhere and is rejected."""
    if p.is_zero():
        raise ValueError("sign and root questions are undefined for the "
                         "zero polynomial")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b, got a=%s b=%s" % (a, b))
    return a, b


def _divide_out_root(coeffs, r):
    """Integer ``coeffs`` with every factor (d x - n) divided out, where
    r = n/d is a Fraction in lowest terms.  d x - n is primitive, so by
    Gauss's lemma each quotient has integer coefficients and the
    synthetic division below is exact."""
    n, d = r.numerator, r.denominator
    while _horner(coeffs, r) == 0:
        # c_i = d q_(i-1) - n q_i, solved from the top coefficient down
        q, acc = [0] * (len(coeffs) - 1), 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = (coeffs[i] + n * acc) // d
            q[i - 1] = acc
        coeffs = q
    return coeffs


def sturm_root_count(p, a, b):
    """Exact number of distinct real roots of p in the open interval (a, b).

    Roots at a or b are divided out of p first, so the Sturm chain is
    built for a polynomial that vanishes at neither endpoint and counts
    exactly the roots strictly inside.
    """
    a, b = _interval(p, a, b)
    inner = _divide_out_root(_divide_out_root(p.coefficients, a), b)
    chain = _sturm_chain(Polynomial(inner))
    # Sturm: V(a) - V(b) counts distinct roots in (a, b]; inner(b) != 0 so
    # the half-open interval equals the open one.
    return _chain_sign_changes(chain, a) - _chain_sign_changes(chain, b)


@dataclass
class SignCertificate:
    """Machine-checkable record of why p has fixed sign on (a, b)."""

    polynomial: Polynomial
    interval: tuple  # (Fraction, Fraction)
    claimed_sign: str  # "negative" | "positive"
    descartes_bound: int
    endpoint_values: list  # [(Fraction point, Fraction value), ...]
    sturm_root_count: int
    verdict: str  # "certified" | "refuted"
    spot_checks: list = field(default_factory=list)  # extra exact anchors

    def as_dict(self):
        """The certificate as plain JSON types, each rational a
        ``"num/den"`` string."""
        def frac(q):
            q = Fraction(q)
            return "%d/%d" % (q.numerator, q.denominator)

        return {
            "coefficients": list(self.polynomial.coefficients),
            "interval": [frac(self.interval[0]), frac(self.interval[1])],
            "claimed_sign": self.claimed_sign,
            "descartes_bound": self.descartes_bound,
            "endpoint_values": [
                [frac(x), frac(v)] for x, v in self.endpoint_values
            ],
            "sturm_root_count": self.sturm_root_count,
            "verdict": self.verdict,
            "spot_checks": [[frac(x), frac(v)] for x, v in self.spot_checks],
        }


def certify_sign(p, a, b, claimed, spot_points=()):
    """Certify (or refute) that p has the claimed strict sign on (a, b).

    Certified means: zero roots on the open interval (a, b) by exact
    Sturm count, the claimed sign at the midpoint, and the claimed sign
    or 0 at each endpoint, all by exact evaluation.  With no root inside,
    the midpoint's sign holds on all of (a, b); an endpoint lies outside
    the open interval and may vanish, and its 0 is recorded as is.
    ``spot_points`` are extra rational points whose exact values are
    recorded for cross-checking against published anchor values.
    """
    if claimed not in ("negative", "positive"):
        raise ValueError("claimed sign must be 'negative' or 'positive', "
                         "got %r" % (claimed,))
    a, b = _interval(p, a, b)
    count = sturm_root_count(p, a, b)
    values = [(x, p(x)) for x in (a, (a + b) / 2, b)]
    sign = 1 if claimed == "positive" else -1
    at_a, at_mid, at_b = (sign * v for _, v in values)
    ok = count == 0 and at_mid > 0 and at_a >= 0 and at_b >= 0
    return SignCertificate(
        polynomial=p,
        interval=(a, b),
        claimed_sign=claimed,
        descartes_bound=sign_changes(p),
        endpoint_values=values,
        sturm_root_count=count,
        verdict="certified" if ok else "refuted",
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
