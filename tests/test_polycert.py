"""Exact polynomial sign certification."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gamma_envelope.polycert import (
    LEMMA_POLYNOMIALS,
    LEMMA_SPOT_POINTS,
    Polynomial,
    certify_lemma_polynomials,
    certify_sign,
    sign_changes,
    sturm_root_count,
)


class TestPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == [1, 2]
        assert repr(Polynomial([1, 2, 0, 0])) == "Polynomial([1, 2])"
        assert Polynomial([0, 0]).coefficients == [0]

    def test_exact_evaluation(self):
        p = LEMMA_POLYNOMIALS[1]
        assert p(1) == -4
        assert p(2) == 29
        assert p(Fraction(1, 2)) == Fraction(-79, 16)

    def test_derivative(self):
        assert Polynomial([-3, -4, -2, 4, 1]).derivative().coefficients == [
            -4, -4, 12, 4,
        ]

    @pytest.mark.parametrize("c", [7, -7])
    def test_cauchy_root_bound_of_a_constant(self, c):
        # a nonzero constant has no root: its bound is 1, not an error
        assert Polynomial([c]).cauchy_root_bound() == 1


class TestSignChanges:
    def test_lemma_h1(self):
        assert sign_changes(LEMMA_POLYNOMIALS[1]) == 1

    def test_no_changes(self):
        assert sign_changes(Polynomial([1, 0, 1])) == 0

    def test_lemma_h5(self):
        assert sign_changes(LEMMA_POLYNOMIALS[5]) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sign_changes(Polynomial([0]))


class TestSturm:
    def test_h1_has_no_root_in_unit_interval(self):
        assert sturm_root_count(LEMMA_POLYNOMIALS[1], 0, 1) == 0

    def test_h1_has_root_between_1_and_2(self):
        # h1(1) = -4 and h1(2) = 29
        assert sturm_root_count(LEMMA_POLYNOMIALS[1], 1, 2) == 1

    def test_sqrt_two(self):
        assert sturm_root_count(Polynomial([-2, 0, 1]), 1, 2) == 1
        assert sturm_root_count(Polynomial([-2, 0, 1]), -2, 2) == 2

    def test_repeated_root(self):
        # a root of multiplicity m counts once: the chain of p and p' is
        # gcd(p, p') times a Sturm chain of p's square-free part
        assert sturm_root_count(Polynomial([1, -2, 1]), 0, 2) == 1
        # (x-1)^3 (x+2)^2
        p = Polynomial([-4, 8, -1, -5, 1, 1])
        assert sturm_root_count(p, 0, 2) == 1
        assert sturm_root_count(p, -3, 2) == 2
        # (x^2-2)^2: two irrational double roots
        assert sturm_root_count(Polynomial([4, 0, -4, 0, 1]), -2, 2) == 2
        # (x-1)^2 on (1, 2): the double root at the endpoint is divided
        # out of p before the count
        assert sturm_root_count(Polynomial([1, -2, 1]), 1, 2) == 0

    def test_endpoint_root_perturbed(self):
        # a root exactly at an endpoint lies outside the open interval
        assert sturm_root_count(Polynomial([-1, 1]), 1, 2) == 0
        assert sturm_root_count(Polynomial([0, 1]), 0, 1) == 0

    def test_root_near_a_vanishing_endpoint_counted(self):
        # x (2*10^6 x - 1): roots at 0 and 5e-7; the root at the endpoint
        # is divided out, and the one next to it is still counted
        p = Polynomial([0, -1, 2 * 10**6])
        assert sturm_root_count(p, 0, 1) == 1
        # the mirror image at the upper endpoint: (x - 1)(2*10^6 x - 1999999)
        q = Polynomial([1999999, -3999999, 2 * 10**6])
        assert sturm_root_count(q, 0, 1) == 1
        # a double root at the endpoint and a simple one inside
        # (x - 1/3)^2 (x - 1/2) times 18
        assert sturm_root_count(Polynomial([-1, 8, -21, 18]),
                                Fraction(1, 3), 1) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=7).filter(
            lambda c: any(v != 0 for v in c[1:])
        )
    )
    def test_descartes_consistency(self, coeffs):
        # positive-root count <= sign changes, same parity
        p = Polynomial(coeffs)
        bound = p.cauchy_root_bound() + 1
        roots = sturm_root_count(p, 0, bound)
        changes = sign_changes(p)
        assert roots <= changes
        # parity matches for counts with multiplicity; Sturm counts
        # distinct roots, so only the upper bound is asserted here


class TestCertificates:
    def test_all_lemma_polynomials_certified_negative(self):
        certs = certify_lemma_polynomials()
        for i, cert in certs.items():
            assert cert.verdict == "certified", i
            assert cert.sturm_root_count == 0
            assert cert.descartes_bound == 1

    def test_published_anchor_values_exact(self):
        certs = certify_lemma_polynomials()
        anchors = {
            1: [(1, -4), (2, 29)],
            3: [(1, -40), (3, 1304)],
            4: [(1, -12), (2, 49)],
            5: [(1, -488), (2, 84)],
        }
        for i, expected in anchors.items():
            got = [(int(x), int(v)) for x, v in certs[i].spot_checks]
            assert got == expected

    def test_wrong_claim_refuted(self):
        cert = certify_sign(LEMMA_POLYNOMIALS[4], 0, 1, "positive")
        assert cert.verdict == "refuted"

    def test_zero_polynomial_rejected(self):
        # it vanishes everywhere, so no sign or root count is defined
        with pytest.raises(ValueError, match="zero polynomial"):
            certify_sign(Polynomial([0]), 0, 1, "negative")
        with pytest.raises(ValueError, match="zero polynomial"):
            sturm_root_count(Polynomial([0]), 0, 1)

    def test_endpoint_zero_adjustment_recorded(self):
        # x (x - 1) vanishes at both ends of (0, 1): the endpoints lie
        # outside the open interval, so their zeros are recorded as is
        cert = certify_sign(Polynomial([0, -1, 1]), 0, 1, "negative")
        assert cert.verdict == "certified"
        assert cert.interval == (Fraction(0), Fraction(1))
        assert [v for _, v in cert.endpoint_values] == [0, Fraction(-1, 4), 0]

    def test_root_near_a_vanishing_endpoint_refutes(self):
        # p < 0 on (0, 5e-7) next to the endpoint 0 where p vanishes: the
        # count on all of (0, 1) finds that root
        p = Polynomial([0, -1, 2 * 10**6])
        cert = certify_sign(p, 0, 1, "positive")
        assert cert.verdict == "refuted"
        assert cert.sturm_root_count == 1
        assert cert.interval == (Fraction(0), Fraction(1))

    def test_reevaluation_reproduces_recorded_values(self):
        for i, cert in certify_lemma_polynomials().items():
            p = cert.polynomial
            for x, v in cert.endpoint_values + cert.spot_checks:
                assert p(Fraction(x)) == v

    def test_json_roundtrip(self):
        cert = certify_lemma_polynomials()[1]
        doc = cert.as_dict()
        assert json.loads(json.dumps(doc)) == doc  # plain JSON types only
        assert doc["verdict"] == "certified"
        assert doc["claimed_sign"] == "negative"
        assert doc["coefficients"] == [-3, -4, -2, 4, 1]
        assert doc["sturm_root_count"] == 0
        assert ["1/1", "-4/1"] in doc["spot_checks"]
        # rationals serialize as num/den strings
        for lo_hi in doc["interval"]:
            num, den = lo_hi.split("/")
            int(num), int(den)

    def test_spot_points_match_catalog(self):
        assert set(LEMMA_SPOT_POINTS) == set(LEMMA_POLYNOMIALS)
