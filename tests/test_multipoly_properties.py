"""Property tests for the MultiPoly arithmetic kernel (needs hypothesis).

Products run over a common denominator with integer accumulation; the
reference here multiplies term pair by term pair in Fraction arithmetic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from delta_kernel.multipoly import InexactDivisionError, MultiPoly  # noqa: E402

SIG = ("x", "y", "z")
FAST = settings(max_examples=80, deadline=None, derandomize=True)

coeffs = st.builds(
    Fraction,
    st.integers(-30, 30),
    st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10, 12]),
)
exponents = st.tuples(*(st.integers(0, 3) for _ in SIG))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda t: MultiPoly(SIG, t))
nonzero_polys = polys.filter(bool)
constants = coeffs.map(lambda c: MultiPoly.const(SIG, c))


def naive_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def assert_fraction_terms(p):
    assert all(type(c) is Fraction and c for c in p.terms.values())


@FAST
@given(polys | constants, polys | constants)
def test_mul_matches_term_by_term_reference(a, b):
    prod = a * b
    assert prod.terms == naive_mul(a, b)
    assert_fraction_terms(prod)


@FAST
@given(polys, polys)
def test_mul_with_cancelling_cross_terms(p, q):
    # (p + q)(p - q) = p^2 - q^2: the cross terms p*q cancel inside the loop
    prod = (p + q) * (p - q)
    assert prod.terms == naive_mul(p + q, p - q)
    assert prod == p * p - q * q
    assert_fraction_terms(prod)


@FAST
@given(polys)
def test_mul_by_zero_and_one(a):
    zero = MultiPoly.zero(SIG)
    assert (a * zero).is_zero() and (zero * a).is_zero()
    assert a * MultiPoly.const(SIG, 1) == a


@FAST
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a - b == a + (-b)
    assert_fraction_terms(a - b)


@FAST
@given(polys, nonzero_polys)
def test_exact_div_round_trip(a, b):
    q = (a * b).exact_div(b)
    assert q == a
    assert_fraction_terms(q)


@FAST
@given(polys, nonzero_polys.filter(lambda p: not p.is_constant()))
def test_exact_div_raises_on_a_remainder(a, b):
    # b would divide 1 if it divided a*b + 1
    with pytest.raises(InexactDivisionError):
        (a * b + 1).exact_div(b)


@FAST
@given(polys, exponents, coeffs)
def test_mul_monomial_is_a_product(a, e, c):
    assert a.mul_monomial(e, c) == a * MultiPoly.monomial(SIG, e, c)


@FAST
@given(polys, polys, st.integers(0, len(SIG) - 1))
def test_partial_leibniz(a, b, i):
    assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
