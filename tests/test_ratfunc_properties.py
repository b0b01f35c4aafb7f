"""Property tests for the RatFunc field laws (needs hypothesis).

Every RatFunc is normalized on construction: numerator and denominator
coprime, the denominator monic under the order.  Equality is structural, so
each law below also checks that two routes to the same function normalize
to the same representative.  verify_ode_solution relies on these laws.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from delta_kernel.multipoly import MultiPoly, poly_gcd  # noqa: E402
from delta_kernel.ratfunc import RatFunc  # noqa: E402

SIG = ("x", "y")
FAST = settings(max_examples=60, deadline=None, derandomize=True)

coeffs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4]))


# quotients of polynomials of up to three terms, each variable to a power
# of at most 2
exponents = st.tuples(*(st.integers(0, 2) for _ in SIG))
polys = st.dictionaries(exponents, coeffs, max_size=3).map(lambda t: MultiPoly(SIG, t))
ratfuncs = st.builds(RatFunc, polys, polys.filter(bool))
nonzero_polys = polys.filter(bool)
nonzero_ratfuncs = ratfuncs.filter(bool)


def assert_normal(r):
    """r is in lowest terms with a monic denominator; zero is 0/1."""
    assert not r.den.is_zero()
    assert r.den.leading()[1] == 1
    if r.is_zero():
        assert r.den == MultiPoly.const(SIG, 1)
    else:
        assert poly_gcd(r.num, r.den).total_degree() == 0


@FAST
@given(polys, nonzero_polys)
def test_construction_normalizes(num, den):
    r = RatFunc(num, den)
    assert_normal(r)
    # the same function: num * r.den == r.num * den
    assert num * r.den == r.num * den


@FAST
@given(ratfuncs, ratfuncs, ratfuncs)
def test_addition_is_associative_and_commutative(a, b, c):
    left, right = (a + b) + c, a + (b + c)
    assert left == right
    assert a + b == b + a
    assert_normal(left)
    assert_normal(right)


@FAST
@given(ratfuncs, ratfuncs, ratfuncs)
def test_multiplication_is_associative_and_commutative(a, b, c):
    left, right = (a * b) * c, a * (b * c)
    assert left == right
    assert a * b == b * a
    assert_normal(left)
    assert_normal(right)


@FAST
@given(ratfuncs, ratfuncs, ratfuncs)
def test_multiplication_distributes_over_addition(a, b, c):
    left, right = a * (b + c), a * b + a * c
    assert left == right
    assert_normal(left)
    assert_normal(right)


@FAST
@given(ratfuncs, nonzero_ratfuncs)
def test_quotient_times_divisor_is_the_dividend(a, b):
    q = a / b
    assert_normal(q)
    assert q * b == a
    assert a - b == -(b - a)
    assert_normal(a - b)


@FAST
@given(nonzero_ratfuncs)
def test_inverse(a):
    inv = a.inverse()
    assert_normal(inv)
    assert a * inv == RatFunc.from_const(SIG, 1)
    assert inv.inverse() == a
    assert inv == 1 / a


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(MultiPoly.zero(SIG)).inverse()
