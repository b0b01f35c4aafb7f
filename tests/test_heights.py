import io
from fractions import Fraction
from pathlib import Path

import pytest

from delta_kernel import heights
from delta_kernel.groebner import GREVLEX, order_key
from delta_kernel.heights import (
    OdePoly,
    height_axioms_check,
    height_ratfunc,
    rational_solution_search,
    verify_ode_solution,
)
from delta_kernel.cli import main
from delta_kernel.multipoly import MultiPoly, coefficients, exponents_upto, from_dense
from delta_kernel.ratfunc import RatFunc
from delta_kernel.solve import undetermined

TSIG = ("t",)
T = MultiPoly.var(TSIG, "t")
SIG = ("t", "x", "y")
X = MultiPoly.var(SIG, "x")
Y = MultiPoly.var(SIG, "y")


def solution_set(report):
    """The solutions of a HeightReport as (numerator, denominator) pairs."""
    return {(g.num, g.den) for g, _ in report.solutions}


def random_ratfunc(rng, max_deg=6):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, max_deg),)
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[e] = c
        return MultiPoly(TSIG, terms)

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFunc(num, den)


class TestHeight:
    def test_examples(self):
        assert height_ratfunc(RatFunc(T * T + 1, T - 1)) == 2
        assert height_ratfunc(RatFunc.from_const(TSIG, 9)) == 0
        assert height_ratfunc(RatFunc(MultiPoly.const(TSIG, 1), T - 3)) == 1

    def test_zero_iff_constant(self, rng):
        for _ in range(100):
            g = random_ratfunc(rng)
            assert (height_ratfunc(g) == 0) == g.is_constant()


class TestVerify:
    def test_pole_solution(self):
        ode = OdePoly(Y + X * X)
        assert verify_ode_solution(ode, RatFunc(MultiPoly.const(TSIG, 1), T - 3))

    def test_non_solution(self):
        ode = OdePoly(Y - X)
        assert not verify_ode_solution(ode, RatFunc(T))

    def test_zero_solution(self):
        ode = OdePoly(Y + X * X)
        assert verify_ode_solution(ode, RatFunc(MultiPoly.zero(TSIG)))


class TestSearch:
    def test_riccati_families(self):
        ode = OdePoly(Y + X * X)
        rep = rational_solution_search(ode, 2)
        texts = {g.to_str() for g, _ in rep.solutions}
        assert "0" in texts
        assert "1/t" in texts and "1/(t - 1)" in texts
        assert rep.observed_bound == 1
        assert (0, 0) in rep.families and (0, 1) in rep.families

    def test_exponential_has_only_zero(self):
        ode = OdePoly(Y - X)
        rep = rational_solution_search(ode, 3)
        assert len(rep.solutions) == 1
        assert rep.solutions[0][0].is_zero()

    def test_direct_integration(self):
        ode = OdePoly(Y - 1)
        rep = rational_solution_search(ode, 2)
        assert rep.observed_bound == 1
        assert all(h == 1 for _, h in rep.solutions)
        assert {g.to_str() for g, _ in rep.solutions} >= {"t", "t + 1", "t - 1"}

    def test_monotone_in_bound(self):
        ode = OdePoly(Y + X * X)
        r1 = rational_solution_search(ode, 1)
        r2 = rational_solution_search(ode, 2)
        assert solution_set(r1) <= solution_set(r2)

    def test_everything_reverified(self):
        ode = OdePoly(Y + X * X)
        rep = rational_solution_search(ode, 2)
        for g, h in rep.solutions:
            assert verify_ode_solution(ode, g)
            assert height_ratfunc(g) == h
        assert not any("failed" in n for n in rep.notes)

    def test_experimental_partial_case(self):
        # x = t1 + t2 solves y1 - 1 = 0 and y2 - 1 = 0 jointly via P = y1 - y2
        tvars = ("t1", "t2")
        sig = tvars + ("x", "y1", "y2")
        y1 = MultiPoly.var(sig, "y1")
        y2 = MultiPoly.var(sig, "y2")
        ode = OdePoly(y1 - y2, tvars=tvars)
        assert ode.experimental
        t1 = MultiPoly.var(tvars, "t1")
        t2 = MultiPoly.var(tvars, "t2")
        assert verify_ode_solution(ode, RatFunc(t1 + t2))
        assert not verify_ode_solution(ode, RatFunc(t1 + 2 * t2))
        rep = rational_solution_search(ode, 1)
        texts = {g.to_str() for g, _ in rep.solutions}
        assert "t1 + t2" in texts
        assert rep.experimental


class TestAxioms:
    def test_power_preserves_coprimality(self):
        g = RatFunc(T - 1, T + 1)
        assert height_ratfunc(g ** 3) == 3

    def test_inverse(self):
        assert height_ratfunc(RatFunc(T * T).inverse()) == 2

    def test_cancellation_bound(self):
        f, g = RatFunc(T), RatFunc(-T)
        assert height_ratfunc(f + g) == 0 <= 2

    def test_random_samples(self, rng):
        samples = [(random_ratfunc(rng), random_ratfunc(rng)) for _ in range(100)]
        chk = height_axioms_check(samples, powers=(2, 3))
        assert chk.ok
        assert chk.checked == 100


# ---------- the residual on integer term dicts against MultiPoly ----------


def reference_equations(ode, p_monos, avars, q_free, bvars, pivot):
    """The coefficient system as it was built on MultiPoly: the residual's
    coefficients of the t-monomials, keyed by t-monomial."""
    tsig = ode.tvars
    s = len(tsig)
    ext = tsig + tuple(avars) + tuple(bvars)
    p_sym = undetermined(tsig, p_monos, avars, ext)
    q_sym = undetermined(tsig, q_free, bvars, ext, lead=pivot)
    numerators = [p_sym.partial(k) * q_sym - p_sym * q_sym.partial(k) for k in range(s)]
    max_pow = 0
    for e in ode.poly.terms:
        max_pow = max(max_pow, e[s] + 2 * sum(e[s + 1 + k] for k in range(s)))
    residual = MultiPoly.zero(ext)
    for e, c in ode.poly.terms.items():
        xdeg = e[s]
        ydegs = [e[s + 1 + k] for k in range(s)]
        factor = MultiPoly.monomial(tsig, e[:s], c).restrict(ext)
        factor = factor * p_sym ** xdeg
        for k, yd in enumerate(ydegs):
            if yd:
                factor = factor * numerators[k] ** yd
        factor = factor * q_sym ** (max_pow - xdeg - 2 * sum(ydegs))
        residual = residual + factor
    return coefficients(residual, s)


def _strata(s, bound):
    """(p_monos, avars, q_free, bvars, pivot) of every stratum the search
    runs up to the degree bound, pivots over every monomial of top degree."""
    key = order_key(GREVLEX)
    for pmax in range(bound + 1):
        for dq in range(pmax + 1):
            p_monos = sorted(exponents_upto(s, pmax), key=key, reverse=True)
            q_monos = sorted(exponents_upto(s, dq), key=key, reverse=True)
            for pivot in (e for e in q_monos if sum(e) == dq):
                q_free = [e for e in q_monos if key(e) < key(pivot)]
                avars = [f"a{i}" for i in range(len(p_monos))]
                bvars = [f"b{i}" for i in range(len(q_free))]
                yield p_monos, avars, q_free, bvars, pivot


TSIG2 = ("t1", "t2")
SIG2 = TSIG2 + ("x", "y1", "y2")
X2, Y21, Y22 = (MultiPoly.var(SIG2, v) for v in ("x", "y1", "y2"))
T21 = MultiPoly.var(SIG2, "t1")

ODES = {
    # the benchmark's three first-order equations
    "riccati": (lambda: OdePoly(Y + Fraction(3, 2) * X * X), 3),
    "square": (lambda: OdePoly(Y * Y - 2 * X), 3),
    "growth": (lambda: OdePoly(Y - X), 3),
    # a two-t equation of the experimental pipeline
    "two_t": (lambda: OdePoly(Y21 * Y22 - T21 * X2 * X2 + Fraction(1, 3) * X2, tvars=TSIG2), 3),
}


@pytest.mark.parametrize("name", sorted(ODES))
def test_integer_residual_matches_the_multipoly_residual(name):
    make, bound = ODES[name]
    ode = make()
    checked = 0
    for p_monos, avars, q_free, bvars, pivot in _strata(len(ode.tvars), bound):
        got = heights._coefficient_equations(ode, p_monos, avars, q_free, bvars, pivot)
        want = reference_equations(ode, p_monos, avars, q_free, bvars, pivot)
        assert set(got) == set(want)
        unknown_sig = tuple(avars) + tuple(bvars)
        scale = None
        for head, eq in want.items():
            ints = got[head]
            assert all(type(c) is int for c in ints.values())
            # one positive scalar for the whole system
            e, c = next(iter(eq.terms.items()))
            scale = scale or Fraction(ints[e]) / c
            assert scale > 0
            assert MultiPoly(unknown_sig, ints) == eq.scale(scale)
        checked += 1
    assert checked >= 10


def _dense_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_dense(rng, deg):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(deg + 1)]


class TestCandidateKey:
    """heights._ratfunc_key, the key a sampled point is deduplicated on
    before any RatFunc is made, is the RatFunc identity."""

    def test_literal_cases(self):
        key = heights._ratfunc_key
        F = Fraction
        # a planted common factor t + 1, with and without denominators
        assert key([-2, -1, 1], [0, 1, 1]) == ((-2, 1), (0, 1))
        assert key([F(-1), F(-1, 2), F(1, 2)], [0, F(1, 2), F(1, 2)]) == ((-2, 1), (0, 1))
        # every zero p is 0/1
        assert key([0, 0], [3, F(1, 2), 1]) == key([0], [1]) == ((), (1,))
        # a negative leading term of q: 1/(3 - 2t) = -1/(2t - 3)
        assert key([1], [3, -2]) == ((-1,), (-3, 2))
        # q with integer content: 2/(6t + 4) = 1/(3t + 2)
        assert key([2], [4, 6]) == ((1,), (2, 3))

    def test_equal_keys_exactly_when_equal_ratfuncs(self, rng):
        pairs = []
        for _ in range(12):
            p, q = _random_dense(rng, rng.randint(0, 3)), _random_dense(rng, rng.randint(0, 3))
            q[-1] = q[-1] or Fraction(1)
            pairs.append((p, q))
            # the same function again: a planted common factor and a
            # nonzero scalar, negative half the time
            h = _random_dense(rng, rng.randint(1, 2))
            h[-1] = h[-1] or Fraction(-1)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
            pairs.append(([c * x for x in _dense_mul(p, h)], [c * x for x in _dense_mul(q, h)]))
            # a zero numerator, written with trailing zeros
            pairs.append(([Fraction(0)] * rng.randint(1, 3), q))
        funcs = [RatFunc(from_dense(p, TSIG), from_dense(q, TSIG)) for p, q in pairs]
        keys = [heights._ratfunc_key(p, q) for p, q in pairs]
        equal = 0
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                assert (keys[i] == keys[j]) == (funcs[i] == funcs[j])
                equal += i != j and keys[i] == keys[j]
        assert equal > len(pairs)

    def test_several_t_build_each_candidate_once(self, monkeypatch):
        # with two t-variables the key is the candidate's RatFunc, so each of
        # the 469 sampled points of P = y1 - y2 at D = 1 is built once,
        # though only 227 distinct solutions are kept
        calls = []
        candidate = heights._candidate

        def counted(*args):
            calls.append(args)
            return candidate(*args)

        monkeypatch.setattr(heights, "_candidate", counted)
        rep = rational_solution_search(OdePoly(Y21 - Y22, tvars=TSIG2), 1)
        assert (len(calls), len(rep.solutions)) == (469, 227)


SEARCH = Path(__file__).parent / "data" / "solver_golden"


@pytest.mark.parametrize("ode, deg, calls", [("growth", 3, 2), ("square", 3, 8)])
def test_solve_ode_specializes_each_distinct_candidate_once(ode, deg, calls, monkeypatch):
    """Work guard: heights.specialize runs twice per distinct candidate (p
    and q), not for each of the 310 and 331 sampled points, which read 620
    and 662 calls while every point was made a RatFunc."""
    count = [0]
    specialize = heights.specialize

    def counting(*args, **kwargs):
        count[0] += 1
        return specialize(*args, **kwargs)

    monkeypatch.setattr(heights, "specialize", counting)
    monkeypatch.chdir(SEARCH)
    argv = ["--json", "solve-ode", "search.dk", "--ode", ode, "--deg", str(deg)]
    assert main(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert count[0] == calls


def test_failed_verification_is_noted_once(monkeypatch):
    # x = t is sampled in several strata of x' = 1; reject it every time
    verify = heights.verify_ode_solution
    monkeypatch.setattr(
        heights, "verify_ode_solution", lambda ode, g: g.to_str() != "t" and verify(ode, g)
    )
    rep = rational_solution_search(OdePoly(Y - 1), 2)
    assert rep.notes == ["sample failed exact verification: t"]
    texts = {g.to_str() for g, _ in rep.solutions}
    assert "t" not in texts
    assert {"t + 1", "t - 1"} <= texts
