"""Chains of derivatives on sparse monomials against oracles that share no
code with them: the step-by-step DiffContext.d chain and sympy's diff.

_derived_terms keeps every link of a chain as a sparse term dict, and a
DiffPoly of one is built only by sparse_poly; the work guard at the end
counts those DiffPolys on a long linear reduction.
"""

import random
from fractions import Fraction

import pytest

from delta_kernel import diffring, multipoly
from delta_kernel.diffring import (
    AlgIndet,
    AutoreducedSet,
    CoeffGen,
    DiffContext,
    _derived_terms,
    ritt_reduce,
    sparse_poly,
    sparse_terms,
)
from delta_kernel.multipoly import MultiPoly, exponents_upto
from delta_kernel.parser import parse_diff_expression, parse_system

from conftest import default_seed

sympy = pytest.importorskip("sympy")

M, N, S = 2, 2, 2
GENS = tuple(CoeffGen(i) for i in range(1, S + 1))
THETAS = list(exponents_upto(M, 4))


def _fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))


def _random_action(rng):
    """A nonzero polynomial in t1, t2 of degree at most 2, some of its
    coefficients not integers."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * S
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(S)] += 1
        terms[tuple(e)] = _fraction(rng)
    return MultiPoly(GENS, terms)


def _random_context(rng):
    actions = {(k, i): _random_action(rng) for k in range(1, M + 1) for i in range(1, S + 1)}
    return DiffContext(M, N, coeff_gens=S, actions=actions)


def _random_indet(rng, ctx):
    theta = [0] * M
    for _ in range(rng.randint(0, 2)):
        theta[rng.randrange(M)] += 1
    return ctx.indet(theta, rng.randint(1, N))


def _random_element(rng, ctx):
    """A nonlinear element over Q(t1, t2): a generator times the square of
    an indeterminate of order at most 2, plus a few random monomials."""
    total = _fraction(rng) * ctx.t(rng.randint(1, S)) * _random_indet(rng, ctx) ** 2
    for _ in range(rng.randint(0, 3)):
        term = ctx.const(_fraction(rng))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                term = term * ctx.t(rng.randint(1, S))
            else:
                term = term * _random_indet(rng, ctx)
        total = total + term
    return total


def _nonlinear(f):
    vars = f.body.vars
    return any(
        sum(x for v, x in zip(vars, e) if isinstance(v, AlgIndet)) > 1 for e in f.body.terms
    )


def _has_generator(f):
    return any(isinstance(f.body.vars[i], CoeffGen) for i in f.body.support_indices())


def _derived(elements, i, theta, memo):
    """theta applied to elements[i] through memo, as a DiffPoly."""
    return sparse_poly(elements[i].ctx, *_derived_terms(elements, i, theta, memo))


def _chain(ctx, f, theta):
    for k, times in enumerate(theta, start=1):
        f = ctx.d(k, f, times)
    return f


# ---------- sympy: the total derivative through partial derivatives ----------

# one generator of a sparse sympy ring per coefficient generator and per
# indeterminate of order at most 2 + 4, the highest a test reaches
INDETS = [AlgIndet(theta, var) for var in range(1, N + 1) for theta in exponents_upto(M, 6)]
RING, *_GENERATORS = sympy.polys.rings.ring(
    [f"t{g.index}" for g in GENS] + [f"u{v.var}_{v.theta}" for v in INDETS], sympy.QQ
)
SYMBOL = dict(zip(GENS + tuple(INDETS), _GENERATORS))


def _to_sympy(p):
    """The MultiPoly p as an element of RING."""
    out = RING.zero
    for e, c in p.terms.items():
        term = RING(sympy.Rational(c.numerator, c.denominator))
        for v, x in zip(p.vars, e):
            term *= SYMBOL[v] ** x
        out += term
    return out


def _sympy_derivative(expr, k, actions):
    """The sum over the generators s of RING of diff(expr, s) * d_k(s): d_k
    of an indeterminate raises its k-th exponent, of t_i it is the action."""
    out = RING.zero
    for v, s in SYMBOL.items():
        if isinstance(v, CoeffGen):
            image = actions.get((k, v.index))
        else:
            image = SYMBOL.get(v.derive(k))
        if image is not None:
            out += expr.diff(s) * image
    return out


def test_derived_equals_the_d_chain_and_sympy_over_q_t():
    rng = random.Random(default_seed())
    for _ in range(3):
        ctx = _random_context(rng)
        actions = {key: _to_sympy(p) for key, p in ctx.actions.items()}
        elements = [_random_element(rng, ctx) for _ in range(2)]
        assert any(map(_nonlinear, elements)) and any(map(_has_generator, elements))
        memo = {}
        for i, f in enumerate(elements):
            by_theta = {(0,) * M: _to_sympy(f.body)}
            for theta in THETAS:
                h = _derived(elements, i, theta, memo)
                assert h == _chain(ctx, f, theta)
                if any(theta):
                    # direction 1 first, as _derived_terms and DiffContext.d run
                    k = max(j for j, t in enumerate(theta) if t)
                    parent = theta[:k] + (theta[k] - 1,) + theta[k + 1 :]
                    by_theta[theta] = _sympy_derivative(by_theta[parent], k + 1, actions)
                assert _to_sympy(h.body) == by_theta[theta]


def test_request_order_does_not_change_a_derivative():
    rng = random.Random(default_seed() + 1)
    ctx = _random_context(rng)
    elements = [_random_element(rng, ctx) for _ in range(2)]
    requests = [(i, theta) for i in range(len(elements)) for theta in THETAS]
    memo = {}
    first = {key: _derived(elements, *key, memo) for key in requests}
    for _ in range(4):
        rng.shuffle(requests)
        memo = {}
        for key in requests:
            entry = _derived_terms(elements, *key, memo)
            h = _derived(elements, *key, memo)
            assert h == first[key] and h.to_str() == first[key].to_str()
            assert _derived_terms(elements, *key, memo) is entry


def test_derived_of_theta_zero_is_the_element():
    ctx = DiffContext(2, 1)
    f = ctx.d(1, ctx.u(), 2) - ctx.u()
    memo = {}
    assert _derived_terms([f], 0, (0, 0), memo) == sparse_terms(f.body)
    h = _derived([f], 0, (0, 0), memo)
    assert h == f and h.to_str() == f.to_str()


# ---------- work guard ----------


def test_reduction_builds_one_diffpoly_per_derivative_a_step_uses(monkeypatch):
    """On d1^16*d2^16*u1 modulo d1^2 u1 - a u1, d2^2 u1 - b u1 the 16
    steps use 16 distinct (element, theta), 15 of them derivatives, whose
    156 links stay sparse in each memo.  ritt_reduce packs each derivative
    straight from its sparse terms: it builds no DiffPoly for one and
    restricts no term dict (on exponent tuples it built 15 and called
    restrict_terms 48 times).  verify derives them again through its own
    memo, so there are two memos, and packs each from its sparse terms
    too: it builds no DiffPoly for one either (it built 15 while it
    re-expanded DiffPolys)."""
    problem = parse_system(
        "m=2 n=1 coeffs=Q\n"
        "poly f1 = d1^2*u1 - 3/2*u1\n"
        "poly f2 = d2^2*u1 + 2*u1\n"
        "set L = f1, f2\n"
    )
    g = parse_diff_expression("d1^16*d2^16*u1", problem.ctx)
    built, restricted, memos = [], [], []
    sparse_poly, derived_terms = diffring.sparse_poly, diffring._derived_terms
    restrict_terms = multipoly.restrict_terms

    def counting(*args):
        built.append(args)
        return sparse_poly(*args)

    def counting_restricts(*args):
        restricted.append(args)
        return restrict_terms(*args)

    def recording(elements, i, theta, memo):
        memos.append(memo)
        return derived_terms(elements, i, theta, memo)

    monkeypatch.setattr(diffring, "sparse_poly", counting)
    monkeypatch.setattr(diffring, "_derived_terms", recording)
    # every restrict in the package goes through multipoly's name; a
    # binding of it in diffring would be counted too
    monkeypatch.setattr(multipoly, "restrict_terms", counting_restricts)
    monkeypatch.setattr(diffring, "restrict_terms", counting_restricts, raising=False)
    res = ritt_reduce(g, AutoreducedSet(problem.sets["L"]))
    used = {(step.element, step.theta) for step in res.steps}
    assert len(res.steps) == len(used) == 16
    assert len({key for key in used if any(key[1])}) == 15
    assert built == [] and restricted == []
    (memo,) = {id(m): m for m in memos}.values()
    assert len(memo) == 156 + 2  # the links and the two elements
    assert res.verify()
    assert built == []
    assert len({id(m) for m in memos}) == 2
    # d1^2 u1 = 3/2 u1 and d2^2 u1 = -2 u1, with separants and initials 1
    assert res.remainder == 6561 * problem.ctx.u()
