"""Ritt-Kolchin certificates and the differential-polynomial printer against
reference implementations kept here.

The references are the straightforward versions: pseudo-division written
with DiffPoly operations, a reduction loop that rescales every earlier
quotient at each step, and a printer that rebuilds every factor string.
"""

import random
from fractions import Fraction

import pytest

from delta_kernel.diffring import (
    AlgIndet,
    CoeffGen,
    DiffContext,
    DiffPoly,
    _pseudo_reduce_once,
    _reduction_target,
    ritt_reduce,
)
from delta_kernel.multipoly import MultiPoly
from delta_kernel.parser import parse_diff_expression, parse_system
from delta_kernel.printer import print_diffpoly

from conftest import default_seed, random_diffpoly

# ---------- references ----------


def reference_pseudo_reduce_once(r, h, v, ctx):
    d = h.degree_in(v)
    lc = h.coeff_of_power(v, d)
    q = ctx.const(0)
    e = 0
    while True:
        dr = r.degree_in(v)
        if dr < d:
            return e, q, r
        cr = r.coeff_of_power(v, dr)
        vpow = ctx.indet(v.theta, v.var) ** (dr - d)
        q = lc * q + cr * vpow
        r = lc * r - cr * vpow * h
        e += 1


def reference_ritt_reduce(g, aset):
    """(remainder, sep_powers, init_powers, [(element, theta, quotient)])."""
    ctx = g.ctx
    leaders = aset.leaders()
    remainder, sep, init, steps = g, {}, {}, []
    while True:
        target = _reduction_target(remainder, aset, leaders)
        if target is None:
            return remainder, sep, init, steps
        v, i = target
        f = aset.elements[i]
        theta = tuple(a - b for a, b in zip(v.theta, leaders[i].theta))
        h = f
        for k, times in enumerate(theta, start=1):
            h = ctx.d(k, h, times)
        e, q, r = reference_pseudo_reduce_once(remainder, h, v, ctx)
        remainder = DiffPoly(ctx, r.body.restrict(ctx._signature(r.indets())))
        if e:
            if any(theta):
                book, base = sep, f.separant()
            else:
                book, base = init, f.initial()
            book[i] = book.get(i, 0) + e
            scale = base**e
            steps = [(el, th, quo * scale) for el, th, quo in steps]
        if not q.is_zero():
            steps.append((i, theta, q))


def reference_print_diffpoly(f):
    from delta_kernel.printer import _coeff_factor, _indet_factor

    body = f.body
    if body.is_zero():
        return "0"
    pieces = []
    for e, c in body.sorted_terms():
        factors = []
        for i in range(len(body.vars) - 1, -1, -1):
            exp = e[i]
            if not exp:
                continue
            v = body.vars[i]
            if isinstance(v, CoeffGen):
                factors.append(_coeff_factor(v, exp))
            else:
                factors.append(_indet_factor(v, exp))
        mono = "*".join(factors)
        if not mono:
            chunk = str(abs(c))
        elif abs(c) == 1:
            chunk = mono
        else:
            chunk = f"{abs(c)}*{mono}"
        pieces.append(("-" if c < 0 else "+", chunk))
    sign, chunk = pieces[0]
    out = ("-" if sign == "-" else "") + chunk
    for sign, chunk in pieces[1:]:
        out += f" {sign} {chunk}"
    return out


# ---------- seeded targets on the two benchmark shapes ----------


def _q(rng):
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
    return f"({c})"


def _indet(theta, var):
    parts = [f"d{k}^{e}" if e > 1 else f"d{k}" for k, e in enumerate(theta, 1) if e]
    return "*".join(parts + [f"u{var}"])


def _linear_problem(rng):
    text = (
        "m=2 n=1 coeffs=Q\n"
        f"poly f1 = d1^2*u1 - {_q(rng)}*u1\n"
        f"poly f2 = d2^2*u1 - {_q(rng)}*u1\n"
        "set L = f1, f2\n"
    )
    return parse_system(text), "L"


def _nonlinear_problem(rng):
    text = (
        "m=1 n=2 coeffs=Q\n"
        f"poly f1 = (d1*u1)^2 - {_q(rng)}*u2\n"
        f"poly f2 = d1*u2 - {_q(rng)}*u1*u2 + 1\n"
        "set N = f1, f2\n"
    )
    return parse_system(text), "N"


def _target(rng, problem, max_order):
    ctx = problem.ctx
    pieces = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            theta = [0] * ctx.m
            for _ in range(rng.randint(0, max_order)):
                theta[rng.randrange(ctx.m)] += 1
            power = rng.randint(1, 2)
            base = _indet(theta, rng.randint(1, ctx.n))
            factors.append(f"({base})^{power}" if power > 1 else base)
        pieces.append(f"{_q(rng)}*" + "*".join(factors))
    return parse_diff_expression(" + ".join(pieces), ctx)


@pytest.mark.parametrize(
    "make, max_order, count",
    [(_linear_problem, 10, 30), (_nonlinear_problem, 4, 16)],
    ids=["linear-m2", "nonlinear-m1n2"],
)
def test_certificates_match_eager_scaling(make, max_order, count):
    rng = random.Random(f"{default_seed()}:{make.__name__}")
    seen_scaled = 0
    for _ in range(count):
        problem, name = make(rng)
        aset = problem.autoreduced(name)
        g = _target(rng, problem, max_order)
        res = ritt_reduce(g, aset)
        remainder, sep, init, steps = reference_ritt_reduce(g, aset)
        assert res.sep_powers == sep and res.init_powers == init
        assert [(s.element, s.theta) for s in res.steps] == [(el, th) for el, th, _ in steps]
        assert all(s.quotient == q for s, (_, _, q) in zip(res.steps, steps))
        assert res.remainder == remainder
        assert res.verify()
        printed = [print_diffpoly(s.quotient) for s in res.steps]
        assert printed == [print_diffpoly(q) for _, _, q in steps]
        assert print_diffpoly(res.remainder) == print_diffpoly(remainder)
        seen_scaled += len(res.steps) > 1 and bool(sep or init)
    if make is _nonlinear_problem:
        # the deferred products are exercised: earlier quotients get scaled
        assert seen_scaled >= 3


def test_pseudo_reduce_once_identity():
    rng = random.Random(default_seed())
    ctx = DiffContext(1, 2)
    different_signatures = 0
    for _ in range(40):
        v = AlgIndet((rng.randint(1, 2),), rng.randint(1, 2))
        vx = ctx.indet(v.theta, v.var)
        d = rng.randint(1, 2)
        lc = random_diffpoly(rng, ctx, max_order=1, max_degree=1, max_terms=2)
        if lc.is_zero() or lc.contains(v):
            lc = ctx.const(3)
        h = lc * vx**d + random_diffpoly(rng, ctx, max_order=1, max_degree=1, max_terms=2)
        r = random_diffpoly(rng, ctx, max_order=3, max_degree=2, max_terms=3)
        r = r * vx ** rng.randint(0, 3) + random_diffpoly(rng, ctx, max_order=3, max_terms=2)
        if h.degree_in(v) != d:
            continue
        # carry a dead column on r only, so the two start on different signatures
        dead = AlgIndet((4,), 2)
        r = DiffPoly(ctx, r.body.restrict(ctx._signature(r.body.vars + (dead,))))
        different_signatures += r.body.vars != h.body.vars
        e, q, rem = _pseudo_reduce_once(r, h, v, ctx)
        lead = h.coeff_of_power(v, d)
        assert lead**e * r == q * h + rem
        assert rem.degree_in(v) < d
        assert e <= max(0, r.degree_in(v) - d + 1)
        ref = reference_pseudo_reduce_once(r, h, v, ctx)
        assert (e, q, rem) == ref
    assert different_signatures >= 30


@pytest.mark.parametrize(
    "m, n, h, r, v",
    [
        (
            1, 2,
            "2/3*(d1*u1)^2*u2 + 1/4*d1*u1*u1 - 5/7*u2",
            "1/5*(d1*u1)^3*d1*u2 - 3/5*(d1*u1)^2*u1 + 1/5*u2^2*d1*u1 + 7/10",
            ((1,), 1),
        ),
        (
            1, 2,
            "2/3*(d1*u1)^2 + 1/5*u1",
            "1/5*(d1*u1)^5 - 2/5*(d1*u1)^4*u2 + 1/3*d1*u1 - 1/5",
            ((1,), 1),
        ),
        (
            2, 1,
            "2/3*d1^2*u1 - 1/2*u1 + 3/4*d2*u1",
            "1/5*(d1^2*u1)^2*d1*d2*u1 + 4/5*d1^2*u1*u1 - 1/5*(d2*u1)^2",
            ((2, 0), 1),
        ),
    ],
    ids=["lc-polynomial", "lc-constant", "linear-m2"],
)
def test_pseudo_reduce_once_with_denominators(m, n, h, r, v):
    # the benchmark's sets have integer coefficients; here both the leading
    # coefficient of h and the terms of r carry denominators, so each step
    # must scale the quotient's new term by h's denominator
    ctx = DiffContext(m, n)
    h, r = parse_diff_expression(h, ctx), parse_diff_expression(r, ctx)
    v = AlgIndet(*v)
    d = h.degree_in(v)
    lead = h.coeff_of_power(v, d)
    assert any(c.denominator > 1 for c in lead.body.terms.values())
    e, q, rem = _pseudo_reduce_once(r, h, v, ctx)
    assert e >= 2
    assert (e, q, rem) == reference_pseudo_reduce_once(r, h, v, ctx)
    assert lead**e * r == q * h + rem
    assert rem.degree_in(v) < d
    assert any(c.denominator > 1 for c in q.body.terms.values())


def test_print_diffpoly_matches_reference():
    rng = random.Random(default_seed())
    ctx = DiffContext(2, 2, coeff_gens=2)
    pool = [AlgIndet((a, b), var) for a in range(3) for b in range(3) for var in (1, 2)]
    kinds = {"dead": 0, "generator": 0, "repeated": 0}
    for _ in range(150):
        indets = rng.sample(pool, rng.randint(1, 6))
        sig = ctx._signature(indets)
        live = [i for i in range(len(sig)) if rng.random() < 0.7]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = [0] * len(sig)
            for i in live:
                if rng.random() < 0.4:
                    e[i] = rng.randint(1, 3)
            c = Fraction(rng.choice([-3, -1, 1, 1, 2, 7]), rng.choice([1, 1, 2, 5]))
            terms[tuple(e)] = c
        f = DiffPoly(ctx, MultiPoly(sig, terms))
        assert print_diffpoly(f) == reference_print_diffpoly(f)
        used = f.body.support_indices()
        kinds["dead"] += len(used) < len(sig)
        kinds["generator"] += any(isinstance(sig[i], CoeffGen) for i in used)
        kinds["repeated"] += any(x > 1 for e in f.body.terms for x in e)
    assert min(kinds.values()) >= 20
