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
from delta_kernel.multipoly import MultiPoly, from_integer_terms, integer_terms, order_key
from delta_kernel.parser import parse_diff_expression, parse_system
from delta_kernel.printer import print_diffpoly

from conftest import default_seed, random_diffpoly

# ---------- references ----------


def pseudo_reduce_once(r, h, v, ctx):
    """_pseudo_reduce_once on DiffPolys: r goes in, and the quotient and
    remainder come out, as DiffPolys rather than integer term dicts."""
    D, R = integer_terms(r.body.terms)
    e, q, rem = _pseudo_reduce_once((r.body.vars, R, D), h, v, ctx)
    q, rem = (DiffPoly(ctx, from_integer_terms(sig, T, D)) for sig, T, D in (q, rem))
    return e, q, rem


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
        target = _reduction_target(remainder.body.vars, remainder.body.terms, aset, leaders)
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
    key = order_key(body.order)
    for e, c in sorted(body.terms.items(), key=lambda t: key(t[0]), reverse=True):
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
        e, q, rem = pseudo_reduce_once(r, h, v, ctx)
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
    e, q, rem = pseudo_reduce_once(r, h, v, ctx)
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


# ---------- verify: exact re-expansion, rejecting tampered certificates ----------


def reference_verify(res):
    """The certificate re-expanded with DiffPoly operations over Fractions,
    each derived element rebuilt through DiffContext.d."""
    ctx = res.input.ctx
    lhs = res.multiplier() * res.input
    rhs = res.remainder
    for step in res.steps:
        h = res.aset.elements[step.element]
        for k, times in enumerate(step.theta, start=1):
            h = ctx.d(k, h, times)
        rhs = rhs + step.quotient * h
    return lhs == rhs


def _nonlinear_certificate():
    problem, name = parse_system(
        "m=1 n=2 coeffs=Q\n"
        "poly f1 = (d1*u1)^2 - 3*u2\n"
        "poly f2 = d1*u2 - 2*u1*u2 + 1\n"
        "set N = f1, f2\n"
    ), "N"
    g = parse_diff_expression("(d1^3*u1)^2*d1^2*u2 - 1/2*d1^2*u1*u1 + 5", problem.ctx)
    return ritt_reduce(g, problem.autoreduced(name))


def test_verify_rejects_a_tampered_nonlinear_certificate():
    res = _nonlinear_certificate()
    ctx = res.input.ctx
    assert res.verify() and res.sep_powers and len(res.steps) >= 2
    # the separant 2*d1*u1 of (d1*u1)^2 - 3*u2 is not 1
    assert res.aset.elements[0].separant() != ctx.const(1)
    u1 = ctx.u(1)
    for step in res.steps:
        q = step.quotient
        for bad in (q + 1, q * 2, q + u1 * q, -q):
            step.quotient = bad
            assert not res.verify()
        step.quotient = q
        assert res.verify()
    r = res.remainder
    for bad in (r + 1, r - u1, r * 3, ctx.const(0)):
        res.remainder = bad
        assert not res.verify()
    res.remainder = r
    assert res.verify()
    for book, base in ((res.sep_powers, "separant"), (res.init_powers, "initial")):
        for i, f in enumerate(res.aset.elements):
            saved = dict(book)
            book[i] = book.get(i, 0) + 1
            # only the separant of the first element differs from 1
            assert res.verify() == (getattr(f, base)() == ctx.const(1))
            assert res.verify() == ((base, i) != ("separant", 0))
            book.clear()
            book.update(saved)
            assert res.verify()
    res.steps.append(res.steps.pop(0))
    assert res.verify()  # the sum does not depend on the order of its terms
    step = res.steps[0]
    step.theta, theta = tuple(t + 1 for t in step.theta), step.theta
    assert not res.verify()
    step.theta = theta
    assert res.verify()


def test_verify_accepts_a_higher_power_of_one():
    # the linear elements have separant and initial 1: any power of them is
    # still a valid multiplier, and verify must say so
    problem = parse_system(
        "m=2 n=1 coeffs=Q\npoly f1 = d1^2*u1 - 2*u1\npoly f2 = d2^2*u1 + 1/3*u1\nset L = f1, f2\n"
    )
    ctx = problem.ctx
    g = parse_diff_expression("d1^5*d2^4*u1 + 2*(d1^3*u1)^2", ctx)
    res = ritt_reduce(g, problem.autoreduced("L"))
    assert res.verify() and len(res.steps) >= 3
    for f in res.aset.elements:
        assert f.separant() == ctx.const(1) and f.initial() == ctx.const(1)
    res.sep_powers[0] = res.sep_powers.get(0, 0) + 3
    res.init_powers[1] = res.init_powers.get(1, 0) + 2
    assert res.verify() and reference_verify(res)
    res.steps[0].quotient = res.steps[0].quotient + ctx.u(1)
    assert not res.verify() and not reference_verify(res)


def _tamper(rng, res):
    """res with one part changed at random, in place; returns a function
    that puts it back."""
    ctx = res.input.ctx
    kind = rng.choice(["quotient", "remainder", "powers", "theta"])
    if kind == "quotient" and res.steps:
        step = rng.choice(res.steps)
        q = step.quotient
        step.quotient = q + Fraction(rng.choice([-1, 1]), rng.choice([1, 3])) * ctx.u(1) ** rng.randint(0, 2)

        def restore():
            step.quotient = q
    elif kind == "theta" and res.steps:
        step = rng.choice(res.steps)
        theta = step.theta
        k = rng.randrange(ctx.m)
        step.theta = theta[:k] + (theta[k] + 1,) + theta[k + 1 :]

        def restore():
            step.theta = theta
    elif kind == "powers":
        book = rng.choice([res.sep_powers, res.init_powers])
        saved = dict(book)
        i = rng.randrange(len(res.aset))
        book[i] = book.get(i, 0) + rng.randint(1, 2)

        def restore():
            book.clear()
            book.update(saved)
    else:
        r = res.remainder
        res.remainder = r + Fraction(rng.choice([-2, 1, 5]), rng.choice([1, 2])) * ctx.u(1)

        def restore():
            res.remainder = r
    return restore


@pytest.mark.parametrize(
    "make, max_order, count",
    [(_linear_problem, 8, 20), (_nonlinear_problem, 4, 12)],
    ids=["linear-m2", "nonlinear-m1n2"],
)
def test_verify_agrees_with_fraction_reference(make, max_order, count):
    rng = random.Random(f"{default_seed()}:verify:{make.__name__}")
    verdicts = {True: 0, False: 0}
    for _ in range(count):
        problem, name = make(rng)
        res = ritt_reduce(_target(rng, problem, max_order), problem.autoreduced(name))
        assert res.verify() and reference_verify(res)
        for _ in range(4):
            restore = _tamper(rng, res)
            verdict = res.verify()
            assert verdict == reference_verify(res)
            verdicts[verdict] += 1
            restore()
        assert res.verify()
    assert verdicts[False] >= count
    if make is _linear_problem:
        # raising a power of a separant or initial equal to 1 keeps it valid
        assert verdicts[True] >= 2
