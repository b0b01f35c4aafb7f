"""Ritt-Kolchin certificates, the packed pseudo-division kernel and the
differential-polynomial printer against reference implementations kept
here.

The references are the straightforward versions: pseudo-division written
with DiffPoly operations, pseudo-division on exponent-tuple keys, a
reduction loop that rescales every earlier quotient at each step and picks
its target from a signature, and a printer that rebuilds every factor
string.
"""

import io
import json
import random
import struct
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd
from operator import add, or_
from pathlib import Path

import pytest

from delta_kernel import diffring, multipoly
from delta_kernel.cli import main
from delta_kernel.diffring import (
    AlgIndet,
    AutoreducedSet,
    CoeffGen,
    DiffContext,
    DiffPoly,
    PackedPoly,
    indet_name,
    ritt_reduce,
)
from delta_kernel.groebner import GREVLEX, order_key
from delta_kernel.multipoly import (
    MultiPoly,
    add_packed_products,
    from_integer_terms,
    mul_integer_terms,
    mul_packed_terms,
    packed_width,
    packer,
    pseudo_divide,
    pseudo_divide_terms,
    widen,
)
from delta_kernel.parser import parse_diff_expression, parse_system
from delta_kernel.printer import print_diffpoly, print_integer_terms

from conftest import default_seed, random_diffpoly

GOLDEN = Path(__file__).parent / "data" / "reduce_golden"

# ---------- references ----------


def pseudo_reduce_once(r, h, v, ctx):
    """One pseudo-division of r by h in v through the packed kernel, with r
    and h over their merged signature: multipoly.pseudo_divide packs them
    at its boundary, and the quotient and remainder come back as
    DiffPolys."""
    sig = ctx._signature(r.body.vars + h.body.vars)
    e, q, rem = pseudo_divide(r.body.restrict(sig), h.body.restrict(sig), sig.index(v))
    return e, DiffPoly(ctx, q), DiffPoly(ctx, rem)


def reference_pseudo_divide_terms(a, b, i):
    """The pseudo-division kernel on exponent-tuple keys: a and b are
    (den, terms) integer term dicts over one signature, a's dict consumed;
    returns (e, Q, R, D) as multipoly.pseudo_divide_terms does, unpacked."""
    (D, R), (den_b, B) = a, b
    d = max(x[i] for x in B)
    LC = {x[:i] + (0,) + x[i + 1 :]: c for x, c in B.items() if x[i] == d}
    tail = {x: c for x, c in B.items() if x[i] != d}
    lc = LC.get((0,) * len(next(iter(B)))) if len(LC) == 1 else None
    Q = {}
    e = 0
    while True:
        dr = max((x[i] for x in R), default=-1)
        if dr < d:
            break
        s = dr - d
        M = {x[:i] + (s,) + x[i + 1 :]: R.pop(x) for x in [x for x in R if x[i] == dr]}
        if lc is None:
            Q = mul_integer_terms(None, LC, Q)
            R = mul_integer_terms(None, LC, R)
        elif lc != 1:
            for x in Q:
                Q[x] *= lc
            for x in R:
                R[x] *= lc
        for x, c in M.items():
            Q[x] = Q.get(x, 0) + den_b * c
        mul_integer_terms(R, {x: -c for x, c in M.items()}, tail)
        D *= den_b
        e += 1
    return e, {x: c for x, c in Q.items() if c}, R, D


def reference_reduction_target(vars, exponents, aset, leaders):
    """The (indeterminate, element index) that the next reduction step
    eliminates from the polynomial with the exponent tuples exponents over
    the signature vars, or None when it is partially reduced: the highest-
    ranking proper derivative of a leader, with the lowest-ranked element it
    derives from; then a leader with degree at least its leading degree."""
    degree = {
        v: max(column)
        for v, column in zip(vars, zip(*exponents))
        if isinstance(v, AlgIndet) and any(column)
    }
    for v in degree:
        hits = [i for i, u in enumerate(leaders) if v.is_proper_derivative_of(u)]
        if hits:
            return v, min(hits, key=lambda i: aset.elements[i].rank())
    for v, dv in degree.items():
        for i, u in enumerate(leaders):
            if v == u and dv >= aset.elements[i].leading_degree():
                return v, i
    return None


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
        target = reference_reduction_target(
            remainder.body.vars, remainder.body.terms, aset, leaders
        )
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
    body = f.body
    if body.is_zero():
        return "0"
    pieces = []
    key = order_key(GREVLEX)
    for e, c in sorted(body.terms.items(), key=lambda t: key(t[0]), reverse=True):
        factors = []
        for i in range(len(body.vars) - 1, -1, -1):
            exp = e[i]
            if not exp:
                continue
            v = body.vars[i]
            if isinstance(v, CoeffGen):
                base = f"t{v.index}"
            else:
                base = indet_name(v)
            if exp == 1:
                factors.append(base)
            elif isinstance(v, AlgIndet) and any(v.theta):
                factors.append(f"({base})^{exp}")
            else:
                factors.append(f"{base}^{exp}")
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
        aset = AutoreducedSet(problem.sets[name])
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


def _matches_reference(res, g, aset):
    remainder, sep, init, steps = reference_ritt_reduce(g, aset)
    assert res.remainder == remainder
    assert (res.sep_powers, res.init_powers) == (sep, init)
    assert [(s.element, s.theta, s.quotient) for s in res.steps] == steps
    assert res.verify() and reference_verify(res)


@pytest.mark.parametrize(
    "text",
    [
        # starts at 8-bit fields; u2's degree passes 127 midway
        "d1^2*u1*(d1*u1)^120*u2^100 + u1",
        # past 64 bits: u2's field is 128 bits wide from the start
        "u2^1180591620717411303424*d1^2*u1 + (d1*u1)^3",
        "5",
        "0",
    ],
    ids=["widens-midway", "past-64-bits", "constant", "zero"],
)
def test_reduction_across_field_widths_matches_reference(text, monkeypatch):
    problem = parse_system(
        "m=1 n=2 coeffs=Q\n"
        "poly f1 = (d1*u1)^2 - 2*u2\n"
        "poly f2 = d1*u2 - u1*u2 + 1\n"
        "set N = f1, f2\n"
    )
    aset = AutoreducedSet(problem.sets["N"])
    g = parse_diff_expression(text, problem.ctx)
    widths = []
    widen = multipoly.widen

    def recording(terms, ncols, width, new_width):
        widths.append((width, new_width))
        return widen(terms, ncols, width, new_width)

    monkeypatch.setattr(multipoly, "widen", recording)
    monkeypatch.setattr(diffring, "widen", recording)
    res = ritt_reduce(g, aset)
    _matches_reference(res, g, aset)
    if text.startswith("d1^2"):
        assert (8, 16) in widths and res.remainder.degree_in(AlgIndet((0,), 2)) == 161


def test_remainder_widens_for_a_derived_element_past_127(monkeypatch):
    # the input fits 8-bit fields, but d1(f) carries u1^129: ritt_reduce
    # widens the remainder before packing d1(f) over the table
    problem = parse_system(
        "m=1 n=1 coeffs=Q\npoly f = (u1^60 + 1)*d1*u1 - u1^130\nset A = f\n"
    )
    aset = AutoreducedSet(problem.sets["A"])
    g = parse_diff_expression("d1^2*u1 + u1^100*(d1*u1)^2", problem.ctx)
    callers = []
    widen = diffring.widen

    def recording(terms, ncols, width, new_width):
        callers.append((sys._getframe(1).f_code.co_name, width, new_width))
        return widen(terms, ncols, width, new_width)

    monkeypatch.setattr(diffring, "widen", recording)
    res = ritt_reduce(g, aset)
    assert ("ritt_reduce", 8, 16) in callers
    _matches_reference(res, g, aset)


def test_product_doubles_its_width_when_a_guard_bit_is_set(monkeypatch):
    # the initial u1^100 is cubed: u1^200 sets the guard bit of an 8-bit
    # field, so _Columns.product doubles the width
    problem = parse_system("m=1 n=1 coeffs=Q\npoly f = u1^100*(d1*u1)^2 - u1\nset A = f\n")
    aset = AutoreducedSet(problem.sets["A"])
    g = parse_diff_expression("d1^2*u1*d1*u1 + (d1*u1)^5", problem.ctx)
    widths = []
    product = diffring._Columns.product

    def recording(self, p, q):
        out = product(self, p, q)
        widths.append((max(p[0], q[0]), out[0]))
        return out

    monkeypatch.setattr(diffring._Columns, "product", recording)
    res = ritt_reduce(g, aset)
    assert res.init_powers == {0: 3}
    assert any(after == 2 * before for before, after in widths)
    _matches_reference(res, g, aset)


def test_reduction_over_a_nonconstant_coefficient_field(tmp_path):
    # Q(t1) with d1 t1 = 1: t1 occurs in f and g, so the column table holds
    # a coefficient generator beside the algebraic indeterminates
    text = (
        "m=1 n=1 coeffs=Q(t1)\naction d1 t1 = 1\n"
        "poly f = t1*d1*u1 - u1^2 - t1\nset A = f\n"
    )
    problem = parse_system(text)
    aset = AutoreducedSet(problem.sets["A"])
    g = parse_diff_expression("d1^2*u1 + t1^3*u1", problem.ctx)
    res = ritt_reduce(g, aset)
    assert any(isinstance(v, CoeffGen) for v in res.table.vars)
    _matches_reference(res, g, aset)
    path = tmp_path / "field.dk"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    argv = ["--json", "reduce", str(path), "d1^2*u1 + t1^3*u1", "--modulo", "A"]
    assert main(argv, stdout=out) == 0
    results = json.loads(out.getvalue())["results"]
    assert results["remainder"] == "t1^5*u1 + 2*u1^3 - u1^2 + 2*t1*u1"
    assert results["certificate"]["verified"] is True
    assert print_diffpoly(res.remainder) == results["remainder"]


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


def packed_pseudo_divide(a, b, i, ncols):
    """The packed kernel on tuple-key (den, terms) dicts: packed at the
    least width that holds their exponents, unpacked after.  Returns
    ((e, Q, R, D), width packed at, width returned)."""
    (D, A), (den_b, B) = a, b
    width = packed_width(max(chain.from_iterable(chain(A, B)), default=0))
    pack = packer(ncols, width)[0]
    A = {pack(x): c for x, c in A.items()}
    B = {pack(x): c for x, c in B.items()}
    e, Q, R, D, wide = pseudo_divide_terms((D, A), (den_b, B), i, ncols, width)
    unpack = packer(ncols, wide)[1]
    Q = {unpack(k): c for k, c in Q.items()}
    R = {unpack(k): c for k, c in R.items()}
    return (e, Q, R, D), width, wide


# exponents at the guard bit of each field width, and past 64 bits
EDGES = (127, 128, 255, 256, 32767, 32768, 40000, 2**63 - 1, 2**63, 2**64 + 1)


def _edge_pair(rng, ncols, i, edge, lead):
    """(a, b): integer term dicts over ncols columns, dividing in column i;
    column j != i carries exponents near edge.  lead picks b's coefficient
    of its top power of x: "constant", "monomial" or "polynomial"."""
    j = (i + 1) % ncols

    def mono(xdeg, big):
        e = [rng.randint(0, 2) if k not in (i, j) else 0 for k in range(ncols)]
        e[i] = xdeg
        e[j] = max(0, edge - rng.randint(0, 1)) if big else rng.randint(0, 2)
        return tuple(e)

    def coeff():
        return rng.choice([-3, -2, -1, 1, 2, 5])

    d = rng.randint(1, 2)
    b = {}
    if lead == "constant":
        b[tuple(d if k == i else 0 for k in range(ncols))] = coeff()
    elif lead == "monomial":
        b[mono(d, True)] = coeff()
    else:
        b[mono(d, True)] = coeff()
        b[mono(d, False)] = coeff()
    for _ in range(rng.randint(0, 2)):
        b[mono(rng.randrange(d), rng.random() < 0.5)] = coeff()
    a = {}
    for _ in range(rng.randint(1, 5)):
        a[mono(rng.randint(0, d + 2), rng.random() < 0.6)] = coeff()
    return a, b


@pytest.mark.parametrize("lead", ["constant", "monomial", "polynomial"])
def test_packed_kernel_matches_tuple_reference(lead):
    rng = random.Random(f"{default_seed()}:packed:{lead}")
    widened = 0
    for edge in EDGES:
        for _ in range(6):
            ncols = rng.randint(2, 4)
            i = rng.randrange(ncols)
            a, b = _edge_pair(rng, ncols, i, edge, lead)
            den_a, den_b = rng.choice([1, 1, 3, 10]), rng.choice([1, 2, 7])
            want = reference_pseudo_divide_terms((den_a, dict(a)), (den_b, b), i)
            got, width, wide = packed_pseudo_divide((den_a, dict(a)), (den_b, b), i, ncols)
            assert got == want
            assert width == packed_width(max(chain.from_iterable(chain(a, b))))
            # a product whose field would pass the guard bit is repacked wider
            top = max(chain.from_iterable(chain(want[1], want[2])), default=0)
            assert wide >= width and top < 2**wide
            widened += wide > width
    if lead != "constant":
        assert widened >= 5


def test_packed_kernel_widens_past_40000_instead_of_wrapping():
    # lc = y^20000 fits 16-bit fields; after one step R carries y^40000,
    # which sets the guard bit, so the second step runs at 32 bits
    a = {(3, 20000): 1, (0, 1): 2}
    b = {(1, 20000): 1, (0, 0): 1}
    want = reference_pseudo_divide_terms((1, dict(a)), (1, b), 0)
    got, width, wide = packed_pseudo_divide((1, dict(a)), (1, b), 0, 2)
    assert got == want and (width, wide) == (16, 32)
    assert want[0] == 3 and max(y for _, y in want[2]) == 60001
    assert packed_width(40000) == 32


def test_packed_kernel_edge_cases():
    # an empty remainder divides to nothing
    assert packed_pseudo_divide((5, {}), (1, {(1, 0): 2}), 0, 2)[0] == (0, {}, {}, 5)
    # x absent from a: no step, a comes back as the remainder
    a = {(0, 3): 4, (0, 0): -1}
    assert packed_pseudo_divide((2, dict(a)), (3, {(2, 1): 1}), 0, 2)[0] == (0, {}, a, 2)
    # a column no term uses, between the others
    a, b = {(3, 0, 2): 1, (1, 0, 0): 5}, {(2, 0, 1): 2, (0, 0, 4): -1}
    want = reference_pseudo_divide_terms((1, dict(a)), (1, b), 0)
    assert packed_pseudo_divide((1, dict(a)), (1, b), 0, 3)[0] == want
    assert want[0] == 1 and all(x[1] == 0 for x in chain(want[1], want[2]))
    # the packer of zero columns: () and nothing to guard
    for width in (8, 128):
        pack, unpack, guard = packer(0, width)
        assert pack(()) == 0 and unpack(0) == () and guard == 0


def rescanning_pseudo_divide_terms(a, b, col, ncols, width):
    """multipoly.pseudo_divide_terms as it was before the degree buckets:
    each step lists the degrees of all of R, takes the top part out of it,
    ORs R (and Q) against the guard bits and multiplies all of R and Q by
    LC.  Same arguments and return value."""
    (D, R), (den_b, B) = a, b
    Q = {}
    e = 0
    while True:
        shift, mask = col * width, (1 << width) - 1
        guard = packer(ncols, width)[2]
        d = max([k >> shift & mask for k in B])
        lead = d << shift
        LC = {k - lead: c for k, c in B.items() if k >> shift & mask == d}
        tail = {k: c for k, c in B.items() if k >> shift & mask != d}
        lc = LC.get(0) if len(LC) == 1 else None
        top_b = reduce(or_, B)
        while True:
            degrees = [k >> shift & mask for k in R]
            dr = max(degrees, default=-1)
            if dr < d:
                return e, {k: c for k, c in Q.items() if c}, R, D, width
            top = reduce(or_, R, top_b)
            if lc is None:
                top = reduce(or_, Q, top)
            if top & guard:
                break
            M = {k - lead: R.pop(k) for k in [k for k, x in zip(R, degrees) if x == dr]}
            if lc is None:
                Q = mul_packed_terms(LC, Q)
                R = mul_packed_terms(LC, R)
            elif lc != 1:
                for k in Q:
                    Q[k] *= lc
                for k in R:
                    R[k] *= lc
            for k, c in M.items():
                Q[k] = Q.get(k, 0) + den_b * c
            add_packed_products(R, ((k, -c) for k, c in M.items()), tail)
            D *= den_b
            e += 1
        Q, R, B = (widen(T, ncols, width, 2 * width) for T in (Q, R, B))
        width *= 2


# the coefficient of x**d in b, over the columns y, z next to x
BUCKET_LEADS = {
    "unit": lambda k: {(0, 0): 1},
    "constant": lambda k: {(0, 0): -3},
    "monomial": lambda k: {(k, 0): 2},
    "polynomial": lambda k: {(k, 0): 1, (0, 1): -2},
}


def _bucket_case(rng, lead, shape):
    """(a, b, x column, ncols) as tuple-key (den, terms) dicts over the
    columns x, y, z and a column no term uses, in a seeded order.

    shape "long": a of degree 20-24 in x and b linear in x with a tail free
    of x, so that every degree of a is a step (e >= 20).  "cancel": a = p*b,
    plus at times an s with deg_x(s) < deg_x(b), so the remainder is
    LC**e * s; with no s it is zero, so the buckets that the last step's
    products land in cancel to empty.  "wide": y exponents up to 127, which
    LC's powers (in the buckets a step leaves stale) or the tail's products
    carry past the guard bit of 8-bit fields after the first step, at a
    step that depends on LC's degree in y."""
    perm = rng.sample(range(4), 4)

    def key(x, y, z):
        e = [0] * 4
        for col, v in zip(perm, (x, y, z)):
            e[col] = v
        return tuple(e)

    def coeff():
        return rng.choice([-7, -3, -2, -1, 1, 2, 4, 9])

    big = shape == "wide"
    k = rng.choice([1, 2, 3, 5, 20, 40]) if big else rng.randint(1, 3)
    d = 1 if shape == "long" else rng.randint(1, 2)
    b = {key(d, y, z): c for (y, z), c in BUCKET_LEADS[lead](k).items()}
    # with no tail (at times when wide) a step only takes the top bucket
    # off, and Q may pass the guard bit before R does
    for _ in range(rng.randint(0 if big else 1, 3)):
        y = rng.choice([0, 1, 10, 30]) if big else rng.randint(0, 3)
        b[key(rng.randrange(d) if shape != "long" else 0, y, rng.randint(0, 2))] = coeff()
    a = {}
    if shape == "long":
        for x in range(rng.randint(20, 24) + 1):
            a[key(x, rng.randint(0, 3), rng.randint(0, 2))] = coeff()
    elif shape == "cancel":
        p = {}
        for _ in range(4):
            p[key(rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 2))] = coeff()
        a = mul_integer_terms(None, p, b)
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            a[key(rng.randrange(d), rng.randint(0, 3), rng.randint(0, 3))] = coeff()
    else:
        for _ in range(rng.randint(3, 6)):
            a[key(rng.randint(0, 8), rng.choice([0, 5, 90, 110, 127]), rng.randint(0, 2))] = coeff()
    return (rng.choice([1, 3]), a), (rng.choice([1, 2, 7]), b), perm[0], 4


@pytest.mark.parametrize("lead", sorted(BUCKET_LEADS))
def test_bucket_kernel_matches_rescanning_reference(lead):
    """The degree-bucket pseudo-division equals the rescanning one it
    replaced, (e, Q, R, D) and the returned field width alike, on multi-term
    LCs, den_b != 1, e >= 20, buckets that cancel to empty and exponents
    that pass 127 midway."""
    rng = random.Random(f"{default_seed()}:buckets:{lead}")
    seen = {"e >= 20": 0, "emptied": 0, "widened midway": 0, "den_b > 1": 0}
    for shape in ("long", "cancel", "wide"):
        for _ in range(16):
            (den_a, a), (den_b, b), col, ncols = _bucket_case(rng, lead, shape)
            width = packed_width(max(chain.from_iterable(chain(a, b))))
            pack = packer(ncols, width)[0]
            A = {pack(x): c for x, c in a.items()}
            B = {pack(x): c for x, c in b.items()}
            want = rescanning_pseudo_divide_terms((den_a, dict(A)), (den_b, B), col, ncols, width)
            got = pseudo_divide_terms((den_a, dict(A)), (den_b, B), col, ncols, width)
            assert got == want
            e, Q, R, D, wide = got
            unpack = packer(ncols, wide)[1]
            d = max(x[col] for x in b)
            seen["e >= 20"] += e >= 20
            # b's tail is nonzero, so an empty remainder after a step means
            # that step's products cancelled the buckets they landed in
            seen["emptied"] += shape == "cancel" and e > 0 and not R
            # a and b fit 8-bit fields, so the first step runs at 8 bits
            seen["widened midway"] += wide > width == 8
            seen["den_b > 1"] += den_b > 1 and e > 0
            assert all(unpack(x)[col] < d for x in R)
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize(
    "a, b, width",
    [
        # no tail: R's buckets stay low in y while Q's first part,
        # LC**(e-1) * x^5*y^120, passes 127 at e = 5, before the last step
        ({(x, 120 * (x == 6), 0): 1 for x in range(7)}, {(1, 2, 0): 1}, 16),
        # the bucket x^0 stays stale until the last step; its true y
        # degree 120 + 3*e is 126 at e = 2, the last check, so no widening
        (
            {(3, 0, 0): 1, (2, 0, 0): 1, (1, 0, 0): 1, (0, 120, 0): 1},
            {(1, 3, 0): 1, (0, 0, 1): 1},
            8,
        ),
        # the tail's product puts z^130 in the bucket below the next top,
        # and the next step is the last
        ({(3, 0, 30): 1, (2, 0, 0): 1}, {(2, 1, 0): 1, (0, 0, 100): 1}, 16),
        # b sets a guard bit at 8 bits, so the first step runs at 16
        ({(2, 3, 0): 1, (0, 1, 0): 1}, {(1, 200, 0): 1, (0, 0, 1): 1}, 16),
    ],
    ids=["quotient-first", "stale-bucket-last-check", "product-past-guard", "b-past-guard"],
)
def test_bucket_kernel_widens_at_the_rescanning_step(a, b, width):
    """Cases built to widen (or not) at one step: the bucket kernel's
    width is the rescanning kernel's."""
    pack = packer(3, 8)[0]
    A = {pack(x): c for x, c in a.items()}
    B = {pack(x): c for x, c in b.items()}
    want = rescanning_pseudo_divide_terms((1, dict(A)), (1, B), 0, 3, 8)
    assert want[4] == width
    assert pseudo_divide_terms((1, dict(A)), (1, B), 0, 3, 8) == want


def test_rescaling_work_guard(monkeypatch):
    """Reducing d1^9*u1*d1^9*u2 modulo N scales each part of a remainder
    once: the monomial products that pseudo-division spends on powers of
    LC number 17,126, where rescaling all of R and Q at every step took
    62,536."""
    products = []
    mul = multipoly.mul_packed_terms

    def counting(a, b):
        products.append(len(a) * len(b))
        return mul(a, b)

    # pseudo_divide_terms looks the name up in its module
    monkeypatch.setattr(multipoly, "mul_packed_terms", counting)
    problem = parse_system((GOLDEN / "nonlinear.dk").read_text())
    g = parse_diff_expression("d1^9*u1*d1^9*u2", problem.ctx)
    res = ritt_reduce(g, AutoreducedSet(problem.sets["N"]))
    assert sum(res.sep_powers.values()) >= 20
    assert 0 < sum(products) <= 20_000


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_packer_round_trip_and_guard(width):
    rng = random.Random(f"{default_seed()}:packer:{width}")
    pack, unpack, guard = packer(3, width)
    assert guard == sum(1 << (width * k + width - 1) for k in range(3))
    for _ in range(50):
        pool = [0, 1, 2 ** (width - 1) - 1, 2 ** (width - 1), 2**width - 1, rng.randrange(2**width)]
        e = tuple(rng.choice(pool) for _ in range(3))
        k = pack(e)
        assert k == sum(x << (width * c) for c, x in enumerate(e))
        assert unpack(k) == e
        assert bool(k & guard) == any(x >= 2 ** (width - 1) for x in e)
    # an exponent too wide for its field is refused, never wrapped
    with pytest.raises((struct.error, OverflowError)):
        pack((2**width, 0, 0))


# (den, integer terms over d1*u1, u2, t1, t2, text)
PRINTED = [
    # 2/4 and -6/9 print in lowest terms, as their Fractions do
    (4, {(1, 0, 0, 0): 2, (0, 1, 0, 1): -3, (0, 0, 0, 0): 8}, "-3/4*t2*u2 + 1/2*d1*u1 + 2"),
    (9, {(0, 2, 0, 0): -6, (0, 0, 1, 0): 9, (0, 1, 2, 0): 3}, "1/3*t1^2*u2 - 2/3*u2^2 + t1"),
    # generators only, the last of the signature printed first
    (1, {(0, 0, 1, 1): -1, (0, 0, 0, 3): 5}, "5*t2^3 - t2*t1"),
    (3, {(2, 1, 0, 1): -3, (0, 0, 0, 0): -1}, "-t2*u2*(d1*u1)^2 - 1/3"),
    (7, {}, "0"),
]


def _written(terms):
    """terms over a signature rekeyed over it reversed, the order
    print_integer_terms reads."""
    return {e[::-1]: c for e, c in terms.items()}


def test_print_diffpoly_matches_reference():
    rng = random.Random(default_seed())
    ctx = DiffContext(2, 2, coeff_gens=2)
    sig = ctx._signature([AlgIndet((1, 0), 1), AlgIndet((0, 0), 2)])
    for den, ints, text in PRINTED:
        f = DiffPoly(ctx, from_integer_terms(sig, ints, den))
        assert print_integer_terms(sig[::-1], den, _written(ints)) == text
        assert print_diffpoly(f) == reference_print_diffpoly(f) == text
    pool = [AlgIndet((a, b), var) for a in range(3) for b in range(3) for var in (1, 2)]
    kinds = {"dead": 0, "generator": 0, "repeated": 0, "not lowest": 0}
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
        # the kernel on integers over a denominator they share factors with
        den = rng.choice([1, 4, 9, 12, 36])
        ints = {e: rng.choice([-6, -3, -2, 1, 2, 4, 9, 18]) for e in terms}
        f = DiffPoly(ctx, from_integer_terms(sig, ints, den))
        assert print_integer_terms(sig[::-1], den, _written(ints)) == reference_print_diffpoly(f)
        kinds["not lowest"] += any(gcd(c, den) > 1 for c in ints.values()) and den > 1
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
    return ritt_reduce(g, AutoreducedSet(problem.sets[name]))


def _packed(table, f):
    """The DiffPoly f packed over a reduction's column table, as a
    certificate holds its remainder and quotients."""
    return PackedPoly(table, *table.pack_poly(f.body))


def test_verify_rejects_a_tampered_nonlinear_certificate():
    res = _nonlinear_certificate()
    ctx = res.input.ctx
    assert res.verify() and res.sep_powers and len(res.steps) >= 2
    # the separant 2*d1*u1 of (d1*u1)^2 - 3*u2 is not 1
    assert res.aset.elements[0].separant() != ctx.const(1)
    u1 = ctx.u(1)
    for step in res.steps:
        packed, q = step.packed_quotient, step.quotient
        for bad in (q + 1, q * 2, q + u1 * q, -q):
            step.packed_quotient = _packed(res.table, bad)
            assert not res.verify()
        step.packed_quotient = packed
        assert res.verify()
    packed, r = res.packed_remainder, res.remainder
    for bad in (r + 1, r - u1, r * 3, ctx.const(0)):
        res.packed_remainder = _packed(res.table, bad)
        assert not res.verify()
    res.packed_remainder = packed
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


def _bumped(p, k):
    """The packed polynomial p with the coefficient at the packed key k
    raised by 1 (k = 0 is the constant term)."""
    return PackedPoly(p.table, p.width, p.den, {**p.terms, k: p.terms.get(k, 0) + 1})


def test_verify_rejects_a_tampered_packed_part():
    res = _nonlinear_certificate()
    assert res.verify() and len(res.steps) >= 2
    # ritt_reduce builds no DiffPoly of a quotient
    assert all(step.packed_quotient._poly is None for step in res.steps)
    for step in res.steps:
        q = step.packed_quotient
        assert q.table is res.table and q.terms
        for k in [*list(q.terms)[:3], 0]:
            step.packed_quotient = _bumped(q, k)
            assert not res.verify()
        step.packed_quotient = PackedPoly(q.table, q.width, 2 * q.den, q.terms)
        assert not res.verify()
        step.packed_quotient = q
        assert res.verify()
    r = res.packed_remainder
    assert r.terms
    for k in [*list(r.terms)[:3], 0]:
        res.packed_remainder = _bumped(r, k)
        assert not res.verify()
        # the DiffPoly read after the change is the changed one
        assert res.remainder != r.diffpoly()
    res.packed_remainder = r
    assert res.verify()


def test_verify_rekeys_parts_whose_guard_bits_are_set():
    # a stored part may sit at a width whose guard bits it sets (a product
    # landed there): here each quotient, u1^152 and 59*u1^210 - ..., is
    # repacked at 8 bits, below the 16 of the input u1^150*d1^2*u1, and
    # verify must rekey both before their products are formed
    problem = parse_system("m=1 n=1 coeffs=Q\npoly f = u1*d1*u1 - u1^60\nset A = f\n")
    g = parse_diff_expression("d1^2*u1*u1^150", problem.ctx)
    res = ritt_reduce(g, AutoreducedSet(problem.sets["A"]))
    assert res.verify() and len(res.steps) == 2
    ncols = len(res.table.vars)
    for step in res.steps:
        q = step.packed_quotient
        top = max(chain.from_iterable(map(packer(ncols, q.width)[1], q.terms)))
        assert 128 <= top < 256
        narrow = multipoly.widen(q.terms, ncols, q.width, 8)
        step.packed_quotient = PackedPoly(q.table, 8, q.den, narrow)
    assert res.verify()
    assert res.steps[1].quotient == parse_diff_expression("59*u1^210 - u1^151*d1*u1", problem.ctx)


def test_reduce_command_builds_no_certificate_diffpoly(monkeypatch):
    """The reduce command verifies the certificate and prints the
    remainder and each quotient from their packed terms: no DiffPoly of
    one is built."""
    built = []
    poly = diffring._Columns.poly

    def counting(self, *args):
        built.append(args)
        return poly(self, *args)

    monkeypatch.setattr(diffring._Columns, "poly", counting)
    monkeypatch.chdir(Path(__file__).parent / "data" / "reduce_golden")
    argv = ["--json", "reduce", "rational.dk", "(1/3)*d1^3*u1*(d1^2*u2)^2 - 5/7*d1*u2*u1"]
    out = io.StringIO()
    assert main([*argv, "--modulo", "N"], stdout=out) == 0
    assert built == [] and '"verified": true' in out.getvalue()
    # the DiffPolys of the same certificate print to the same text
    problem = parse_system(Path("rational.dk").read_text(encoding="utf-8"))
    g = parse_diff_expression(argv[3], problem.ctx)
    res = ritt_reduce(g, AutoreducedSet(problem.sets["N"]))
    assert print_diffpoly(res.remainder) in out.getvalue()
    assert all(print_diffpoly(s.quotient) in out.getvalue() for s in res.steps)
    assert len(built) == len(res.steps) + 1 >= 3


def test_verify_accepts_a_higher_power_of_one():
    # the linear elements have separant and initial 1: any power of them is
    # still a valid multiplier, and verify must say so
    problem = parse_system(
        "m=2 n=1 coeffs=Q\npoly f1 = d1^2*u1 - 2*u1\npoly f2 = d2^2*u1 + 1/3*u1\nset L = f1, f2\n"
    )
    ctx = problem.ctx
    g = parse_diff_expression("d1^5*d2^4*u1 + 2*(d1^3*u1)^2", ctx)
    res = ritt_reduce(g, AutoreducedSet(problem.sets["L"]))
    assert res.verify() and len(res.steps) >= 3
    for f in res.aset.elements:
        assert f.separant() == ctx.const(1) and f.initial() == ctx.const(1)
    res.sep_powers[0] = res.sep_powers.get(0, 0) + 3
    res.init_powers[1] = res.init_powers.get(1, 0) + 2
    assert res.verify() and reference_verify(res)
    res.steps[0].packed_quotient = _packed(res.table, res.steps[0].quotient + ctx.u(1))
    assert not res.verify() and not reference_verify(res)


def _tamper(rng, res):
    """res with one part changed at random, in place; returns a function
    that puts it back."""
    ctx = res.input.ctx
    kind = rng.choice(["quotient", "remainder", "powers", "theta"])
    if kind == "quotient" and res.steps:
        step = rng.choice(res.steps)
        q = step.packed_quotient
        bad = step.quotient + Fraction(rng.choice([-1, 1]), rng.choice([1, 3])) * ctx.u(1) ** rng.randint(0, 2)
        step.packed_quotient = _packed(res.table, bad)

        def restore():
            step.packed_quotient = q
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
        r = res.packed_remainder
        bad = res.remainder + Fraction(rng.choice([-2, 1, 5]), rng.choice([1, 2])) * ctx.u(1)
        res.packed_remainder = _packed(res.table, bad)

        def restore():
            res.packed_remainder = r
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
        aset = AutoreducedSet(problem.sets[name])
        res = ritt_reduce(_target(rng, problem, max_order), aset)
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
