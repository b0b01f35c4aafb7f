"""Polynomial text from the printer's one kernel, and text that reads back.

`reference_multipoly_to_str` is `MultiPoly.to_str` as it was before every
polynomial's text came from `printer.print_terms`: a term loop of its own
over Fraction coefficients.  The text must not change.  A rational
function's text and every prolonged generator's text must parse back to
the value printed.
"""

import io
import random
from fractions import Fraction

from delta_kernel.cli import main
from delta_kernel.diffring import AlgIndet, CoeffGen, DiffContext
from delta_kernel.multipoly import MultiPoly, sorted_exponents
from delta_kernel.parser import parse_diff_expression, parse_ratfunc_expression
from delta_kernel.prolongation import prolong_generators
from delta_kernel.ratfunc import RatFunc

from conftest import default_seed, random_multipoly


def reference_multipoly_to_str(p):
    if not p.terms:
        return "0"
    names = [str(v) for v in p.vars]
    pieces = []
    for e in sorted_exponents(p.terms):
        c = p.terms[e]
        factors = []
        for name, x in zip(names, e):
            if x == 1:
                factors.append(name)
            elif x > 1:
                factors.append(f"{name}^{x}")
        body = "*".join(factors)
        if not body:
            chunk = str(abs(c))
        elif abs(c) == 1:
            chunk = body
        else:
            chunk = f"{abs(c)}*{body}"
        pieces.append(("-" if c < 0 else "+", chunk))
    first_sign, first_chunk = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_chunk
    for sign, chunk in pieces[1:]:
        out += f" {sign} {chunk}"
    return out


def _frame_sig(rng):
    pool = [AlgIndet((a, b), var) for a in range(3) for b in range(3) for var in (1, 2)]
    return tuple(rng.sample(pool, rng.randint(1, 5)))


SIGNATURES = {
    "names": lambda rng: ("x", "y", "z")[: rng.randint(1, 3)],
    "frame": _frame_sig,
    "generators": lambda rng: tuple(CoeffGen(i) for i in range(1, rng.randint(2, 4))),
}


def test_multipoly_text_matches_reference():
    rng = random.Random(f"{default_seed()}:multipoly-text")
    seen = {"derivative power": 0, "fraction": 0, "unit": 0, "constant": 0}
    for kind, draw in SIGNATURES.items():
        for _ in range(80):
            sig = draw(rng)
            p = random_multipoly(rng, sig, max_degree=4, max_terms=5)
            assert p.to_str() == reference_multipoly_to_str(p), kind
            seen["derivative power"] += any(
                x > 1 and any(v.theta) for e in p.terms for v, x in zip(sig, e)
                if isinstance(v, AlgIndet)
            )
            seen["fraction"] += any(c.denominator > 1 for c in p.terms.values())
            seen["unit"] += any(abs(c) == 1 and any(e) for e, c in p.terms.items())
            seen["constant"] += any(not any(e) for e in p.terms)
    assert min(seen.values()) >= 20
    # a frame polynomial writes a derivative's power plain: it reads back
    d1u1 = AlgIndet((1,), 1)
    sig = (d1u1, AlgIndet((0,), 1))
    p = MultiPoly(sig, {(2, 0): Fraction(-3, 2), (0, 1): Fraction(1)})
    assert p.to_str() == "-3/2*d1*u1^2 + u1"


TVARS = ("t1", "t2")


def test_ratfunc_text_reads_back():
    t1, t2 = (MultiPoly.var(TVARS, v) for v in TVARS)
    r = RatFunc(t1 + 1, t1 * t2**2)
    assert r.to_str() == "(t1 + 1)/(t1*t2^2)"
    assert parse_ratfunc_expression(r.to_str(), TVARS) == r
    rng = random.Random(f"{default_seed()}:ratfunc-text")
    monomial_dens = 0
    for _ in range(150):
        num = random_multipoly(rng, TVARS, max_degree=3, max_terms=3)
        if rng.random() < 0.5:
            e = (rng.randint(0, 3), rng.randint(0, 3))
            den = MultiPoly.monomial(TVARS, e, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        else:
            den = random_multipoly(rng, TVARS, max_degree=3, max_terms=3, allow_zero=False)
            if den.is_zero():
                continue
        r = RatFunc(num, den)
        assert parse_ratfunc_expression(r.to_str(), TVARS) == r
        monomial_dens += len(r.den.terms) == 1 and len(r.den.support_indices()) > 1
    assert monomial_dens >= 20


def test_extract_brackets_a_monomial_denominator(tmp_path):
    path = tmp_path / "pair.dk"
    path.write_text(
        "m=1 n=2 coeffs=Q\n"
        "poly h = d1*u2 - u2\n"
        "poly g = (d1*u1)*u1*u2 - 1\n"
        "set P = h, g\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    assert main(["extract-dvariety", str(path), "--set", "P"], stdout=out) == 0
    assert "d1^2*u1: (-d1*u1^2*u2 - d1*u2*d1*u1*u1)/(u2*u1)\n" in out.getvalue()


def test_prolonged_generators_read_back():
    rng = random.Random(f"{default_seed()}:prolong-text")
    for _ in range(4):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        ctx1 = DiffContext(1, 1)
        ctx2 = DiffContext(2, 1)
        u, w = ctx1.u(), ctx2.u()
        systems = [
            (ctx1, ctx1.d(1, u) ** 2 - u * c, 6),  # sqrt
            (ctx1, ctx1.d(1, u) ** 3 - u * c, 6),  # cbrt
            (ctx2, ctx2.d(2, w) ** 2 - ctx2.d(1, w) * c, 3),  # burgers
        ]
        for ctx, f, t in systems:
            _, gens, _ = prolong_generators([f], t)
            assert gens
            for g in gens:
                back = parse_diff_expression(g.to_str(), ctx)
                assert back.body.restrict(g.vars) == g
