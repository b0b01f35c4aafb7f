"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Every check is exact; the stated wall-clock budgets are
asserted.
"""

import io
import json
import random
import time
from fractions import Fraction

from delta_kernel.cli import main, validate_report
from delta_kernel.diffring import (
    AlgIndet,
    AutoreducedSet,
    DiffContext,
    apply_derivation,
    poly_rank_compare,
    ritt_reduce,
)
from delta_kernel.dvariety import (
    DSpec,
    darboux_search,
    darboux_search_eigen,
    darboux_search_groebner,
    first_integral_search,
)
from delta_kernel.exterior import (
    ExtVector,
    factorization_implication_check,
    wedge,
    wedge_all,
)
from delta_kernel.heights import (
    OdePoly,
    height_axioms_check,
    rational_solution_search,
)
from delta_kernel.initialsets import InitialSetRep, leaders_to_exponents, prolongation_bound
from delta_kernel.multipoly import MultiPoly
from delta_kernel.parser import parse_diff_expression
from delta_kernel.printer import print_diffpoly
from delta_kernel.prolongation import prolong_ideal
from delta_kernel.ratfunc import RatFunc

from conftest import (
    default_seed,
    is_partially_reduced,
    random_autoreduced,
    random_diffpoly,
)


def _corpus():
    ctx1 = DiffContext(1, 1)
    u = ctx1.u()
    ctx2 = DiffContext(2, 1)
    w = ctx2.u()
    return [
        AutoreducedSet([ctx1.d(1, u) - u]),
        AutoreducedSet([ctx1.d(1, u) ** 2 - u]),
        AutoreducedSet([ctx2.d(2, w) - ctx2.d(1, w, 2)]),
        AutoreducedSet([ctx2.d(1, w, 2) - w, ctx2.d(2, w, 2) - w]),
    ]


def _stamp(name, started, budget, detail=""):
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.1f}s (budget {budget}s){suffix}")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_differential_ring_laws():
    started = time.monotonic()
    rng = random.Random(default_seed())
    rank_checked = 0
    for _ in range(1000):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        ctx = DiffContext(m, n)
        f = random_diffpoly(rng, ctx, max_order=3, max_degree=3, max_terms=3)
        g = random_diffpoly(rng, ctx, max_order=3, max_degree=3, max_terms=3)
        i = rng.randint(1, m)
        j = rng.randint(1, m)
        assert apply_derivation(apply_derivation(f, i), j) == apply_derivation(
            apply_derivation(f, j), i
        )
        assert apply_derivation(f * g, i) == f * apply_derivation(g, i) + g * apply_derivation(f, i)
        if not f.is_in_coeff_field():
            assert poly_rank_compare(f.separant(), f) < 0
            rank_checked += 1
    _stamp("criterion 1 (ring laws, 1000 random)", started, 60, f"{rank_checked} separant ranks")


def test_criterion_02_reduction_certificates():
    started = time.monotonic()
    rng = random.Random(default_seed() + 1)
    for _ in range(200):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        ctx = DiffContext(m, n)
        aset = random_autoreduced(rng, ctx)
        g = random_diffpoly(rng, ctx, max_order=2, max_degree=2, max_terms=3)
        res = ritt_reduce(g, aset)
        assert res.verify(), "certificate failed to re-expand"
        assert is_partially_reduced(res.remainder, aset)
    _stamp("criterion 2 (200 reduction certificates)", started, 120)


def test_criterion_03_basis_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for aset in _corpus():
        rep = leaders_to_exponents(aset)
        level = prolongation_bound(aset).level
        for t in range(aset.max_order(), level + 5):
            assert prolong_ideal(aset, t).dimension() == rep.count_up_to(t)
            checked += 1
    _stamp("criterion 3 (oracle equivalence)", started, 300, f"{checked} levels")


def test_criterion_04_prolongation_bounds():
    started = time.monotonic()
    expected = [
        (1, [AlgIndet((0,), 1)]),
        (1, [AlgIndet((0,), 1)]),
        (2, []),
        (2, [AlgIndet((1, 1), 1)]),
    ]
    for aset, (level, removable) in zip(_corpus(), expected):
        b = prolongation_bound(aset)
        assert b.level == level
        assert b.removable == removable
    _stamp("criterion 4 (bound values)", started, 10)


def test_criterion_05_removable_bruteforce_equivalence():
    started = time.monotonic()
    rng = random.Random(default_seed() + 2)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        pts = [
            AlgIndet(tuple(rng.randint(0, 4) for _ in range(m)), rng.randint(1, n))
            for _ in range(rng.randint(1, 4))
        ]
        rep = InitialSetRep(m, n, pts)
        assert rep.removable_points() == rep.removable_points_bruteforce()
    _stamp("criterion 5 (100 removable-point scans)", started, 60)


def test_criterion_06_darboux_engine():
    sig = ("x1", "x2")
    x = MultiPoly.var(sig, "x1")
    y = MultiPoly.var(sig, "x2")

    started = time.monotonic()
    rotation = DSpec(2, 1, [[-y, x]])
    res, _ = darboux_search(rotation, 2)
    assert len(res) == 1
    assert res[0].polynomial == x * x + y * y
    assert all(c.is_zero() for c in res[0].cofactors)
    _stamp("criterion 6a (rotation at degree 2)", started, 60)

    started = time.monotonic()
    shear = DSpec(2, 1, [[MultiPoly.const(sig, 1), y]])
    for d in range(1, 5):
        res, _ = darboux_search(shear, d)
        assert [(r.polynomial.to_str(), r.cofactors[0].to_str()) for r in res] == [
            (f"x2^{k}" if k > 1 else "x2", str(k)) for k in range(1, d + 1)
        ]
    for d in range(1, 4):
        assert first_integral_search(shear, d) == []
    _stamp("criterion 6b (shear powers, no integral)", started, 60)

    started = time.monotonic()
    euler = DSpec(2, 1, [[x, 2 * y]])
    integrals = first_integral_search(euler, 2)
    assert integrals == [RatFunc(x * x, y)]
    _stamp("criterion 6c (x^2/y integral)", started, 60)

    started = time.monotonic()
    for spec, d in ((rotation, 2), (shear, 3), (euler, 2)):
        eig = darboux_search_eigen(spec, d)
        grb, _ = darboux_search_groebner(spec, d)
        assert [(r.polynomial, r.cofactors) for r in eig] == [
            (r.polynomial, r.cofactors) for r in grb
        ]
    _stamp("criterion 6d (path agreement)", started, 60)


def test_criterion_07_exterior_suite():
    started = time.monotonic()
    rng = random.Random(default_seed() + 3)

    def one_form(dim):
        coeffs = {}
        for i in range(1, dim + 1):
            c = rng.randint(-3, 3)
            if c:
                coeffs[(i,)] = Fraction(c)
        return ExtVector(dim, 1, coeffs)

    confirmed = 0
    for _ in range(500):
        dim = rng.randint(2, 6)
        ell = rng.randint(1, dim - 1)
        alphas = [one_form(dim) for _ in range(ell)]
        parts = []
        for _ in range(rng.randint(1, ell)):
            v = ExtVector.zero(dim, 1)
            for a in alphas:
                v = v + a.scaled(Fraction(rng.randint(-2, 2)))
            parts.append(v)
        omega = wedge_all(parts)
        beta = ExtVector.zero(dim, 1)
        for a in alphas:
            beta = beta + a.scaled(Fraction(rng.randint(-2, 2)))
        verdict = factorization_implication_check(alphas, omega, beta)
        assert verdict.status != "refuted"
        confirmed += verdict.status == "confirmed"
    assert confirmed >= 50

    for _ in range(1000):
        dim = rng.randint(2, 6)
        a, b, c = one_form(dim), one_form(dim), one_form(dim)
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
        assert wedge(a, a).is_zero()
        assert wedge(b, a) == wedge(a, b).scaled(Fraction(-1))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(wedge(a, b), c) == wedge(c, wedge(a, b))
    _stamp("criterion 7 (exterior suite)", started, 60, f"{confirmed} confirmed")


def test_criterion_08_bounded_height_experiment():
    sig = ("t", "x", "y")
    x = MultiPoly.var(sig, "x")
    y = MultiPoly.var(sig, "y")
    riccati = OdePoly(y + x * x)
    for D in (1, 2, 3):
        started = time.monotonic()
        rep = rational_solution_search(riccati, D)
        assert rep.observed_bound == 1
        assert rep.solutions, "search found nothing"
        assert not any("failed" in n for n in rep.notes)
        _stamp(f"criterion 8 (riccati D={D})", started, 120, f"{len(rep.solutions)} samples")
    started = time.monotonic()
    exp = OdePoly(y - x)
    rep = rational_solution_search(exp, 3)
    assert len(rep.solutions) == 1 and rep.solutions[0][0].is_zero()
    _stamp("criterion 8 (exponential D=3)", started, 120)


def test_criterion_09_height_axioms():
    started = time.monotonic()
    rng = random.Random(default_seed() + 4)
    tsig = ("t",)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[(rng.randint(0, 6),)] = c
        return MultiPoly(tsig, terms)

    samples = []
    while len(samples) < 500:
        num, den = rand_poly(), rand_poly()
        num2, den2 = rand_poly(), rand_poly()
        if den.is_zero() or den2.is_zero():
            continue
        samples.append((RatFunc(num, den), RatFunc(num2, den2)))
    chk = height_axioms_check(samples, powers=(2, 3))
    assert chk.ok and chk.checked == 500
    _stamp("criterion 9 (height axioms on 500 samples)", started, 30)


def test_criterion_10_cli_round_trip_and_schema(tmp_path):
    started = time.monotonic()
    rng = random.Random(default_seed() + 5)
    for _ in range(500):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        ctx = DiffContext(m, n)
        f = random_diffpoly(rng, ctx, max_order=3, max_degree=3, max_terms=4)
        assert parse_diff_expression(print_diffpoly(f), ctx) == f

    path = tmp_path / "problem.dk"
    path.write_text(
        "m=2 n=1 coeffs=Q\n"
        "poly f1 = d1^2*u1 - u1\n"
        "poly f2 = d2^2*u1 - u1\n"
        "set L = f1, f2\n"
        "dspec rot {\n  n = 2\n  m = 1\n  d1 x1 = -x2\n  d1 x2 = x1\n}\n"
        "ode P = y + x^2\n",
        encoding="utf-8",
    )
    commands = (
        ["--json", "analyze", str(path)],
        ["--json", "bound", str(path), "--set", "L"],
        ["--json", "dimfn", str(path), "--set", "L", "--max-t", "3"],
        ["--json", "darboux", str(path), "--dspec", "rot", "--deg", "2"],
        ["--json", "height", "(t^2+1)/(t-1)"],
        ["--json", "reduce", str(path), "d1^4*u1", "--modulo", "L"],
        ["--json", "wedge-check", "--seed", str(default_seed()), "--count", "25"],
    )
    for argv in commands:
        out1, out2 = io.StringIO(), io.StringIO()
        assert main(argv, stdout=out1, stderr=io.StringIO()) == 0
        assert main(argv, stdout=out2, stderr=io.StringIO()) == 0
        assert out1.getvalue() == out2.getvalue(), f"nondeterministic bytes for {argv}"
        validate_report(json.loads(out1.getvalue()))
    _stamp("criterion 10 (round-trip, schema, determinism)", started, 60)
