"""The rational-point solver against its earlier per-root recursion and sympy.

`reference_enumerate` and `reference_sampled` are the solver as it was
before back substitution in one lex basis and shared fibers: a new lex
basis after every substituted root, a new grevlex basis after every sample
value.  The point lists, order included, must not change.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import delta_kernel.solve as solve
from delta_kernel.groebner import (
    GREVLEX,
    LEX,
    buchberger,
    buchberger_terms,
    ideal_dimension,
    independent_variable_set,
    order_key,
)
from delta_kernel.multipoly import MultiPoly, poly_gcd
from delta_kernel.factor import rational_roots
from delta_kernel.multipoly import exponents_upto
from delta_kernel.solve import (
    enumerate_rational_points,
    sampled_rational_solutions,
    specialize,
    undetermined,
)

from conftest import default_seed, evaluate, is_unit_ideal


def reference_enumerate(gens, vars):
    vars = tuple(vars)
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return [{}] if not gens else []
    if not gens:
        raise ValueError("system is not zero-dimensional")
    gb = buchberger(gens, LEX)
    if is_unit_ideal(gb):
        return []
    last = vars[-1]
    last_index = len(vars) - 1
    univariate = [g for g in gb.generators if g.support_indices() <= {last_index}]
    if not univariate:
        raise ValueError("system is not zero-dimensional")
    elim = univariate[0]
    for g in univariate[1:]:
        elim = poly_gcd(elim, g)
    if elim.is_constant():
        return []
    points = []
    for root, _ in rational_roots(elim):
        reduced = [g.substitute({last: root}) for g in gb.generators]
        reduced = [g.restrict(vars[:-1]) for g in reduced if not g.is_zero()]
        for partial in reference_enumerate(reduced, vars[:-1]):
            point = dict(partial)
            point[last] = root
            points.append(point)
    return points


def reference_sampled(gens, vars, sample_values=(0, 1, -1, 2, -2, 3), _free=None):
    vars = tuple(vars)
    free = list(_free) if _free else []
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return ([{}] if not gens else []), True, free
    if not gens:
        point = {v: Fraction(0) for v in vars}
        return [point], False, free + list(vars)
    gb = buchberger(gens, GREVLEX)
    if is_unit_ideal(gb):
        return [], True, free
    indep = independent_variable_set(gb)
    if not indep:
        return reference_enumerate(list(gb.generators), vars), True, free
    pivot_index = min(indep)
    pivot = vars[pivot_index]
    rest = vars[:pivot_index] + vars[pivot_index + 1 :]
    points = []
    for value in sample_values:
        value = Fraction(value)
        reduced = [g.substitute({pivot: value}) for g in gb.generators]
        reduced = [g.restrict(rest) for g in reduced if not g.is_zero()]
        sub_points, _, _ = reference_sampled(reduced, rest, sample_values, _free=free + [pivot])
        for p in sub_points:
            point = dict(p)
            point[pivot] = value
            points.append(point)
    return points, False, free + [pivot]


def as_items(points):
    """Points as lists of (variable, value) pairs: the order of the points
    and of each point's keys both count."""
    return [list(p.items()) for p in points]


def count_buchberger(monkeypatch):
    """The order of every Groebner run the solver makes: each one, at the
    top and in the fibers, goes through buchberger_terms."""
    runs = []

    def counting(gens, leads, order):
        runs.append(order)
        return buchberger_terms(gens, leads, order)

    monkeypatch.setattr(solve, "buchberger_terms", counting)
    return runs


def by_lex_lead(gb):
    """The generators of a basis sorted by their lex leading monomial."""
    return sorted(gb.generators, key=lambda g: max(g.terms))


XY = ("x", "y")
X = MultiPoly.var(XY, "x")
Y = MultiPoly.var(XY, "y")


def points_of(pairs):
    return [{"x": Fraction(a), "y": Fraction(b)} for a, b in pairs]


# ---------- back substitution: the first generator that qualifies ----------


def test_gianni_first_qualifying_generator(monkeypatch):
    # over y = 1 the x-group's first generator x*y - 2*y has leading
    # coefficient 1 and gives x = 2; x^2 - 7x + 10 there would add x = 5
    gens = [Y * Y - Y, X * Y - 2 * Y, X * X - 7 * X + 12 - 2 * Y]
    want = points_of([(3, 0), (4, 0), (2, 1)])
    assert enumerate_rational_points(gens, XY) == want
    assert reference_enumerate(gens, XY) == want
    # the generators are a reduced grevlex basis with the lex leading
    # monomials: the leaf is enumerated from it with no lex run
    runs = count_buchberger(monkeypatch)
    points, exact, free = sampled_rational_solutions(gens, XY)
    assert runs == [GREVLEX]
    assert as_items(points) == as_items(want) and exact and free == []
    runs.clear()
    assert sampled_rational_solutions(buchberger(gens, GREVLEX), XY)[0] == want
    assert runs == []


def test_lex_ready_basis_is_resorted(monkeypatch):
    # grevlex puts x^2 before x*y^3 in the x-group, lex puts x*y^3 first;
    # over y = 1 x^2 - 1 alone would add the spurious point (-1, 1)
    gens = [Y**4 - Y**3, X * Y**3 - Y**3, X * X - 1]
    gb = buchberger(gens, GREVLEX)
    leads = [g.leading()[0] for g in gb.generators]
    assert leads.index((2, 0)) < leads.index((1, 3))
    assert solve._lex_ready(*solve._integer_generators(gb, GREVLEX))
    assert by_lex_lead(gb) == list(buchberger(gens, LEX).generators)
    want = points_of([(-1, 0), (1, 0), (1, 1)])
    runs = count_buchberger(monkeypatch)
    points, exact, _ = sampled_rational_solutions(gb, XY)
    assert runs == []
    assert as_items(points) == as_items(want) and exact
    assert reference_enumerate(gens, XY) == want


def test_not_lex_ready_gets_one_lex_run(monkeypatch):
    gens = [X * X - Y, Y * Y - X]  # y^2 - x leads with y^2 under grevlex, x under lex
    gb = buchberger(gens, GREVLEX)
    assert not solve._lex_ready(*solve._integer_generators(gb, GREVLEX))
    runs = count_buchberger(monkeypatch)
    points, exact, _ = sampled_rational_solutions(gb, XY)
    assert runs == [LEX]
    assert as_items(points) == as_items(points_of([(0, 0), (1, 1)])) and exact


@pytest.mark.parametrize(
    "gens",
    [
        [X],  # a line
        [Y * Y - 1],  # two lines
        [X * Y],  # a cross
    ],
)
def test_positive_dimensional_systems_are_refused(gens):
    with pytest.raises(ValueError, match="not zero-dimensional"):
        enumerate_rational_points(gens, XY)


# ---------- seeded systems from prescribed point sets ----------


def _random_point_system(rng, vars):
    """Generators vanishing on a prescribed set of rational points: each is
    a product of random linear forms, one through each point, and one more
    generator than variables.  In some planar systems every generator also
    vanishes on the two points where one coordinate is +-sqrt(2) and the
    other is rational."""
    n = len(vars)
    coords = [Fraction(c) for c in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]
    irrational = n == 2 and rng.random() < 0.3
    # the degree, and the cost of the reference's lex runs, grows with the
    # number of points: 2 to 4 in the plane, 1 to 2 in space, 2 to 3 with sqrt(2)
    npoints = rng.randint(1, 2) if n == 3 else rng.randint(2, 3 if irrational else 4)
    # few distinct values per coordinate, so that fibers share points
    pts = {tuple(rng.choice(coords[: 3 + n]) for _ in vars) for _ in range(npoints)}
    gvars = [MultiPoly.var(vars, v) for v in vars]
    square, other = (0, 1) if rng.random() < 0.5 else (1, 0)
    anchor = rng.choice(coords)
    gens = []
    for _ in range(n + 1):
        g = MultiPoly.const(vars, 1)
        for p in sorted(pts):
            form = MultiPoly.zero(vars)
            for v, c in zip(gvars, p):
                form = form + (v - c).scale(Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2))))
            g = g * form
        if irrational:
            g = g * (gvars[square] ** 2 - 2 + (gvars[other] - anchor).scale(rng.choice((1, -1, 2))))
        gens.append(g)
    return gens, sorted(pts)


def _seeded_systems(count=40):
    rng = random.Random(default_seed() + 70)
    systems = []
    while len(systems) < count:
        vars = ("x", "y", "z") if len(systems) % 4 == 3 else XY
        gens, pts = _random_point_system(rng, vars)
        gb = buchberger(gens, GREVLEX)
        if ideal_dimension(gb) != 0:
            continue
        systems.append((gens, gb, vars, pts))
    return systems


@pytest.fixture(scope="module")
def systems():
    return _seeded_systems()


def test_seeded_systems_match_the_per_root_recursion(systems):
    lex_ready = 0
    for gens, gb, vars, pts in systems:
        want = reference_enumerate(gens, vars)
        assert as_items(enumerate_rational_points(gens, vars)) == as_items(want)
        assert as_items(sampled_rational_solutions(gb, vars)[0]) == as_items(want)
        found = {tuple(p[v] for v in vars) for p in want}
        assert set(pts) <= found
        if solve._lex_ready(*solve._integer_generators(gb, GREVLEX)):
            lex_ready += 1
            assert by_lex_lead(gb) == list(buchberger(gens, LEX).generators)
    # both paths of the zero-dimensional leaf are exercised
    assert 0 < lex_ready < len(systems)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_integer_core_matches_buchberger(systems, order):
    key = order_key(order)
    for gens, _, vars, _ in systems:
        terms, leads = solve._integer_generators(gens, order)
        basis, basis_leads = buchberger_terms(terms, leads, order)
        assert basis_leads == sorted(basis_leads, key=key)
        for g, le in zip(basis, basis_leads):
            assert le == max(g, key=key) and g[le] > 0
            assert all(type(c) is int for c in g.values()) and gcd(*g.values()) == 1
        want = buchberger(gens, order).generators
        assert [MultiPoly(vars, g).scale(Fraction(1, g[le])) for g, le in zip(basis, basis_leads)] == list(want)


def test_seeded_systems_against_sympy(systems):
    sympy = pytest.importorskip("sympy")
    checked = 0
    for gens, _, vars, _ in systems[:12]:
        syms = sympy.symbols(vars)
        exprs = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s**x for s, x in zip(syms, e)])
                for e, c in g.terms.items()
            )
            for g in gens
        ]
        try:
            sols = sympy.solve_poly_system(exprs, *syms)
        except (NotImplementedError, sympy.PolynomialError):
            continue
        rational = {
            tuple(Fraction(int(x.p), int(x.q)) for x in sol)
            for sol in sols
            if all(x.is_Rational for x in sol)
        }
        ours = {tuple(p[v] for v in vars) for p in enumerate_rational_points(gens, vars)}
        assert ours == rational
        checked += 1
    assert checked >= 8


# ---------- sampled families: shared fibers ----------

XYZ = ("x", "y", "z")
X3, Y3, Z3 = (MultiPoly.var(XYZ, v) for v in XYZ)


def test_shared_fiber_is_solved_once(monkeypatch):
    # y and z occur in no generator of <x>: each fiber is <x> again
    runs = count_buchberger(monkeypatch)
    points, exact, free = sampled_rational_solutions([X3], XYZ)
    assert runs == [GREVLEX]
    want = reference_sampled([X3], XYZ)
    assert (as_items(points), exact, free) == (as_items(want[0]), want[1], want[2])
    assert len(points) == 36


@pytest.mark.parametrize(
    "gens",
    [
        [X3 * X3 - 1],  # pivot y absent, then z absent
        [X3 * Z3 - 1, Z3 * Z3 - 4],  # pivot y absent above a zero-dimensional fiber
        [X3 * Y3 - Y3],  # pivot present
        [X3 * Y3 - Z3, X3 * X3 - 1],  # pivot present, mixed below
        [X3 + Y3 + Z3],  # a plane
    ],
)
def test_sampled_solutions_match_the_unshared_loop(gens):
    points, exact, free = sampled_rational_solutions(gens, XYZ)
    want = reference_sampled(gens, XYZ)
    assert (as_items(points), exact, free) == (as_items(want[0]), want[1], want[2])
    for point in points:
        assert all(evaluate(g, point) == 0 for g in gens)


# ---------- sampled families: lex-first fibers ----------


def test_positive_dimensional_fiber_takes_the_grevlex_fallback(monkeypatch):
    # three coordinate axes: the pivot is x, and x = 0 leaves the y-z axes
    gens = [X3 * Y3, X3 * Z3, Y3 * Z3]
    gb = buchberger(gens, GREVLEX)
    assert independent_variable_set(gb) == {0}
    runs = count_buchberger(monkeypatch)
    points, exact, free = sampled_rational_solutions(gb, XYZ)
    # x = 0: the lex run finds a positive-dimensional fiber, and the grevlex
    # recursion takes over, pivoting on y with one lex run per nonzero y (y = 0
    # leaves no equation); every other value of x gives y = z = 0 at once
    assert runs == [LEX, GREVLEX] + [LEX] * 5 + [LEX] * 5
    want = reference_sampled(gens, XYZ)
    assert (as_items(points), exact, free) == (as_items(want[0]), want[1], want[2])
    assert len(points) == 6 + 5


def test_zero_dimensional_fibers_cost_one_lex_run_each(monkeypatch):
    # the twisted cubic: every fiber over z is a point, the one over z = 0
    # a multiple one, and z has a rational cube root at 0 and +-1 only
    gens = [Y3 - X3**2, Z3 - X3**3]
    runs = count_buchberger(monkeypatch)
    points, exact, free = sampled_rational_solutions(gens, XYZ)
    assert runs == [GREVLEX] + [LEX] * len(solve.SAMPLE_VALUES)
    want = reference_sampled(gens, XYZ)
    assert (as_items(points), exact, free) == (as_items(want[0]), want[1], want[2])
    assert sorted(tuple(p[v] for v in XYZ) for p in points) == [(-1, 1, -1), (0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("with_lead", [False, True])
def test_specialize_is_the_ansatz_at_the_point(with_lead):
    rng = random.Random(default_seed() + 21)
    for _ in range(20):
        sig = ("t1", "t2")[: rng.randint(1, 2)]
        monos = list(exponents_upto(len(sig), rng.randint(0, 3)))
        lead = monos.pop(rng.randrange(len(monos))) if with_lead else None
        names = [f"c{i}" for i in range(len(monos))]
        ext = sig + tuple(names)
        point = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for n in names}
        ansatz = undetermined(sig, monos, names, ext, lead=lead)
        assert len(ansatz.terms) == len(monos) + with_lead
        assert set(ansatz.terms.values()) <= {1}
        got = specialize(sig, monos, names, point, lead=lead)
        assert got == ansatz.substitute(point).restrict(sig)
