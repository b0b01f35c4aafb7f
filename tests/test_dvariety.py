import random
from fractions import Fraction
from itertools import product

import pytest

from delta_kernel import dvariety
from delta_kernel.dvariety import (
    DSpec,
    darboux_search,
    darboux_search_eigen,
    darboux_search_groebner,
    first_integral_search,
    is_dconstant,
    is_dsubvariety,
    log_derivative,
)
from delta_kernel.groebner import GREVLEX, order_key
from delta_kernel.linalg import ExactMatrix, nullspace, rational_eigen, rref, stack
from delta_kernel.multipoly import MultiPoly, exponents_upto
from delta_kernel.ratfunc import RatFunc

from conftest import default_seed, random_fraction

SIG = ("x1", "x2")
X = MultiPoly.var(SIG, "x1")
Y = MultiPoly.var(SIG, "x2")


def exponential_solvable_over_ratfield(gamma):
    """Whether delta x = gamma x has a nonzero solution in (Q(t), d/dt)."""
    if isinstance(gamma, RatFunc):
        if not gamma.is_constant():
            return False
        gamma = gamma.constant_value()
    return gamma == 0


def rotation():
    return DSpec(2, 1, [[-Y, X]])


def shear():
    return DSpec(2, 1, [[MultiPoly.const(SIG, 1), Y]])


def euler():
    return DSpec(2, 1, [[X, 2 * Y]])


class TestInvariance:
    def test_circle_is_invariant(self):
        ok, _ = is_dsubvariety(rotation(), [X * X + Y * Y - 1])
        assert ok

    def test_line_is_not(self):
        ok, witness = is_dsubvariety(rotation(), [X - 1])
        assert not ok
        k, g, nf = witness
        assert k == 1 and not nf.is_zero()

    def test_whole_space(self):
        ok, _ = is_dsubvariety(rotation(), [MultiPoly.zero(SIG)])
        assert ok

    def test_darboux_zero_sets_are_invariant(self):
        for spec_f in (rotation, shear, euler):
            spec = spec_f()
            for r in darboux_search(spec, 2)[0]:
                ok, _ = is_dsubvariety(spec, [r.polynomial])
                assert ok


class TestDConstant:
    def test_radius_function(self):
        assert is_dconstant(rotation(), RatFunc(X * X + Y * Y))

    def test_coordinate_is_not(self):
        assert not is_dconstant(rotation(), RatFunc(X))

    def test_constants_are(self):
        assert is_dconstant(rotation(), RatFunc.from_const(SIG, 7))

    def test_restricted_to_variety(self):
        # on the line x2 = x1 the field (x2, x1) fixes x1 - x2
        spec = DSpec(2, 1, [[Y, X]], ideal_gens=[X - Y])
        assert is_dconstant(spec, RatFunc(X - Y))

    def test_vanishing_denominator_rejected(self):
        spec = DSpec(2, 1, [[Y, X]], ideal_gens=[X - Y])
        with pytest.raises(ZeroDivisionError):
            is_dconstant(spec, RatFunc(X, X - Y))


class TestCommuting:
    def test_commuting_pair_accepted(self):
        DSpec(2, 2, [[X, Y], [2 * X, 2 * Y]])

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            DSpec(2, 2, [[Y, MultiPoly.zero(SIG)], [MultiPoly.zero(SIG), X]])

    def test_waiver(self):
        spec = DSpec(
            2,
            2,
            [[Y, MultiPoly.zero(SIG)], [MultiPoly.zero(SIG), X]],
            check_commuting=False,
        )
        assert spec.commuting_witness() is not None


class TestDarboux:
    def test_rotation_circle(self):
        res, _ = darboux_search(rotation(), 2)
        assert len(res) == 1
        assert res[0].polynomial == X * X + Y * Y
        assert all(c.is_zero() for c in res[0].cofactors)
        assert res[0].irreducibility == "not-checked"

    def test_shear_powers_of_y(self):
        res, _ = darboux_search(shear(), 3)
        assert [(r.polynomial.to_str(), r.cofactors[0].to_str()) for r in res] == [
            ("x2", "1"),
            ("x2^2", "2"),
            ("x2^3", "3"),
        ]
        assert res[0].irreducibility == "verified-univariate"
        assert res[0].irreducible is True
        assert res[1].irreducible is False

    def test_euler_monomials(self):
        res, _ = darboux_search(euler(), 2)
        got = {(r.polynomial.to_str(), r.cofactors[0].to_str()) for r in res}
        assert got == {
            ("x1", "1"),
            ("x2", "2"),
            ("x1^2", "2"),
            ("x1*x2", "3"),
            ("x2^2", "4"),
        }

    def test_paths_agree(self):
        cases = [(rotation(), 2), (shear(), 3), (euler(), 2)]
        # two commuting derivations, and a scalar pair on which the Groebner
        # path samples a cofactor family
        for fields in ([[X, 2 * Y], [X, Y]], [[X, Y], [2 * X, 2 * Y]]):
            cases += [(DSpec(2, 2, fields), d) for d in (1, 2, 3)]
        sampled = []
        for spec, d in cases:
            eig = darboux_search_eigen(spec, d)
            grb, warnings = darboux_search_groebner(spec, d)
            assert [(r.polynomial, r.cofactors) for r in eig] == [
                (r.polynomial, r.cofactors) for r in grb
            ]
            sampled.append(bool(warnings))
        assert sampled[3:] == [False] * 3 + [True] * 3

    def test_groebner_path_nonlinear_field(self):
        # delta x = x^2 needs the bilinear path; x is invariant with cofactor x
        spec = DSpec(1, 1, [[MultiPoly.var(("x1",), "x1") ** 2]])
        res, _ = darboux_search(spec, 2)
        got = {(r.polynomial.to_str(), r.cofactors[0].to_str()) for r in res}
        assert ("x1", "x1") in got
        assert ("x1^2", "2*x1") in got

    def test_multiplicativity(self):
        spec = euler()
        res, _ = darboux_search(spec, 2)
        for a in res:
            for b in res:
                prod = a.polynomial * b.polynomial
                cof = [ka + kb for ka, kb in zip(a.cofactors, b.cofactors)]
                for k in range(spec.nder):
                    assert spec.derive(k, prod) == cof[k] * prod

    def test_degree_bound_zero_rejected(self):
        with pytest.raises(ValueError):
            darboux_search(rotation(), 0)

    def test_dispatcher_eigen_field_has_no_warnings(self):
        results, warnings = darboux_search(euler(), 2)
        assert warnings == []
        assert _darboux_view(results) == _darboux_view(darboux_search_eigen(euler(), 2))

    def test_dispatcher_passes_groebner_warnings(self):
        # delta x1 = x1^2, delta x2 = 0: the cofactors of x2-free polynomials
        # form families, which the Groebner path samples and reports
        x1 = MultiPoly.var(SIG, "x1")
        spec = DSpec(2, 1, [[x1 * x1, MultiPoly.zero(SIG)]])
        results, warnings = darboux_search(spec, 2)
        want, want_warnings = darboux_search_groebner(spec, 2)
        assert warnings == want_warnings and warnings
        assert all("[0, 1, -1, 2, -2, 3]" in w for w in warnings)
        assert _darboux_view(results) == _darboux_view(want)
        assert darboux_search(spec, 2, method="groebner") == (results, warnings)
        with pytest.raises(ValueError, match="eigenproblem path needs every field of degree <= 1"):
            darboux_search(spec, 2, method="eigen")

    def test_two_commuting_derivations(self):
        spec = DSpec(2, 2, [[X, 2 * Y], [X, Y]])
        res, _ = darboux_search(spec, 1)
        got = {
            (r.polynomial.to_str(), tuple(c.to_str() for c in r.cofactors))
            for r in res
        }
        assert got == {("x1", ("1", "1")), ("x2", ("2", "1"))}
        # cofactor tuples never match, so no rational first integral exists
        assert first_integral_search(spec, 2) == []


class TestFirstIntegrals:
    def test_rotation(self):
        res = first_integral_search(rotation(), 2)
        assert len(res) == 1 and res[0] == RatFunc(X * X + Y * Y)

    def test_euler_ratio(self):
        res = first_integral_search(euler(), 2)
        assert len(res) == 1 and res[0] == RatFunc(X * X, Y)

    def test_shear_has_none(self):
        assert first_integral_search(shear(), 3) == []

    def test_outputs_are_dconstants(self):
        for spec_f, d in ((rotation, 2), (euler, 2)):
            spec = spec_f()
            for f in first_integral_search(spec, d):
                assert is_dconstant(spec, f)
                assert not f.is_constant()


def test_coprime_base_splits_a_pair_with_a_common_factor():
    # x1*x2 and x1*(x1 + x2) share x1: the pair is refined to three
    # pairwise coprime factors, and each input is their product exactly
    polys = [X * Y, X * X + X * Y]
    base, exps = dvariety._coprime_base(polys)
    assert base == [Y, X, X + Y]
    assert exps == [[1, 1, 0], [0, 1, 1]]
    for f, vec in zip(polys, exps):
        rebuilt = MultiPoly.const(SIG, 1)
        for q, e in zip(base, vec):
            rebuilt = rebuilt * q**e
        assert rebuilt == f


class TestLogDerivative:
    def setup_method(self):
        self.t = MultiPoly.var(("t",), "t")

    def test_power(self):
        ld, const = log_derivative(RatFunc(self.t ** 2))
        assert ld == RatFunc(MultiPoly.const(("t",), 2), self.t)
        assert not const

    def test_constant(self):
        ld, const = log_derivative(RatFunc.from_const(("t",), 5))
        assert ld.is_zero() and const

    def test_quotient(self):
        ld, const = log_derivative(RatFunc(self.t - 1, self.t + 1))
        assert ld == RatFunc(MultiPoly.const(("t",), 2), (self.t - 1) * (self.t + 1))
        assert not const

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            log_derivative(RatFunc(MultiPoly.zero(("t",))))

    def test_exponential_solvability(self):
        assert exponential_solvable_over_ratfield(Fraction(0))
        assert not exponential_solvable_over_ratfield(Fraction(3))
        assert not exponential_solvable_over_ratfield(RatFunc(self.t))


# ---------- references: the searches as they were before the eigenspaces
# were reused, one action matrix built per cofactor, one stacked solve per
# eigenvalue combination and one ratio per ordered pair of Darboux
# products ----------


def _monos(spec, d):
    return sorted(exponents_upto(spec.nvars, d), key=order_key(GREVLEX), reverse=True)


def reference_action_matrix(spec, k, monos, cofactor=None):
    """Matrix of f -> delta_k f (minus cofactor*f) on the span of monos,
    built anew for each cofactor."""
    extra = spec.max_field_degree(k) - 1
    if cofactor is not None and not cofactor.is_zero():
        extra = max(extra, cofactor.total_degree())
    target = _monos(spec, max(sum(e) for e in monos) + max(extra, 0))
    index = {e: i for i, e in enumerate(target)}
    entries = [[Fraction(0)] * len(monos) for _ in target]
    for c, e in enumerate(monos):
        mono = MultiPoly.monomial(spec.sig, e)
        img = spec.derive(k, mono)
        if cofactor is not None:
            img = img - cofactor * mono
        for ee, cc in img.terms.items():
            entries[index[ee]][c] += cc
    return ExactMatrix(entries)


def reference_solve_cofactor(spec, monos, cofactors):
    """Basis of {f in span(monos) : delta_k f = K_k f for all k}."""
    mats = [
        reference_action_matrix(spec, k, monos, cofactor=cofactors[k])
        for k in range(spec.nder)
    ]
    return dvariety._canonical_basis(spec.sig, monos, nullspace(stack(mats)))


def reference_darboux_eigen(spec, d):
    monos = _monos(spec, d)
    candidate_lists = []
    for k in range(spec.nder):
        a = reference_action_matrix(spec, k, monos)
        candidate_lists.append(sorted({ev for ev, _ in rational_eigen(a).pairs}))
    results = []
    for combo in product(*candidate_lists):
        cofs = [MultiPoly.const(spec.sig, ev) for ev in combo]
        for p in reference_solve_cofactor(spec, monos, cofs):
            results.append(dvariety._annotate(spec, p, cofs))
    results.sort(key=lambda r: (r.degree, r.polynomial.to_str()))
    return results


def _reference_orient(ratio):
    num_deg = ratio.num.total_degree()
    den_deg = ratio.den.total_degree()
    if den_deg > num_deg or (den_deg == num_deg and ratio.den.to_str() > ratio.num.to_str()):
        return ratio.inverse()
    return ratio


def reference_first_integrals(spec, d, darboux):
    monos = _monos(spec, d)
    vecs = nullspace(stack([reference_action_matrix(spec, k, monos) for k in range(spec.nder)]))
    integrals = []
    const_e = (0,) * spec.nvars
    if vecs:
        red, _ = rref(ExactMatrix(vecs))
        for row in red.entries:
            terms = {e: c for e, c in zip(monos, row) if c and e != const_e}
            p = MultiPoly(spec.sig, terms)
            if not p.is_constant():
                integrals.append(RatFunc(p.primitive()))
    combos = []

    def rec(i, deg_left, prod, cof_sum):
        combos.append((tuple(frozenset(c.terms.items()) for c in cof_sum), prod))
        for j in range(i, len(darboux)):
            r = darboux[j]
            if r.degree <= deg_left:
                rec(
                    j,
                    deg_left - r.degree,
                    prod * r.polynomial,
                    [a + b for a, b in zip(cof_sum, r.cofactors)],
                )

    rec(0, d, MultiPoly.const(spec.sig, 1), [MultiPoly.zero(spec.sig)] * spec.nder)
    seen = {(f.num, f.den) for f in integrals}
    for cof_a, prod_a in combos:
        for cof_b, prod_b in combos:
            if cof_a != cof_b or prod_a == prod_b:
                continue
            ratio = RatFunc(prod_a, prod_b)
            if ratio.is_constant():
                continue
            ratio = _reference_orient(ratio)
            key = (ratio.num, ratio.den)
            if key not in seen and is_dconstant(spec, ratio):
                seen.add(key)
                integrals.append(ratio)
    integrals.sort(key=lambda r: (r.num.total_degree() + r.den.total_degree(), r.to_str()))
    return integrals


# ---------- seeded degree <= 1 fields ----------


def _invertible(rng, n):
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if len(rref(ExactMatrix(p))[1]) == n:
            return p


def _inverse(p):
    n = len(p)
    red, _ = rref(ExactMatrix([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]))
    return [row[n:] for row in red.entries]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _affine_fields(sig, matrices, shift=None):
    """The derivations x' = A x (+ shift), one per matrix."""
    xs = [MultiPoly.var(sig, v) for v in sig]
    fields = []
    for a in matrices:
        comps = []
        for j, row in enumerate(a):
            f = MultiPoly.const(sig, shift[j] if shift else 0)
            for c, x in zip(row, xs):
                f = f + x.scale(c) if c else f
            comps.append(f)
        fields.append(comps)
    return fields


def _conjugated(rng, diagonals, n=2, shift=False):
    """Commuting fields P D_k P^-1 x for diagonal (or Jordan) blocks D_k,
    with a random invertible P, and an optional random constant part (one
    field only)."""
    p = _invertible(rng, n)
    q = _inverse(p)
    mats = [_matmul(_matmul(p, dk), q) for dk in diagonals]
    sig = tuple(f"x{j}" for j in range(1, n + 1))
    const = [random_fraction(rng) for _ in range(n)] if shift else None
    return DSpec(n, len(mats), _affine_fields(sig, mats, const))


def _diag(*xs):
    return [[Fraction(x) if i == j else Fraction(0) for j in range(len(xs))] for i, x in enumerate(xs)]


def seeded_fields():
    """(name, spec, degree) for degree <= 1 fields covering one and two
    derivations, repeated and defective eigenvalues, resonances that give
    first integrals, constant parts, and irrational spectra."""
    rng = random.Random(default_seed() + 9)
    cases = []
    for i, ((a, b), d) in enumerate((((1, -1), 6), ((2, -3), 5), ((1, 2), 4), ((3, 1), 4))):
        cases.append((f"resonant{i}", _conjugated(rng, [_diag(a, b)], shift=i % 2 == 1), d))
    cases.append(("scalar", _conjugated(rng, [_diag(2, 2)]), 4))
    cases.append(("jordan", _conjugated(rng, [[[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]]), 6))
    cases.append(("nilpotent", _conjugated(rng, [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]]), 6))
    sig = ("x1", "x2")
    x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
    # irrational spectra: eigenvalues +-sqrt(2) and +-i*sqrt(3/2) on the lines
    cases.append(("saddle_sqrt2", DSpec(2, 1, [[x2, 2 * x1]]), 6))
    cases.append(("rotation", DSpec(2, 1, [[x2.scale(Fraction(-3, 2)), x1]]), 6))
    cases.append(("shear_const", DSpec(2, 1, [[MultiPoly.const(sig, Fraction(1, 2)), -3 * x2]]), 6))
    cases.append(("pair", _conjugated(rng, [_diag(1, -1), _diag(2, 1)]), 4))
    cases.append(("pair_scalar", _conjugated(rng, [_diag(1, 2), _diag(1, 1)]), 4))
    cases.append(("pair_repeated", _conjugated(rng, [_diag(1, 1, -1), _diag(0, 0, 1)], n=3), 2))
    return cases


def _darboux_view(results):
    return [
        (r.polynomial, r.cofactors, r.degree, r.irreducible, r.irreducibility) for r in results
    ]


class TestEigenReuseMatchesReference:
    @pytest.mark.parametrize(
        "spec,d", [pytest.param(spec, d, id=name) for name, spec, d in seeded_fields()]
    )
    def test_darboux_and_integrals(self, spec, d):
        for deg in range(1, d + 1):
            want = reference_darboux_eigen(spec, deg)
            got = darboux_search_eigen(spec, deg)
            assert _darboux_view(got) == _darboux_view(want)
            assert first_integral_search(spec, deg) == reference_first_integrals(spec, deg, want)

    def test_cases_are_not_vacuous(self):
        # the seeded fields reach first integrals, rational ratios among them,
        # several derivations, and a spectrum that is not all rational
        specs = {name: spec for name, spec, _ in seeded_fields()}
        assert [f.den.is_constant() for f in first_integral_search(specs["resonant0"], 2)] == [True]
        assert [f.den.is_constant() for f in first_integral_search(specs["resonant2"], 2)] == [False]
        assert first_integral_search(specs["pair_repeated"], 1)
        spec = specs["saddle_sqrt2"]
        assert not rational_eigen(reference_action_matrix(spec, 0, _monos(spec, 1))).complete

    def test_groebner_path_integrals(self):
        sig = ("x1", "x2")
        x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
        spec = DSpec(2, 1, [[x1 - 2 * x1 * x2, 2 * x1 * x2 - x2]])
        darboux, _ = darboux_search_groebner(spec, 2)
        assert first_integral_search(spec, 2) == reference_first_integrals(spec, 2, darboux)

    @pytest.mark.parametrize(
        "fields,want",
        [
            # x1' = x2, x2' = -x1^2: the energy 2*x1^3 + 3*x2^2
            (lambda x1, x2: [x2, -x1 * x1], lambda x1, x2: [2 * x1**3 + 3 * x2**2]),
            # x1' = x1*x2, x2' = -x1*x2: x1 + x2 and its powers
            (lambda x1, x2: [x1 * x2, -x1 * x2], lambda x1, x2: [(x1 + x2) ** k for k in (1, 2, 3)]),
        ],
        ids=["energy", "sum"],
    )
    def test_groebner_path_polynomial_integrals(self, fields, want):
        # the polynomial integrals come from the Darboux list alone, checked
        # against the kernel of the stacked derivation action
        sig = ("x1", "x2")
        x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
        spec = DSpec(2, 1, [fields(x1, x2)])
        darboux, _ = darboux_search_groebner(spec, 3)
        got = first_integral_search(spec, 3)
        assert got == reference_first_integrals(spec, 3, darboux)
        polys = [f.num for f in got if f.den.is_constant()]
        assert polys == want(x1, x2)

    def test_zero_cofactor_needs_no_sample(self, monkeypatch):
        # with the cofactor search finding nothing, the zero cofactor is still
        # a candidate, so the polynomial integrals are still found
        monkeypatch.setattr(dvariety, "sampled_rational_solutions", lambda gens, vars: ([], False, []))
        sig = ("x1", "x2")
        x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
        spec = DSpec(2, 1, [[x2, -x1 * x1]])
        assert first_integral_search(spec, 3) == [RatFunc(2 * x1**3 + 3 * x2**2)]


class TestEigenOracles:
    """nullspace and rational_eigen, on which the eigen path rests, against
    sympy."""

    @staticmethod
    def _sym(sympy, rows):
        return sympy.Matrix(
            [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
        )

    def test_nullspace_spans_sympy_kernel(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(default_seed() + 10)
        for _ in range(30):
            rows, cols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
            left = [[random_fraction(rng) for _ in range(r)] for _ in range(rows)]
            right = [[random_fraction(rng) for _ in range(cols)] for _ in range(r)]
            m = [
                [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*right)]
                for row in left
            ]
            got = nullspace(ExactMatrix(m))
            want = self._sym(sympy, m).nullspace()
            assert len(got) == len(want)
            if got:
                mine = self._sym(sympy, got).rref()[0]
                theirs = sympy.Matrix.hstack(*want).T.rref()[0]
                assert mine == theirs

    def test_rational_eigen_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        matrices = []
        for name, spec, _ in seeded_fields():
            for k in range(spec.nder):
                for deg in (1, 2, 3):
                    matrices.append(reference_action_matrix(spec, k, _monos(spec, deg)).entries)
        rng = random.Random(default_seed() + 11)
        for _ in range(10):
            n = rng.randint(1, 5)
            matrices.append([[random_fraction(rng) for _ in range(n)] for _ in range(n)])
        for m in matrices:
            report = rational_eigen(ExactMatrix(m))
            sm = self._sym(sympy, m)
            vals = sm.eigenvals()
            rational = {ev: mult for ev, mult in vals.items() if ev.is_rational}
            assert [sympy.Rational(ev.numerator, ev.denominator) for ev, _ in report.pairs] == sorted(
                rational
            )
            assert report.complete == (sum(rational.values()) == len(m))
            for ev, vecs in report.pairs:
                shifted_m = sm - sympy.Rational(ev.numerator, ev.denominator) * sympy.eye(len(m))
                assert len(vecs) == len(shifted_m.nullspace())
                for v in vecs:
                    assert shifted_m * self._sym(sympy, [v]).T == sympy.zeros(len(m), 1)
