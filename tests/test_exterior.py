import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from delta_kernel.cli import main
from delta_kernel.exterior import (
    ExtVector,
    factorization_implication_check,
    k_dimension,
    q_dimension,
    span_probe,
    wedge,
    wedge_all,
)
from delta_kernel.multipoly import MultiPoly
from delta_kernel.ratfunc import RatFunc


def from_components(dim, components):
    """The grade-1 vector with the i-th component at index i (1-based)."""
    return ExtVector(dim, 1, {(i,): c for i, c in enumerate(components, start=1)})


def all_coefficients_confined(report):
    """Whether every sample vector in the span has its coefficients back in
    the coefficient space, as a SpanProbeReport records them."""
    return all(ok for _, in_span, ok in report.membership_checks if in_span)


def random_one_form(rng, dim, span=3):
    coeffs = {}
    for i in range(1, dim + 1):
        c = rng.randint(-span, span)
        if c:
            coeffs[(i,)] = Fraction(c)
    return ExtVector(dim, 1, coeffs)


class TestWedge:
    def test_antisymmetry(self):
        e1, e2 = ExtVector.basis(4, (1,)), ExtVector.basis(4, (2,))
        assert wedge(e1, e2) == ExtVector.basis(4, (1, 2))
        assert wedge(e2, e1) == ExtVector.basis(4, (1, 2), Fraction(-1))

    def test_square_of_grade_one_vanishes(self):
        v = ExtVector(4, 1, {(1,): Fraction(2), (3,): Fraction(-1)})
        assert wedge(v, v).is_zero()

    def test_bilinear_expansion(self):
        e1, e2 = ExtVector.basis(4, (1,)), ExtVector.basis(4, (2,))
        assert wedge(e1 + e2, e1 - e2) == ExtVector.basis(4, (1, 2), Fraction(-2))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            wedge(ExtVector.basis(3, (1,)), ExtVector.basis(4, (1,)))

    def test_axioms_random(self, rng):
        for _ in range(200):
            dim = rng.randint(2, 6)
            a = random_one_form(rng, dim)
            b = random_one_form(rng, dim)
            c = random_one_form(rng, dim)
            assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
            assert wedge(a, a).is_zero()
            ab = wedge(a, b)
            # graded commutation for (1,1) and (1,2)
            assert wedge(b, a) == ab.scaled(Fraction(-1))
            assert wedge(ab, c) == wedge(c, ab)  # grades 2*1: sign +1
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_wedge_all_coefficients_are_minors(self, rng):
        sympy = pytest.importorskip("sympy")
        nonzero = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            w = wedge_all([from_components(n, [Fraction(x) for x in r]) for r in rows])
            assert (w.dim, w.grade) == (n, k)
            for cols in combinations(range(1, n + 1), k):
                minor = sympy.Matrix([[r[j - 1] for j in cols] for r in rows]).det()
                assert w.coeffs.get(cols, 0) == int(minor)
            # what the unchecked build in wedge produced is a valid, zero-free vector
            assert ExtVector(w.dim, w.grade, w.coeffs) == w
            assert all(w.coeffs.values())
            nonzero += not w.is_zero()
        assert nonzero >= 30


def _merge_sign(a, b):
    """Merged sorted tuple and the permutation parity; None on collision."""
    out = []
    i = j = 0
    inversions = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inversions += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1) ** inversions


def reference_wedge(a, b):
    """wedge by merging the index tuples of every pair of terms."""
    out = {}
    for sa, ca in a.coeffs.items():
        for sb, cb in b.coeffs.items():
            merged, sign = _merge_sign(sa, sb)
            if merged is None:
                continue
            c = ca * cb if sign > 0 else -(ca * cb)
            out[merged] = out[merged] + c if merged in out else c
    nonzero = {s: c for s, c in out.items() if not (c.is_zero() if isinstance(c, RatFunc) else c == 0)}
    return ExtVector(a.dim, a.grade + b.grade, nonzero)


def _random_vector(rng, dim, grade, kind):
    t = RatFunc(MultiPoly.var(("t",), "t"))
    coeffs = {}
    for s in combinations(range(1, dim + 1), grade):
        if rng.random() < 0.6:
            n = rng.randint(-4, 4)
            if kind == "int":
                coeffs[s] = n
            elif kind == "fraction":
                coeffs[s] = Fraction(n, rng.randint(1, 3))
            else:
                coeffs[s] = (t * n + rng.randint(-2, 2)) / (t + rng.randint(1, 3))
    return ExtVector(dim, grade, coeffs)


class TestBitmaskWedge:
    """wedge keys its sums by support bitmasks; the merged-tuple version
    kept here is the reference, term for term and in output order."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "ratfunc"])
    def test_matches_merge_reference_on_every_grade(self, rng, kind):
        checked = 0
        for dim in range(1, 8 if kind != "ratfunc" else 6):
            for ga in range(dim + 1):
                for gb in range(dim + 1 - ga):
                    a = _random_vector(rng, dim, ga, kind)
                    b = _random_vector(rng, dim, gb, kind)
                    got, want = wedge(a, b), reference_wedge(a, b)
                    assert (got.dim, got.grade) == (want.dim, want.grade)
                    assert list(got.coeffs.items()) == list(want.coeffs.items())
                    checked += bool(want.coeffs)
        assert checked >= 20

    @pytest.mark.parametrize("kind", ["int", "fraction", "ratfunc"])
    def test_grade_one_factor_on_either_side(self, rng, kind):
        # a grade-1 right factor takes the popcount(ma >> y) sign; a grade-1
        # left factor takes the general one
        for dim in range(2, 11 if kind != "ratfunc" else 6):
            for grade in range(dim):
                a = _random_vector(rng, dim, grade, kind)
                v = _random_vector(rng, dim, 1, kind)
                for x, y in ((a, v), (v, a)):
                    got, want = wedge(x, y), reference_wedge(x, y)
                    assert (got.dim, got.grade) == (want.dim, want.grade)
                    assert list(got.coeffs.items()) == list(want.coeffs.items())

    def test_masks_past_64_bits(self, rng):
        dim = 70
        for _ in range(30):
            vs = []
            for grade in (1, 1, 2, 3):
                coeffs = {}
                for _ in range(rng.randint(1, 6)):
                    s = tuple(sorted(rng.sample(range(1, dim + 1), grade)))
                    coeffs[s] = rng.randint(-4, 4)
                vs.append(ExtVector(dim, grade, coeffs))
            for p, q in combinations(vs, 2):
                for x, y in ((p, q), (q, p)):
                    got, want = wedge(x, y), reference_wedge(x, y)
                    assert list(got.coeffs.items()) == list(want.coeffs.items())
        top = ExtVector.basis(dim, (dim,), 3)
        low = ExtVector.basis(dim, (1, 65), 2)
        assert wedge(low, top).coeffs == {(1, 65, 70): 6}
        assert wedge(top, low).coeffs == {(1, 65, 70): 6}
        e66, w = ExtVector.basis(dim, (66,), 1), wedge(low, top)
        assert wedge(e66, w).coeffs == {(1, 65, 66, 70): 6}
        assert wedge(w, e66).coeffs == {(1, 65, 66, 70): -6}

    @pytest.mark.parametrize("kind", ["int", "fraction", "ratfunc"])
    def test_coeffs_view_round_trips(self, rng, kind):
        for _ in range(40):
            dim = rng.randint(1, 7)
            grade = rng.randint(0, dim)
            w = _random_vector(rng, dim, grade, kind)
            if grade < dim:
                w = wedge(w, _random_vector(rng, dim, 1, kind))
            assert ExtVector(w.dim, w.grade, w.coeffs) == w
            assert all(list(s) == sorted(s) and len(s) == w.grade for s in w.coeffs)
        with pytest.raises(TypeError):
            w.coeffs[(1,) * w.grade] = 1

    def test_collisions_and_signs(self):
        e = {i: ExtVector.basis(9, (i,)) for i in range(1, 10)}
        assert wedge(ExtVector.basis(9, (2, 5, 9)), e[5]).is_zero()
        for sa, sb in [((1, 4, 9), (2, 3)), ((8,), (1, 2, 3)), ((2, 4, 6), (1, 3, 5, 7))]:
            merged, sign = _merge_sign(sa, sb)
            assert wedge(ExtVector.basis(9, sa), ExtVector.basis(9, sb)) == ExtVector.basis(
                9, merged, Fraction(sign)
            )


class TestUncheckedResults:
    """scaled and + build their results without the constructor's subset
    checks; the public constructor keeps them."""

    @pytest.mark.parametrize(
        "grade, subset",
        [(2, (2, 1)), (2, (1, 1)), (2, (1,)), (1, (0,)), (1, (5,)), (2, (3, 9))],
    )
    def test_bad_subsets_still_raise(self, grade, subset):
        with pytest.raises(ValueError):
            ExtVector(4, grade, {subset: Fraction(1)})

    @pytest.mark.parametrize("kind", ["int", "fraction", "ratfunc"])
    def test_scaled_and_sum_match_the_checked_constructor(self, rng, kind):
        t = RatFunc(MultiPoly.var(("t",), "t"))
        scalars = {"int": [0, 1, -2, 3], "fraction": [Fraction(0), Fraction(-3, 2), Fraction(5)],
                   "ratfunc": [t - t, t, (t + 1) / (t - 2)]}[kind]
        for _ in range(40):
            dim = rng.randint(1, 6)
            grade = rng.randint(0, dim)
            a = _random_vector(rng, dim, grade, kind)
            b = _random_vector(rng, dim, grade, kind)
            for c in scalars:
                got = a.scaled(c)
                want = ExtVector(dim, grade, {s: v * c for s, v in a.coeffs.items()})
                assert (got.dim, got.grade) == (want.dim, want.grade)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
            total = {}
            for v in (a, b, -b):
                for s, c in v.coeffs.items():
                    total[s] = total[s] + c if s in total else c
            for got, want in (
                (a + b, ExtVector(dim, grade, {s: a.coeffs.get(s, 0) + b.coeffs.get(s, 0)
                                               for s in {**a.coeffs, **b.coeffs}})),
                (a + b - b, ExtVector(dim, grade, total)),
            ):
                assert (got.dim, got.grade) == (want.dim, want.grade)
                assert got.coeffs == want.coeffs


class TestIntegerCoefficients:
    """wedge-check builds its vectors from Python ints; the products must be
    the ones the same vectors give as Fractions."""

    def test_wedge_on_ints_matches_fractions(self, rng):
        for _ in range(100):
            dim = rng.randint(2, 7)
            ints = [
                from_components(dim, [rng.randint(-3, 3) for _ in range(dim)])
                for _ in range(rng.randint(2, dim))
            ]
            fracs = [
                ExtVector(v.dim, 1, {s: Fraction(c) for s, c in v.coeffs.items()}) for v in ints
            ]
            w, wf = wedge_all(ints), wedge_all(fracs)
            assert w.coeffs == wf.coeffs
            assert all(type(c) is int for c in w.coeffs.values())
            k = rng.randint(-2, 2)
            a, af = ints[0].scaled(k) + ints[1], fracs[0].scaled(Fraction(k)) + fracs[1]
            assert a.coeffs == af.coeffs
            assert wedge(a, ints[-1]).coeffs == wedge(af, fracs[-1]).coeffs

    def test_negation_keeps_the_entry_type(self):
        v = ExtVector(4, 1, {(1,): 2, (3,): -5})
        w = ExtVector(4, 1, {(1,): 1, (4,): 7})
        assert (-v).coeffs == {(1,): -2, (3,): 5}
        assert (v - w).coeffs == {(1,): 1, (3,): -5, (4,): -7}
        for u in (-v, v - w, v - v):
            assert all(type(c) is int for c in u.coeffs.values())
        assert (v - v).is_zero()
        f = ExtVector(4, 1, {(2,): Fraction(3, 4)})
        assert (-f).coeffs == {(2,): Fraction(-3, 4)}
        assert type((-f).coeffs[(2,)]) is Fraction
        t = RatFunc(MultiPoly.var(("t",), "t"))
        r = ExtVector(4, 1, {(2,): (t + 1) / (t - 2)})
        assert (-r).coeffs == {(2,): (-t - 1) / (t - 2)}
        assert (r - r).is_zero()

    def test_wedge_check_matches_fraction_reference(self):
        count = 8
        for seed in range(1, 21):
            for dim in range(2, 9):
                out = io.StringIO()
                argv = ["--json", "wedge-check", "--dim", str(dim), "--count", str(count),
                        "--seed", str(seed)]
                assert main(argv, stdout=out, stderr=io.StringIO()) == 0
                results = json.loads(out.getvalue())["results"]
                statuses, examples = reference_wedge_check(dim, count, seed)
                assert results["statuses"] == statuses
                assert results["examples"] == examples


def reference_wedge_check(dim, count, seed):
    """The wedge-check battery on Fraction vectors: (statuses, examples)."""
    rng = random.Random(seed)
    statuses = dict.fromkeys(("confirmed", "vacuous", "trivial", "precondition_failed", "refuted"), 0)
    examples = []
    for i in range(count):
        ell = rng.randint(2, max(2, dim - 1))
        alphas = []
        for _ in range(ell):
            coeffs = {}
            for j in range(1, dim + 1):
                c = rng.randint(-3, 3)
                if c:
                    coeffs[(j,)] = Fraction(c)
            alphas.append(ExtVector(dim, 1, coeffs))
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
        statuses[verdict.status] += 1
        if len(examples) < 3:
            examples.append({"instance": i, "status": verdict.status, "detail": verdict.detail})
    return statuses, examples


class TestImplication:
    def test_confirmed_instance(self):
        e1, e2 = ExtVector.basis(4, (1,)), ExtVector.basis(4, (2,))
        omega = wedge(e1, e2)
        v = factorization_implication_check([e1, e2], omega, e1 + e2)
        assert v.status == "confirmed" and v.holds

    def test_vacuous_instance(self):
        e1, e2, e3 = (ExtVector.basis(4, (i,)) for i in (1, 2, 3))
        omega = wedge(e1, e2)
        v = factorization_implication_check([e1, e2], omega, e3)
        assert v.status == "vacuous"

    def test_zero_omega_trivial(self):
        e1, e2 = ExtVector.basis(4, (1,)), ExtVector.basis(4, (2,))
        v = factorization_implication_check([e1, e2], ExtVector.zero(4, 2), e1)
        assert v.status == "trivial"

    def test_dependent_alphas_flagged(self):
        e1 = ExtVector.basis(4, (1,))
        v = factorization_implication_check([e1, e1.scaled(Fraction(2))], e1, e1)
        assert v.status == "precondition_failed"

    def test_never_refuted_random(self, rng):
        confirmed = 0
        for _ in range(200):
            dim = rng.randint(2, 6)
            ell = rng.randint(1, dim - 1)
            alphas = [random_one_form(rng, dim) for _ in range(ell)]
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
            if verdict.status == "confirmed":
                confirmed += 1
        assert confirmed > 20


class TestSpanProbe:
    def test_pairs_span(self):
        e1, e2 = ExtVector.basis(4, (1,)), ExtVector.basis(4, (2,))
        rep = span_probe([e1, e2], 2)
        assert rep.dim_q_wedges == 1
        assert rep.wedge_count == 1

    def test_tower_dimensions_differ(self):
        tsig = ("t",)
        t = RatFunc(MultiPoly.var(tsig, "t"))
        one = RatFunc.from_const(tsig, 1)
        u1 = ExtVector(3, 1, {(1,): one})
        u2 = ExtVector(3, 1, {(1,): t})
        rep = span_probe([u1, u2], 1)
        assert rep.dim_q_sample == 2
        assert rep.dim_k_sample == 1

    def test_zero_space(self):
        rep = span_probe([ExtVector.zero(3, 1)], 1)
        assert rep.dim_q_wedges == 0 and rep.dim_k_sample == 0

    def test_ell_zero_rejected(self):
        with pytest.raises(ValueError):
            span_probe([ExtVector.basis(3, (1,))], 0)

    def test_coefficients_confined(self):
        # dependent triple: u3 = t*u1 + u2 lies in span_K{u1, u2}
        tsig = ("t",)
        t = RatFunc(MultiPoly.var(tsig, "t"))
        one = RatFunc.from_const(tsig, 1)
        u1 = ExtVector(3, 1, {(1,): one})
        u2 = ExtVector(3, 1, {(2,): one})
        u3 = ExtVector(3, 1, {(1,): t, (2,): one})
        rep = span_probe([u1, u2, u3], 3)
        assert rep.dim_q_wedges == 0  # all triples are dependent
        rep2 = span_probe([u1, u2, u3], 2)
        assert rep2.dim_q_wedges >= 1
        in_span = [entry for entry in rep2.membership_checks if entry[1]]
        assert in_span
        assert all_coefficients_confined(rep2)

    def test_q_and_k_dimensions(self):
        e1 = ExtVector.basis(2, (1,))
        assert q_dimension([e1, e1.scaled(Fraction(2))]) == 1
        assert k_dimension([e1, e1.scaled(Fraction(2))]) == 1

    def test_q_dimension_over_a_common_denominator(self, monkeypatch):
        # 1/t, 1/t^2 and (t + 1)/t^2 times e1: Q-independent pairs, one K-line
        import delta_kernel.multipoly as multipoly

        lcms = []
        real = multipoly.poly_lcm

        def counting(a, b):
            lcms.append(real(a, b))
            return lcms[-1]

        monkeypatch.setattr(multipoly, "poly_lcm", counting)
        t = MultiPoly.var(("t",), "t")
        one = MultiPoly.const(("t",), 1)
        coeffs = [RatFunc(one, t), RatFunc(one, t * t), RatFunc(t + 1, t * t)]
        vectors = [ExtVector.basis(2, (1,), c) for c in coeffs]
        assert q_dimension(vectors) == 2
        assert k_dimension(vectors) == 1
        assert lcms and lcms[-1] == t * t
