import random
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

import pytest

import delta_kernel.multipoly as multipoly
from delta_kernel.linalg import (
    ExactMatrix,
    charpoly,
    nullspace,
    rank,
    rational_eigen,
)
from delta_kernel.multipoly import (
    InexactDivisionError,
    MultiPoly,
    SignatureMismatchError,
    add_integer_products,
    coeff_of_power,
    coefficients,
    dense_coeffs,
    exponents_of_degree,
    exponents_upto,
    from_dense,
    horner,
    interpolate,
    monomials,
    mul_integer_terms,
    partial_terms,
    poly_gcd,
    poly_lcm,
    power,
    primitive_terms,
    pseudo_divide,
    pseudo_divide_terms,
    restrict_terms,
    sorted_exponents,
    split_terms,
)
from delta_kernel.groebner import GREVLEX, order_key
from delta_kernel.ratfunc import RatFunc

from conftest import default_seed, mul_vec, random_fraction, random_multipoly

SIG = ("x", "y")
X = MultiPoly.var(SIG, "x")
Y = MultiPoly.var(SIG, "y")


class TestPolyArith:
    def test_binomial_identity(self):
        assert (X + Y) * (X + Y) == X * X + 2 * X * Y + Y * Y

    def test_absorbing_zero(self):
        a = X * Y + 3 * X
        assert (a * MultiPoly.zero(SIG)).is_zero()

    def test_exact_div_difference_of_squares(self):
        q = (X * X - Y * Y).exact_div(X - Y)
        assert q == X + Y
        assert q * (X - Y) == X * X - Y * Y

    def test_inexact_division_is_an_error(self):
        with pytest.raises(InexactDivisionError):
            (X * X + Y).exact_div(X - Y)

    def test_int_subclasses_act_as_scalars(self):
        # the operators test for the polynomial class first; an int
        # subclass still takes the scalar path, as a Fraction does
        class Small(int):
            pass

        a = X * Y + 3 * X
        for k in (True, Small(2), Fraction(2, 3)):
            c = MultiPoly.const(SIG, k)
            assert a + k == k + a == a + c
            assert a * k == k * a == a * c
            assert a.exact_div(k) == a.exact_div(c)
        assert (a + True).terms[(0, 0)] == 1 and type((a + True).terms[(0, 0)]) is Fraction

    def test_signature_mismatch(self):
        other = MultiPoly.var(("z",), "z")
        with pytest.raises(SignatureMismatchError):
            X + other

    def test_sub_merges_like_add_of_the_negation(self):
        rng = random.Random(default_seed() + 6)
        for _ in range(60):
            a, b = random_multipoly(rng, SIG), random_multipoly(rng, SIG)
            want = dict(a.terms)
            for e, c in b.terms.items():
                want[e] = want.get(e, 0) - c
                if not want[e]:
                    del want[e]
            # the terms of a first, in order, then those only b has
            assert list((a - b).terms.items()) == list(want.items())
            assert (a - b).terms == (a + -b).terms
        assert (X - 2).terms == {(1, 0): 1, (0, 0): -2}
        assert (2 - X).terms == {(1, 0): -1, (0, 0): 2}
        with pytest.raises(SignatureMismatchError):
            X - MultiPoly.var(("z",), "z")

    def test_ring_axioms_random(self):
        rng = random.Random(default_seed())
        for _ in range(60):
            a = random_multipoly(rng, SIG)
            b = random_multipoly(rng, SIG)
            c = random_multipoly(rng, SIG)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_exact_div_roundtrip_random(self):
        rng = random.Random(default_seed() + 1)
        done = 0
        while done < 40:
            a = random_multipoly(rng, SIG)
            b = random_multipoly(rng, SIG)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a
            done += 1

    def test_restrict_round_trip(self):
        rng = random.Random(default_seed() + 2)
        wide = ("y", "z", "x")
        for _ in range(20):
            p = random_multipoly(rng, SIG)
            assert p.restrict(SIG) == p
            q = p.restrict(wide)
            assert q.vars == wide
            assert q.restrict(SIG) == p

    def test_substitute_matches_term_by_term_composition(self):
        rng = random.Random(default_seed() + 5)
        sig = ("x", "y", "z")
        for _ in range(40):
            p = random_multipoly(rng, sig, max_degree=4, max_terms=6)
            values = {
                "x": random_fraction(rng),
                "y": random_multipoly(rng, sig, max_degree=2, max_terms=3),
            }
            if rng.random() < 0.5:
                values["z"] = rng.randint(-3, 3)
            want = MultiPoly.zero(sig)
            for e, c in p.terms.items():
                term = MultiPoly.const(sig, c)
                for v, k in zip(sig, e):
                    val = values.get(v, MultiPoly.var(sig, v))
                    if not isinstance(val, MultiPoly):
                        val = MultiPoly.const(sig, val)
                    term = term * val**k
                want = want + term
            got = p.substitute(values)
            assert got == want
            assert all(isinstance(c, Fraction) and c for c in got.terms.values())

    def test_substitute_cancelling_to_zero(self):
        got = (X * Y - 2 * X).substitute({"y": 2})
        assert got.is_zero() and got.terms == {}
        assert (X * Y - Y * Y).substitute({"x": Y}).is_zero()
        assert (X * X + Y).substitute({"x": 0, "y": 0}).terms == {}

    def test_substitute_unused_variable(self):
        sig = ("x", "y", "z")
        p = MultiPoly(sig, {(2, 1, 0): Fraction(3, 2), (0, 0, 0): Fraction(-1)})
        assert p.substitute({"z": Fraction(5, 7)}) == p
        assert p.substitute({"z": MultiPoly.var(sig, "x")}) == p
        assert p.substitute({}) == p

    def test_gcd_common_factor(self):
        g = poly_gcd((X + Y) * (X - Y), (X + Y) * (X + 1))
        assert g == (X + Y).monic()

    def test_gcd_coprime(self):
        assert poly_gcd(X + 1, Y + 1).is_constant()


def reference_pseudo_rem(a, b, i):
    """Pseudo-remainder of a by b in variable index i, on Fraction
    coefficients: the remainder sequence of poly_gcd before pseudo-division
    moved onto integer term dicts."""
    db = b.degree_in(i)
    lb = coeff_of_power(b, i, db)
    r = a
    while r.terms and r.degree_in(i) >= db:
        dr = r.degree_in(i)
        lr = coeff_of_power(r, i, dr)
        shift = [0] * len(a.vars)
        shift[i] = dr - db
        r = r * lb - b * lr.mul_monomial(tuple(shift))
    return r


def _to_sympy(sympy, p):
    gens = sympy.symbols(p.vars)
    total = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, x in zip(gens, e):
            term *= g**x
        total += term
    return total


def reference_restrict(terms, vars, new_vars):
    """restrict with one lookup per nonzero exponent of every term."""
    out = {}
    for e, c in terms.items():
        ne = [0] * len(new_vars)
        for i, x in enumerate(e):
            if x:
                if vars[i] not in new_vars:
                    raise ValueError(f"variable {vars[i]!r} in use, cannot drop")
                ne[new_vars.index(vars[i])] = x
        out[tuple(ne)] = c
    return out


class TestTermDictHelpers:
    """The integer-dict helpers under MultiPoly against plain references."""

    def test_restrict_terms_matches_reference(self):
        rng = random.Random(default_seed() + 21)
        pool = ("a", "b", "c", "d", "e")
        kinds = {"superset": 0, "subset": 0, "error": 0, "short": 0, "many terms": 0}
        for _ in range(400):
            vars = tuple(rng.sample(pool, rng.randint(0, 4)))
            # a few terms go term by term, six or more through reindexer
            size = rng.choice((4, 16))
            p = random_multipoly(rng, vars, max_degree=3, max_terms=size) if vars else MultiPoly.const((), 3)
            new_vars = tuple(rng.sample(pool, rng.randint(0, 5)))
            try:
                want = reference_restrict(p.terms, vars, new_vars)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    restrict_terms(p.terms, vars, new_vars)
                with pytest.raises(ValueError):
                    p.restrict(new_vars)
                kinds["error"] += 1
                continue
            got = restrict_terms(p.terms, vars, new_vars)
            assert list(got.items()) == list(want.items())
            assert p.restrict(new_vars).terms == want
            kinds["superset"] += set(vars) < set(new_vars)
            kinds["subset"] += set(new_vars) < set(vars)
            kinds["short"] += len(new_vars) < 2
            kinds["many terms"] += len(p.terms) >= 6
        assert min(kinds.values()) >= 10

    def test_sorted_exponents_is_the_term_order(self):
        rng = random.Random(default_seed() + 22)
        for _ in range(80):
            p = random_multipoly(rng, ("x", "y", "z"), max_degree=4, max_terms=8)
            want = sorted(p.terms, key=order_key(GREVLEX), reverse=True)
            assert sorted_exponents(p.terms) == want

    def test_mul_integer_terms_new_or_accumulated(self):
        a = {(1, 0): 2, (0, 1): -3}
        one = {(2, 1): 5}
        two = {(0, 0): 1, (1, 1): 1}
        for x, y in ((a, one), (one, a), (a, two), (two, a)):
            want = {}
            for e1, c1 in x.items():
                for e2, c2 in y.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1])
                    want[e] = want.get(e, 0) + c1 * c2
            assert mul_integer_terms(None, x, y) == want
            # into a dict the product is added, and entries that cancel are dropped
            out = {e: -c for e, c in want.items()}
            out[(9, 9)] = 1
            assert mul_integer_terms(out, x, y) is out
            assert out == {(9, 9): 1}
        # a product whose own terms cancel: (x + y)(x - y) = x^2 - y^2
        assert mul_integer_terms(None, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {
            (2, 0): 1,
            (0, 2): -1,
        }
        assert mul_integer_terms(None, a, {}) == {} and mul_integer_terms(None, {}, one) == {}

    def test_add_integer_products_reads_pairs_once(self):
        a = {(1, 0): 2, (0, 1): -3}
        b = {(0, 0): 1, (1, 1): 1}
        out = {(9, 9): 1}
        pairs = iter(list(a.items()))  # an iterator: a second pass would see nothing
        assert add_integer_products(out, pairs, b) is out
        assert out == {**mul_integer_terms(None, a, b), (9, 9): 1}
        # adding the negated product leaves only what was there before
        add_integer_products(out, ((e, -c) for e, c in a.items()), b)
        assert out == {(9, 9): 1}

    def test_primitive_terms_gives_the_content(self):
        rng = random.Random(default_seed() + 25)
        for _ in range(80):
            p = random_multipoly(rng, ("x", "y", "z"), max_degree=3, max_terms=5, allow_zero=False)
            if p.is_zero():
                continue
            den, t = multipoly.integer_terms(p.terms)
            le = p.leading()[0]
            prim, g = primitive_terms(t, le)
            assert {e: c * g for e, c in prim.items()} == t
            assert gcd(*prim.values()) == 1 and prim[le] > 0
            if g == 1:
                assert prim is t
            # gcd of numerators over lcm of denominators, signed by the lead
            nums = [c.numerator for c in p.terms.values()]
            want = Fraction(gcd(*nums), lcm(*[c.denominator for c in p.terms.values()]))
            want = want if p.terms[le] > 0 else -want
            assert p.content() == Fraction(g, den) == want
            assert p.primitive().terms == {e: Fraction(c) for e, c in prim.items()}

    def test_power_is_repeated_product(self):
        rng = random.Random(default_seed() + 26)
        calls = []

        def times(a, b):
            calls.append(1)
            return a * b

        for n in range(1, 20):
            calls.clear()
            assert power(3, n, times) == 3**n
            # square-and-multiply: at most two products per bit of n
            assert len(calls) <= 2 * (n.bit_length() - 1)
            p = random_multipoly(rng, SIG, max_degree=2, max_terms=3)
            want = MultiPoly.const(SIG, 1)
            for _ in range(n):
                want = want * p
            assert power(p, n, mul) == p**n == want
        p = X + 2 * Y
        assert power(p, 1, mul) is p and p**1 is p
        assert p**0 == MultiPoly.const(SIG, 1)
        with pytest.raises(ValueError):
            p ** -1

    def test_partial_terms_matches_partial(self):
        rng = random.Random(default_seed() + 27)
        sig = ("x", "y", "z")
        for _ in range(60):
            p = random_multipoly(rng, sig, max_degree=4, max_terms=6)
            for i in range(3):
                want = {}
                for e, c in p.terms.items():
                    if e[i]:
                        d = list(e)
                        d[i] -= 1
                        want[tuple(d)] = c * e[i]
                assert partial_terms(p.terms, i) == want
                assert p.partial(i).terms == want
                # on integer dicts the coefficients stay ints
                den, t = multipoly.integer_terms(p.terms)
                got = partial_terms(t, i)
                assert all(type(c) is int for c in got.values())
                assert {e: Fraction(c, den) for e, c in got.items()} == want

    def test_split_terms_matches_coefficients(self):
        rng = random.Random(default_seed() + 28)
        sig = ("x", "y", "z")
        for _ in range(60):
            p = random_multipoly(rng, sig, max_degree=4, max_terms=6)
            for k in range(4):
                got = split_terms(p.terms, k)
                # reassembled, the split is p; heads in first-seen order
                assert {h + e: c for h, part in got.items() for e, c in part.items()} == p.terms
                assert list(got) == list(dict.fromkeys(e[:k] for e in p.terms))
                coeffs = coefficients(p, k)
                assert list(coeffs) == list(got)
                assert all(coeffs[h].vars == sig[k:] and coeffs[h].terms == got[h] for h in got)

    def test_support_indices(self):
        rng = random.Random(default_seed() + 23)
        for _ in range(60):
            p = random_multipoly(rng, ("x", "y", "z", "w"), max_degree=2, max_terms=3)
            want = {i for e in p.terms for i, x in enumerate(e) if x}
            assert p.support_indices() == want

    def test_pseudo_divide_terms_is_pseudo_divide_on_ints(self):
        rng = random.Random(default_seed() + 24)
        sig = ("x", "y", "z")
        pack, unpack, _ = multipoly.packer(3, 8)
        for _ in range(40):
            i = rng.randrange(3)
            a = random_multipoly(rng, sig, max_degree=4, max_terms=5)
            b = random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False)
            if b.is_zero():
                continue
            den_a, A = multipoly.integer_terms(a.terms)
            den_b, B = multipoly.integer_terms(b.terms)
            A = {pack(x): c for x, c in A.items()}
            B = {pack(x): c for x, c in B.items()}
            e, Q, R, D, width = pseudo_divide_terms((den_a, A), (den_b, B), i, 3, 8)
            assert width == 8 and D % den_a == 0
            assert all(type(c) is int and c for c in (*Q.values(), *R.values()))
            e2, q, r = pseudo_divide(a, b, i)
            assert e == e2
            assert q.terms == {unpack(k): Fraction(c, D) for k, c in Q.items()}
            assert r.terms == {unpack(k): Fraction(c, D) for k, c in R.items()}


class TestPseudoDivisionAndGcd:
    SIG3 = ("x", "y", "z")

    def test_pseudo_divide_identity_and_reference(self):
        rng = random.Random(default_seed() + 11)
        steps = 0
        for _ in range(60):
            i = rng.randrange(3)
            a = random_multipoly(rng, self.SIG3, max_degree=5, max_terms=5)
            b = random_multipoly(rng, self.SIG3, max_degree=3, max_terms=3, allow_zero=False)
            if b.is_zero():
                continue
            e, q, r = pseudo_divide(a, b, i)
            d = b.degree_in(i)
            lc = coeff_of_power(b, i, d)
            assert lc**e * a == q * b + r
            assert r.degree_in(i) < d
            assert r == reference_pseudo_rem(a, b, i)
            steps += e
        assert steps >= 60

    def test_pseudo_divide_by_zero_is_an_error(self):
        zero = MultiPoly.zero(self.SIG3)
        x = MultiPoly.var(self.SIG3, "x")
        for a in (x * x + 1, zero):
            with pytest.raises(ZeroDivisionError, match="pseudo-division by the zero polynomial"):
                pseudo_divide(a, zero, 0)

    def test_poly_gcd_matches_sympy(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        calls = []

        def counting(a, b, i):
            calls.append(i)
            return pseudo_divide(a, b, i)

        # poly_gcd's remainder sequence looks the name up in its module
        monkeypatch.setattr(multipoly, "pseudo_divide", counting)
        rng = random.Random(default_seed() + 12)
        nontrivial = 0
        for _ in range(25):
            g, p, q = (
                random_multipoly(rng, self.SIG3, max_degree=2, max_terms=3, allow_zero=False)
                for _ in range(3)
            )
            a, b = g * p, g * q
            if a.is_zero() or b.is_zero():
                continue
            got = poly_gcd(a, b)
            assert got.is_zero() or got.leading()[1] == 1
            want = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
            ratio = sympy.cancel(want / _to_sympy(sympy, got))
            assert ratio != 0 and not ratio.free_symbols, (a, b, got, want)
            nontrivial += not got.is_constant()
        assert nontrivial >= 10
        assert len(calls) >= 10


    def test_gcd_and_lcm_with_zero(self):
        a = 2 * (X * X - Y * Y)
        zero = MultiPoly.zero(SIG)
        assert poly_gcd(zero, a) == poly_gcd(a, zero) == X * X - Y * Y
        assert poly_gcd(zero, zero) == zero
        assert poly_lcm(zero, a) == poly_lcm(a, zero) == zero

    def test_lcm_of_shared_factor(self):
        a, b = 2 * (X * X - Y * Y), 3 * (X + Y) ** 2
        want = X**3 + X * X * Y - X * Y * Y - Y**3
        assert poly_lcm(a, b) == poly_lcm(b, a) == want
        assert want == ((X + Y) ** 2 * (X - Y)).monic()


class TestRatFunc:
    def test_canonical_representatives(self):
        rng = random.Random(default_seed() + 2)
        done = 0
        while done < 30:
            p = random_multipoly(rng, SIG)
            q = random_multipoly(rng, SIG)
            r = random_multipoly(rng, SIG)
            if q.is_zero() or r.is_zero():
                continue
            assert RatFunc(p, q) == RatFunc(p * r, q * r)
            done += 1

    def test_denominator_is_monic(self):
        f = RatFunc(X, 2 * Y)
        assert f.den.leading()[1] == 1
        assert f == RatFunc(X.scale(Fraction(1, 2)), Y)

    def test_arith(self):
        f = RatFunc(X, Y)
        g = RatFunc(Y, X)
        assert f * g == RatFunc.from_const(SIG, 1)
        assert f + (-f) == RatFunc(MultiPoly.zero(SIG))
        assert (f / g) == RatFunc(X * X, Y * Y)


class TestLinalg:
    def test_nullspace_rank_one(self):
        m = ExactMatrix([[1, 1], [2, 2]])
        basis = nullspace(m)
        assert len(basis) == 1
        assert mul_vec(m, basis[0]) == [0, 0]
        v = basis[0]
        assert v[0] == -v[1]

    def test_nullspace_identity(self):
        assert nullspace(ExactMatrix([[1, 0], [0, 1]])) == []

    def test_nullspace_zero_matrix(self):
        basis = nullspace(ExactMatrix([[0, 0, 0], [0, 0, 0]]))
        assert len(basis) == 3

    def test_nullspace_random_exact(self):
        rng = random.Random(default_seed() + 3)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = ExactMatrix(
                [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            )
            basis = nullspace(m)
            for v in basis:
                assert all(x == 0 for x in mul_vec(m, v))
            assert len(basis) + rank(m) == cols

    def test_rational_eigen_diagonal(self):
        rep = rational_eigen(ExactMatrix([[1, 0], [0, 2]]))
        assert rep.complete
        assert [(ev, len(vs)) for ev, vs in rep.pairs] == [(1, 1), (2, 1)]

    def test_rational_eigen_rotation_flags_nonrational(self):
        rep = rational_eigen(ExactMatrix([[0, -1], [1, 0]]))
        assert rep.pairs == []
        assert not rep.complete
        assert "non-rational spectrum present" in rep.notes

    def test_rational_eigen_defective(self):
        rep = rational_eigen(ExactMatrix([[2, 1], [0, 2]]))
        assert len(rep.pairs) == 1
        ev, vecs = rep.pairs[0]
        assert ev == 2 and len(vecs) == 1

    def test_charpoly_monic(self):
        cp = charpoly(ExactMatrix([[1, 2], [3, 4]]))
        # X^2 - 5X - 2
        assert cp.terms == {(2,): Fraction(1), (1,): Fraction(-5), (0,): Fraction(-2)}

    def test_charpoly_three_by_three(self):
        cp = charpoly(ExactMatrix([[2, 1, 0], [0, 3, -1], [1, 0, 1]]))
        # X^3 - 6X^2 + 11X - 5
        assert dense_coeffs(cp) == [-5, 11, -6, 1]
        # a zero subdiagonal entry with a nonzero one below it: a row swap
        cp = charpoly(ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
        assert dense_coeffs(cp) == [0, -1, 0, 1]
        assert dense_coeffs(charpoly(ExactMatrix([]))) == [1]

    def test_charpoly_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(default_seed() + 6)
        lam = sympy.Symbol("lam")

        def entry():
            return rng.choice([Fraction(0)] * 2 + [random_fraction(rng)])

        for trial in range(36):
            n = rng.randint(1, 10)
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            shape = ("dense", "block", "zero_subdiagonal")[trial % 3]
            if shape == "block":
                # block upper triangular: the Darboux action matrices on a
                # graded basis have this shape
                cut = rng.randint(0, n)
                for i in range(cut, n):
                    for j in range(cut):
                        rows[i][j] = Fraction(0)
            elif shape == "zero_subdiagonal":
                for i in range(1, n):
                    rows[i][i - 1] = Fraction(0)
            want = sympy.Matrix(
                [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
            ).charpoly(lam).all_coeffs()
            got = dense_coeffs(charpoly(ExactMatrix(rows)))
            assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(want)]

    def test_eigen_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            rational_eigen(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


class TestFactor:
    def test_rational_roots(self):
        from delta_kernel.factor import rational_roots

        t = MultiPoly.var(("t",), "t")
        p = (t - 2) * (t - 2) * (2 * t + 1)
        roots = rational_roots(p)
        assert roots == [(Fraction(-1, 2), 1), (Fraction(2), 2)]

    def test_rational_roots_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from delta_kernel.factor import rational_roots

        rng = random.Random(default_seed() + 7)
        sig = ("t",)
        t = MultiPoly.var(sig, "t")
        T = sympy.Symbol("t")
        seen = {"zero root": 0, "repeated root": 0, "non-monic": 0}
        for _ in range(50):
            # linear factors (q t - p)^k, maybe t^k, times an integer cofactor
            p = MultiPoly.const(sig, rng.choice([1, -1, 2, 3, -4, 6, 12]))
            degree = 0
            for _ in range(rng.randint(0, 4)):
                k = rng.randint(1, 3)
                root = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                p = p * (root.denominator * t - root.numerator) ** k
                degree += k
            cofactor = random_multipoly(rng, sig, max_degree=12 - degree, max_terms=4)
            if not cofactor.is_zero():
                p = p * cofactor.scale(cofactor.content() ** -1 * rng.randint(1, 5))
            if p.total_degree() > 12 or p.total_degree() < 1:
                continue
            prim = p.primitive()
            expr = sum(
                (sympy.Integer(int(c)) * T ** e[0] for e, c in prim.terms.items()),
                sympy.Integer(0),
            )
            # no radical formulas: only the rational roots are compared
            want = sympy.roots(
                sympy.Poly(expr, T), filter="Q", cubics=False, quartics=False, quintics=False
            )
            got = rational_roots(p)
            assert got == sorted((Fraction(int(r.p), int(r.q)), m) for r, m in want.items())
            seen["zero root"] += any(r == 0 for r, _ in got)
            seen["repeated root"] += any(m > 1 for _, m in got)
            seen["non-monic"] += prim.leading()[1] != 1
        assert min(seen.values()) >= 5, seen

    def test_factor_univariate(self):
        from delta_kernel.factor import factor_univariate

        t = MultiPoly.var(("t",), "t")
        p = (t * t + 1) * (t - 3) * (t - 3)
        unit, factors = factor_univariate(p)
        assert unit == 1
        shapes = sorted((f.to_str(), m) for f, m in factors)
        assert shapes == [("t - 3", 2), ("t^2 + 1", 1)]

    def test_factor_quartic_product_of_quadratics(self):
        from delta_kernel.factor import factor_univariate

        t = MultiPoly.var(("t",), "t")
        p = (t * t + 1) * (t * t + 2)
        unit, factors = factor_univariate(p)
        assert unit == 1
        assert sorted(f.to_str() for f, _ in factors) == ["t^2 + 1", "t^2 + 2"]

    def test_irreducible_quartic(self):
        from delta_kernel.factor import factor_univariate

        t = MultiPoly.var(("t",), "t")
        p = t ** 4 + t + 1  # no rational roots, no quadratic factors over Q
        unit, factors = factor_univariate(p)
        assert len(factors) == 1 and factors[0][1] == 1

    def test_factor_univariate_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from delta_kernel.factor import factor_univariate

        rng = random.Random(default_seed() + 8)
        sig = ("t",)
        t = MultiPoly.var(sig, "t")
        T = sympy.Symbol("t")
        seen = {"repeated": 0, "nonlinear factor": 0, "several factors": 0}
        for _ in range(30):
            # a unit times random factors of degree 1 to 3 with multiplicities
            p = MultiPoly.const(sig, Fraction(rng.choice([1, -1, 2, 3, -6]), rng.choice([1, 2, 5])))
            while p.total_degree() < 6:
                deg = rng.choice([1, 1, 2, 2, 3])
                f = t**deg + random_multipoly(rng, sig, max_degree=deg - 1, max_terms=3)
                if rng.random() < 0.3:
                    f = f.scale(rng.choice([2, 3, Fraction(1, 2)]))
                p = p * f ** rng.choice([1, 1, 2])
            if p.total_degree() > 8:
                continue
            unit, factors = factor_univariate(p)
            expr = sum(
                (sympy.Rational(c.numerator, c.denominator) * T ** e[0] for e, c in p.terms.items()),
                sympy.Integer(0),
            )
            coeff, want = sympy.factor_list(expr, T)
            want_monic = sorted(
                (tuple(Fraction(int(c.p), int(c.q)) for c in sympy.Poly(f, T).monic().all_coeffs()), m)
                for f, m in want
            )
            got = sorted(
                (tuple(reversed(dense_coeffs(f))), m) for f, m in factors
            )
            assert got == want_monic
            assert unit == p.leading()[1]
            assert all(f.leading()[1] == 1 for f, _ in factors)
            seen["repeated"] += any(m > 1 for _, m in factors)
            seen["nonlinear factor"] += any(f.total_degree() > 1 for f, _ in factors)
            seen["several factors"] += len(factors) > 1
        assert min(seen.values()) >= 5, seen


def _simplex_reference(m, t):
    """The recursive simplex enumerator exponents_upto replaced; its order
    fixes the provenance order of prolonged generators."""
    if m == 1:
        for x in range(t + 1):
            yield (x,)
        return
    for x in range(t + 1):
        for rest in _simplex_reference(m - 1, t - x):
            yield (x,) + rest


class TestMonomialsAndDenseViews:
    def test_exponents_upto_count_and_order(self):
        for n in range(1, 5):
            for d in range(6):
                got = list(exponents_upto(n, d))
                assert len(got) == comb(n + d, d)
                assert got == list(_simplex_reference(n, d))
                assert all(sum(e) <= d for e in got)
                # the layer of degree exactly d, in the same order
                assert list(exponents_of_degree(n, d)) == [e for e in got if sum(e) == d]

    def test_monomials_are_sorted_exponents(self):
        for n in range(0, 5):
            for d in range(5):
                got = monomials(n, d)
                assert got == sorted(exponents_upto(n, d), key=order_key(GREVLEX), reverse=True)
                assert got == sorted_exponents(exponents_upto(n, d))
                assert len(got) == comb(n + d, d)
        assert monomials(2, 1) == [(1, 0), (0, 1), (0, 0)]

    def test_dense_roundtrip_random(self):
        rng = random.Random(default_seed() + 4)
        for _ in range(30):
            i = rng.randrange(len(SIG))
            p = random_multipoly(rng, (SIG[i],), max_degree=5).restrict(SIG)
            coeffs = dense_coeffs(p, i)
            assert len(coeffs) == p.degree_in(i) + 1
            assert from_dense(coeffs, SIG, i) == p

    def test_interpolate_known_cubic(self):
        cubic = [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(2)]
        for xs in ([0, 1, 2, 3], [-2, Fraction(1, 3), 5, 7, 11, -4]):
            points = [(x, horner(cubic, x)) for x in xs]
            assert interpolate(points) == cubic
        assert interpolate([(1, 0), (2, 0)]) == [0]
