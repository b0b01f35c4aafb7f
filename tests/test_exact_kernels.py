"""The two exact kernels under the eigen path, against sympy.

`rational_spectrum` and `rational_eigen` read the spectrum off the diagonal
blocks of the strongly connected components of a matrix; the oracle is the
characteristic polynomial of the whole matrix, factored by sympy, on block
triangular matrices hidden by a random simultaneous permutation of rows and
columns.  `factor_univariate` runs on dense integer coefficient lists; the
oracle is sympy's `factor_list`.  The gcd on those lists, which
`poly_gcd`'s univariate case shares, is checked against sympy's `gcd`.  The
work guards pin the block sizes that the Darboux action matrices of degree
<= 1 fields hand to `charpoly`.
"""

import random
from fractions import Fraction

import pytest

from delta_kernel import linalg
from delta_kernel.dvariety import DSpec, darboux_search_eigen
from delta_kernel.factor import factor_univariate, rational_roots
from delta_kernel.linalg import ExactMatrix, _diagonal_blocks, rational_eigen, rational_spectrum
from delta_kernel.multipoly import MultiPoly, _poly_gcd, dense_coeffs, poly_gcd

from conftest import default_seed, random_fraction, random_multipoly

# 2 x 2 blocks with no rational eigenvalue: +-i*sqrt(2), +-sqrt(2), the
# golden ratio and its conjugate
IRRATIONAL_BLOCKS = ([[0, -2], [1, 0]], [[0, 2], [1, 0]], [[1, 1], [1, 0]])


def _rational_block(rng):
    """A 2 x 2 block with both off-diagonal entries nonzero and a rational
    spectrum: S diag(d1, d2) S^-1 with S unimodular, or the defective
    [[d + 1, 1], [-1, d - 1]] with the double eigenvalue d."""
    d1 = random_fraction(rng, 3)
    if rng.random() < 0.3:
        return [[d1 + 1, Fraction(1)], [Fraction(-1), d1 - 1]]
    d2 = d1 + rng.choice([1, -1, Fraction(1, 2), 3])
    a, b = rng.choice([1, 2]), rng.choice([1, 2, -3])  # 1 + ab != 0
    s, s_inv = [[1, a], [b, 1 + a * b]], [[1 + a * b, -a], [-b, 1]]
    sd = [[s[i][j] * (d1, d2)[j] for j in range(2)] for i in range(2)]
    return [[sum(sd[i][k] * s_inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _hidden_block_triangular(rng, irrational=True):
    """(matrix, blocks): a block upper triangular matrix with its rows and
    columns permuted by one random permutation, and the index sets of its
    diagonal blocks after the permutation.  Without irrational, every
    eigenvalue is rational."""
    kinds = ["scalar", "scalar", "repeat", "rational"] + ["irrational", "dense"] * irrational
    blocks = []
    while sum(len(b) for b in blocks) < 7:
        kind = rng.choice(kinds)
        if kind == "scalar":
            blocks.append([[random_fraction(rng, 3)]])
        elif kind == "repeat" and blocks:
            blocks.append([row[:] for row in rng.choice(blocks)])
        elif kind == "rational":
            blocks.append(_rational_block(rng))
        elif kind == "irrational":
            blocks.append([[Fraction(x) for x in row] for row in rng.choice(IRRATIONAL_BLOCKS)])
        elif kind == "dense":
            k = rng.randint(2, 3)
            blocks.append([[random_fraction(rng, 3) or Fraction(1) for _ in range(k)] for _ in range(k)])
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    starts, at = [], 0
    for b in blocks:
        starts.append(at)
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        # above the block: sparse noise that keeps the form triangular
        for i in range(at):
            for j in range(at, at + len(b)):
                if rng.random() < 0.4:
                    m[i][j] = random_fraction(rng, 3)
        at += len(b)
    perm = list(range(n))
    rng.shuffle(perm)
    # row/column perm[i] of the hidden matrix is row/column i of m
    where = {old: new for new, old in enumerate(perm)}
    hidden = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    parts = [
        sorted(where[s + i] for i in range(len(b))) for s, b in zip(starts, blocks)
    ]
    return hidden, parts


def _sym(sympy, rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])


def _sympy_rational_spectrum(sympy, sm):
    """{root: multiplicity} from the linear factors of sympy's factorization
    of the characteristic polynomial of the whole matrix."""
    lam = sympy.Symbol("lam")
    _, factors = sympy.factor_list(sm.charpoly(lam).as_expr(), lam)
    out = {}
    for f, mult in factors:
        poly = sympy.Poly(f, lam)
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            root = -b / a
            out[Fraction(int(root.p), int(root.q))] = mult
    return out


def test_diagonal_blocks_are_block_triangular():
    rng = random.Random(default_seed() + 40)
    for _ in range(40):
        m, parts = _hidden_block_triangular(rng)
        blocks = _diagonal_blocks(ExactMatrix(m))
        assert sorted(i for b in blocks for i in b) == list(range(len(m)))
        # an entry m[i][j] leads from i's block to j's block or an earlier one
        block_of = {i: k for k, b in enumerate(blocks) for i in b}
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x:
                    assert block_of[j] <= block_of[i]
        # every generated block is 1 x 1 or has no zero off its diagonal:
        # each is strongly connected
        assert sorted(blocks) == sorted(parts)


def test_rational_spectrum_and_eigenspaces_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 41)
    seen = {"irrational": 0, "complete": 0, "summed": 0, "larger block": 0}
    for trial in range(30):
        m, parts = _hidden_block_triangular(rng, irrational=trial % 2)
        sm = _sym(sympy, m)
        want = _sympy_rational_spectrum(sympy, sm)
        assert rational_spectrum(ExactMatrix(m)) == want
        report = rational_eigen(ExactMatrix(m))
        assert [ev for ev, _ in report.pairs] == sorted(want)
        assert report.complete == (sum(want.values()) == len(m))
        for ev, vecs in report.pairs:
            kernel = (sm - sympy.Rational(ev.numerator, ev.denominator) * sympy.eye(len(m))).nullspace()
            assert len(vecs) == len(kernel)
            assert _sym(sympy, vecs).rref()[0] == sympy.Matrix.hstack(*kernel).T.rref()[0]
        seen["irrational"] += not report.complete
        seen["complete"] += report.complete
        per_block = [
            _sympy_rational_spectrum(sympy, _sym(sympy, [[m[i][j] for j in b] for i in b]))
            for b in parts
        ]
        # one eigenvalue from two blocks; a rational root of a larger block
        seen["summed"] += any(sum(ev in s for s in per_block) > 1 for ev in want)
        seen["larger block"] += any(len(b) > 1 and s for b, s in zip(parts, per_block))
    assert min(seen.values()) >= 3, seen


def test_eigen_of_edge_shapes():
    # empty, triangular with a repeated diagonal entry, and an irrational
    # block below a rational one
    assert rational_eigen(ExactMatrix([])).complete
    rep = rational_eigen(ExactMatrix([[3, 1, 5], [0, 3, 0], [0, 0, 3]]))
    assert rational_spectrum(ExactMatrix([[3, 1, 5], [0, 3, 0], [0, 0, 3]])) == {3: 3}
    assert rep.complete and [(ev, len(vs)) for ev, vs in rep.pairs] == [(3, 2)]
    m = ExactMatrix([[1, 7, 7], [0, 0, -2], [0, 1, 0]])
    assert rational_spectrum(m) == {1: 1}
    assert not rational_eigen(m).complete


def _factor_inputs(rng, t):
    """Random products over Q with a power of t, repeated factors, and pairs
    of quadratics without rational roots that only Kronecker can split."""
    def quadratic():
        while True:
            b, c = rng.randint(-3, 3), rng.randint(-5, 5)
            disc = b * b - 4 * c
            if disc < 0 or int(disc**0.5) ** 2 != disc:
                return t * t + b * t + c

    for trial in range(40):
        p = MultiPoly.const(("t",), Fraction(rng.choice([1, -1, 2, 3, -6]), rng.choice([1, 2, 5])))
        p = p * t ** rng.choice([0, 0, 1, 2, 4])
        if trial % 2:
            # a quartic (or sextic) with no rational root, squarefree
            for _ in range(rng.choice([2, 2, 3])):
                p = p * quadratic()
        for _ in range(rng.randint(0, 2)):
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = p * (root.denominator * t - root.numerator) ** rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            p = p * quadratic() ** 2
        if p.total_degree() >= 1:
            yield p


def test_factor_univariate_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 42)
    t = MultiPoly.var(("t",), "t")
    T = sympy.Symbol("t")
    seen = {"power of t": 0, "repeated": 0, "kronecker split": 0}
    for p in _factor_inputs(rng, t):
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
        assert sorted((tuple(reversed(dense_coeffs(f))), m) for f, m in factors) == want_monic
        assert unit == p.leading()[1]
        assert all(f.leading()[1] == 1 for f, _ in factors)
        assert factors == sorted(factors, key=lambda fm: (fm[0].total_degree(), fm[0].to_str()))
        seen["power of t"] += any(f.to_str() == "t" and m > 1 for f, m in factors)
        seen["repeated"] += any(m > 1 and f.total_degree() > 1 for f, m in factors)
        seen["kronecker split"] += sum(1 for f, m in factors if f.total_degree() == 2 and m == 1) >= 2
    assert min(seen.values()) >= 5, seen


def test_factor_univariate_edge_inputs():
    t = MultiPoly.var(("t",), "t")
    assert factor_univariate(3 * t**4) == (3, [(t, 4)])
    # irreducible over Q though it splits modulo every prime
    unit, factors = factor_univariate(t**4 - 10 * t**2 + 1)
    assert unit == 1 and [(f.to_str(), m) for f, m in factors] == [("t^4 - 10*t^2 + 1", 1)]
    unit, factors = factor_univariate((t**2 - 2) * (t**2 - 3) * t)
    assert [f.to_str() for f, _ in factors] == ["t", "t^2 - 2", "t^2 - 3"]
    # a constant has no root and no factor, over the empty signature too
    for sig in ((), ("t",)):
        for c in (3, Fraction(-1, 2)):
            assert rational_roots(MultiPoly.const(sig, c)) == []
            assert factor_univariate(MultiPoly.const(sig, c)) == (c, [])


def _integer_list(poly):
    """A sympy Poly over ZZ as a dense list, constant term first; 0 is []."""
    return [] if poly.is_zero else [int(c) for c in reversed(poly.all_coeffs())]


def test_dense_integer_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(default_seed() + 43)

    def random_poly(degree):
        # any sign on every coefficient, the leading one included
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 4])]
        return sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")

    zero = sympy.Poly(0, X, domain="ZZ")
    pairs = [(zero, zero), (zero, random_poly(2)), (random_poly(0), zero), (random_poly(0), random_poly(0))]
    pairs += [(random_poly(0), random_poly(3)) for _ in range(5)]
    for _ in range(40):
        g = random_poly(rng.randint(0, 3))
        scale = sympy.Poly(rng.choice([1, 2, -3, 6]), X, domain="ZZ")
        pairs.append((g * random_poly(rng.randint(0, 3)) * scale, g * random_poly(rng.randint(0, 3))))
    for _ in range(15):
        pairs.append((random_poly(rng.randint(1, 4)), random_poly(rng.randint(1, 4))))
    nontrivial = 0
    for a, b in pairs:
        got = _poly_gcd(_integer_list(a), _integer_list(b))
        want = a.gcd(b)
        if not want.is_zero:
            # the primitive part, leading coefficient positive
            want = want.primitive()[1]
            want = -want if want.LC() < 0 else want
        assert got == _integer_list(want), (a, b)
        nontrivial += len(got) > 1
    assert nontrivial >= 20


def test_univariate_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = MultiPoly.var(("x",), "x")
    assert poly_gcd(2 * x + 4, 3 * x + 6) == x + 2
    assert poly_gcd(Fraction(1, 2) * x**2 - 2, Fraction(-3, 4) * x - Fraction(3, 2)) == x + 2
    X = sympy.Symbol("x")
    sig = ("w", "x")  # univariate in the second variable
    rng = random.Random(default_seed() + 44)
    nontrivial = 0
    for _ in range(40):
        g, p, q = (
            random_multipoly(rng, ("x",), max_degree=4, max_terms=4, allow_zero=False)
            for _ in range(3)
        )
        a, b = g * p * random_fraction(rng, 4), g * q * random_fraction(rng, 4)
        if a.is_zero() or b.is_zero() or a.is_constant() or b.is_constant():
            continue
        got = poly_gcd(a.restrict(sig), b.restrict(sig))
        assert got.vars == sig and got.leading()[1] == 1
        A, B = (sympy.Poly(list(reversed(dense_coeffs(f))), X, domain="QQ") for f in (a, b))
        want = A.gcd(B).monic()
        assert tuple(reversed(dense_coeffs(got, 1))) == tuple(
            Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()
        ), (a, b)
        nontrivial += not got.is_constant()
    assert nontrivial >= 10


def _charpoly_sizes(monkeypatch):
    sizes = []
    charpoly = linalg.charpoly

    def recording(m):
        sizes.append(m.rows)
        return charpoly(m)

    monkeypatch.setattr(linalg, "charpoly", recording)
    return sizes


def test_euler_action_needs_no_characteristic_polynomial(monkeypatch):
    """Euler's field is diagonal on monomials: at degree 10 its 66 x 66
    action matrix splits into 1 x 1 blocks, so charpoly is never called on a
    matrix larger than 1 x 1 (the whole matrix's had degree 66)."""
    sizes = _charpoly_sizes(monkeypatch)
    sig = ("x1", "x2")
    x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
    darboux_search_eigen(DSpec(2, 1, [[Fraction(-1, 2) * x1, -x2]]), 10)
    assert all(n <= 1 for n in sizes), sizes


def test_rotation_blocks_are_homogeneous_pieces(monkeypatch):
    """The rotation maps each homogeneous degree k into itself: at degree 6
    charpoly sees blocks of k + 1 <= 7 rows, never the 28 x 28 matrix."""
    sizes = _charpoly_sizes(monkeypatch)
    sig = ("x1", "x2")
    x1, x2 = MultiPoly.var(sig, "x1"), MultiPoly.var(sig, "x2")
    darboux_search_eigen(DSpec(2, 1, [[Fraction(-2, 3) * x2, x1]]), 6)
    assert sizes and max(sizes) <= 7, sizes
