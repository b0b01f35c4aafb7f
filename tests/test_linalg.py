"""The sparse row echelon form against the dense Gauss-Jordan elimination
it replaced.

`reference_rref` is rref as it was when rows were dense lists: every entry
of every row was scaled and every entry of every other row was updated per
pivot.  The pivots and every entry of the reduced form must be the same,
on Fraction matrices and on the RatFunc matrices that exterior.k_solve
builds.
"""

import random
from fractions import Fraction

import pytest

from delta_kernel import exterior, linalg
from delta_kernel.dvariety import DSpec
from delta_kernel.exterior import ExtVector
from delta_kernel.groebner import GREVLEX, order_key
from delta_kernel.linalg import ExactMatrix, nullspace, rank, rational_eigen, rref, shifted
from delta_kernel.multipoly import MultiPoly, exponents_upto
from delta_kernel.ratfunc import RatFunc

from conftest import default_seed, mul_vec, random_fraction
from test_dvariety import reference_action_matrix


def reference_rref(m):
    a = [row[:] for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = m.one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return ExactMatrix(a, m.one), pivots


def assert_matches_reference(m):
    got, pivots = rref(m)
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for got_row, want_row in zip(got.entries, want.entries):
        assert len(got_row) == len(want_row)
        for x, y in zip(got_row, want_row):
            assert x == y
    assert rank(m) == len(pivots)
    kernel = nullspace(m)
    assert len(kernel) == m.cols - len(pivots)
    for v in kernel:
        assert not any(mul_vec(m, v))


# ---------- seeded Fraction matrices ----------


def _seeded_matrix(rng, shape):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    if shape == "wide":
        cols = rows + rng.randint(1, 5)
    elif shape == "tall":
        rows = cols + rng.randint(1, 5)
    sparse = rng.random() < 0.5

    def entry():
        return Fraction(0) if sparse and rng.random() < 0.6 else random_fraction(rng)

    if shape == "rank_deficient":
        # a product of a rows x k and a k x cols matrix, k below both
        k = rng.randint(0, min(rows, cols) - 1) if min(rows, cols) > 1 else 0
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        a = [
            [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
            for i in range(rows)
        ]
    else:
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if shape == "zero_lines":
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            a[i] = [Fraction(0)] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in a:
                row[j] = Fraction(0)
    elif shape == "duplicate_rows":
        for _ in range(rng.randint(1, 3)):
            src = rng.randrange(rows)
            scale = rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
            a.append([x * scale for x in a[src]])
        rng.shuffle(a)
    return ExactMatrix(a)


SHAPES = ["dense", "zero_lines", "duplicate_rows", "rank_deficient", "wide", "tall"]


@pytest.mark.parametrize("shape", SHAPES)
def test_seeded_fraction_matrices(shape):
    rng = random.Random(default_seed() + 90 + SHAPES.index(shape))
    deficient = 0
    for _ in range(40):
        m = _seeded_matrix(rng, shape)
        assert_matches_reference(m)
        deficient += rank(m) < min(m.rows, m.cols)
    if shape in ("zero_lines", "duplicate_rows", "rank_deficient"):
        assert deficient >= 20


def test_degenerate_shapes():
    for m in (
        ExactMatrix([]),
        ExactMatrix([[], []]),
        ExactMatrix([[Fraction(0)] * 3]),
        ExactMatrix([[Fraction(0)], [Fraction(0)]]),
        ExactMatrix([[0, 2], [1, 0]]),
    ):
        assert_matches_reference(m)


# ---------- Darboux action matrices shifted by their eigenvalues ----------

SIG = ("x1", "x2")
X = MultiPoly.var(SIG, "x1")
Y = MultiPoly.var(SIG, "x2")
FIELDS = {
    "rot": lambda: DSpec(2, 1, [[-Y, X]]),
    "shear": lambda: DSpec(2, 1, [[MultiPoly.const(SIG, 1), Y]]),
    "euler": lambda: DSpec(2, 1, [[X, 2 * Y]]),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_action_matrices_shifted_by_each_eigenvalue(name):
    spec = FIELDS[name]()
    shifts = 0
    for d in range(1, 7):
        monos = sorted(exponents_upto(2, d), key=order_key(GREVLEX), reverse=True)
        a = reference_action_matrix(spec, 0, monos)
        assert_matches_reference(a)
        for ev, _ in rational_eigen(a).pairs:
            assert_matches_reference(shifted(a, ev))
            shifts += 1
    assert shifts >= 6


# ---------- RatFunc matrices as k_solve builds them ----------


def test_ratfunc_matrices_from_k_solve(monkeypatch):
    tsig = ("t",)
    t = RatFunc(MultiPoly.var(tsig, "t"))
    rng = random.Random(default_seed() + 97)
    seen = []

    def recording(m):
        seen.append(m)
        return rref(m)

    # k_solve imports rref from linalg when it runs
    monkeypatch.setattr(linalg, "rref", recording)

    def entry():
        if rng.random() < 0.4:
            return None
        return (t * rng.randint(-3, 3) + rng.randint(-2, 2)) / (t + rng.randint(1, 3))

    def vector(dim):
        coeffs = {}
        for i in range(1, dim + 1):
            c = entry()
            if c is not None and not c.is_zero():
                coeffs[(i,)] = c
        return ExtVector(dim, 1, coeffs)

    solved = 0
    for _ in range(12):
        dim = rng.randint(2, 4)
        targets = [vector(dim) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a vector in the span: t * first target + second target
            v = targets[0].scaled(t)
            if len(targets) > 1:
                v = v + targets[1]
        else:
            v = vector(dim)
        coeffs = exterior.k_solve(targets, v, tsig)
        solved += coeffs is not None
    assert len(seen) == 12 and solved >= 3
    for m in seen:
        assert isinstance(m.one, RatFunc)
        assert_matches_reference(m)
