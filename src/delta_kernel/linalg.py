"""Exact linear algebra over Q or over rational-function fields.

Entries only need field arithmetic (+, -, *, /) and truthiness for the zero
test, so Fraction and RatFunc both work.  Eigen computations are restricted
to Fraction matrices and report rational eigenvalues only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .factor import rational_roots
from .multipoly import from_dense, interpolate


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries", "one")

    def __init__(self, entries, one=Fraction(1)):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows have unequal length")
        self.one = one

    @classmethod
    def zero(cls, rows, cols, one=Fraction(1)):
        z = one - one
        return cls([[z] * cols for _ in range(rows)], one)

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        m = cls.zero(n, n, one)
        for i in range(n):
            m.entries[i][i] = one
        return m

    def copy(self):
        return ExactMatrix(self.entries, self.one)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def mul_vec(self, v):
        return [
            sum((row[j] * v[j] for j in range(self.cols)), self.one - self.one)
            for row in self.entries
        ]

    def __repr__(self):
        return f"ExactMatrix({self.entries!r})"


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = [row[:] for row in m.entries]
    zero = m.one - m.one
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
    out = ExactMatrix.zero(m.rows, m.cols, m.one)
    out.entries = a
    return out, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right kernel; empty list when the kernel is trivial.

    Each vector v satisfies m.mul_vec(v) == 0 exactly, and the basis size is
    cols - rank(m).
    """
    red, pivots = rref(m)
    zero = m.one - m.one
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = m.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(v)
    return basis


def det(m):
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in m.entries]
    n = m.rows
    zero = m.one - m.one
    sign = m.one
    acc = m.one
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        acc = acc * a[c][c]
        inv = m.one / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * acc


def charpoly(m):
    """Monic characteristic polynomial det(X*I - M) as a univariate MultiPoly.

    Fraction entries only.  Computed by exact interpolation: n+1 determinant
    evaluations at X = 0..n.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    values = []
    for x in range(n + 1):
        shifted = ExactMatrix(
            [
                [
                    (Fraction(x) if i == j else Fraction(0)) - m.entries[i][j]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        values.append(det(shifted))
    return from_dense(interpolate(list(enumerate(values))), ("X",))


@dataclass
class EigenReport:
    """Rational eigen data; irrational or complex eigenvalues are omitted."""

    pairs: list = field(default_factory=list)  # (eigenvalue, eigenvector basis)
    complete: bool = True
    notes: list = field(default_factory=list)


def rational_eigen(m):
    """All rational eigenvalues with nullspace bases of M - lambda*I.

    Non-rational spectrum is flagged in the report, never approximated.
    """
    if m.rows != m.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    for row in m.entries:
        for x in row:
            if not isinstance(x, (Fraction, int)):
                raise TypeError("rational_eigen expects a matrix over Q")
    n = m.rows
    cp = charpoly(m)
    report = EigenReport()
    found_mult = 0
    for root, mult in rational_roots(cp):
        shifted = ExactMatrix(
            [
                [m.entries[i][j] - (root if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        report.pairs.append((root, nullspace(shifted)))
        found_mult += mult
    if found_mult < n:
        report.complete = False
        report.notes.append("non-rational spectrum present")
    report.pairs.sort(key=lambda p: p[0])
    return report


def stack(matrices):
    """Vertical stack of matrices with equal column counts."""
    cols = matrices[0].cols
    if any(m.cols != cols for m in matrices):
        raise ValueError("column mismatch in stack")
    rows = []
    for m in matrices:
        rows.extend(row[:] for row in m.entries)
    return ExactMatrix(rows, matrices[0].one)
