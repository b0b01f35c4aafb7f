"""Exact linear algebra over Q or over rational-function fields.

Entries only need field arithmetic (+, -, *, /) and truthiness for the zero
test, so Fraction and RatFunc both work.  Row reduction keeps each row as a
dict of its nonzero entries and touches only those.  Eigen computations are
restricted to Fraction matrices and report rational eigenvalues only; they
split the matrix into the diagonal blocks of its strongly connected
components first, so a triangular or block-diagonal matrix (the action of
a field of degree <= 1 on a degree filtration) never meets a large
characteristic polynomial.
"""

from fractions import Fraction

from .factor import rational_roots
from .multipoly import from_dense


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries", "one")

    def __init__(self, entries, one=Fraction(1)):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows have unequal length")
        self.one = one

    def copy(self):
        return ExactMatrix(self.entries, self.one)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"ExactMatrix({self.entries!r})"


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    rows, pivots = _echelon(m)
    zero = m.one - m.one
    return ExactMatrix([[row.get(j, zero) for j in range(m.cols)] for row in rows], m.one), pivots


def _echelon(m):
    """(rows, pivots): the rows of the reduced row echelon form of m as dicts
    from column to nonzero entry, and the pivot columns.

    Gauss-Jordan on sparse rows: the pivot of column c is the first row at
    or below the current one that holds c, a row is scaled on its own
    entries, and clearing c from another row touches only the columns of
    the pivot row.  The reduced echelon form of a matrix is unique and every
    entry is an exact field element, so the result is the dense
    elimination's, entry for entry.
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = m.one / rows[r][c]
        top = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, y in top.items():
                x = row.get(j)
                x = -(f * y) if x is None else x - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def rank(m):
    return len(_echelon(m)[1])


def nullspace(m):
    """Basis of the right kernel; empty list when the kernel is trivial.

    Each vector v satisfies sum(row[j] * v[j]) == 0 exactly for every row of
    m, and the basis size is cols - rank(m).
    """
    rows, pivots = _echelon(m)
    zero = m.one - m.one
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [zero] * m.cols
        v[fc] = m.one
        for row, pc in zip(rows, pivots):
            v[pc] = -row.get(fc, zero)
        basis.append(v)
    return basis


def charpoly(m):
    """Monic characteristic polynomial det(X*I - M) as a univariate MultiPoly.

    Fraction entries only.  M is brought to upper Hessenberg form H by
    similarity transforms (row operations each matched by the inverse column
    operation), then the characteristic polynomials p_k of the leading k x k
    blocks of H follow from

        p_k = (X - h_kk) p_(k-1) - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) p_(i-1)

    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9):
    O(n^3) field operations, no determinant.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    h = [[Fraction(x) for x in row] for row in m.entries]
    for c in range(n - 2):
        # clear column c below the subdiagonal, pivoting on row c + 1
        piv = next((i for i in range(c + 1, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top = h[c + 1]
        for i in range(c + 2, n):
            if not h[i][c]:
                continue
            u = h[i][c] / top[c]
            row_i = h[i]
            for j in range(c, n):
                if top[j]:
                    row_i[j] -= u * top[j]
            for row in h:
                if row[i]:
                    row[c + 1] += u * row[i]
    # polys[k]: dense characteristic polynomial of the leading k x k block
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[k]
        p = [Fraction(0)] + prev
        for d, c in enumerate(prev):
            p[d] -= h[k][k] * c
        t = Fraction(1)
        for i in range(k, 0, -1):
            t *= h[i][i - 1]
            if not t:
                break
            coef = h[i - 1][k] * t
            if coef:
                for d, c in enumerate(polys[i - 1]):
                    p[d] -= coef * c
        polys.append(p)
    return from_dense(polys[n], ("X",))


class EigenReport:
    """Rational eigen data; irrational or complex eigenvalues are omitted."""

    __slots__ = ("pairs", "complete", "notes")

    def __init__(self, pairs=None, complete=True, notes=None):
        self.pairs = [] if pairs is None else pairs  # (eigenvalue, eigenvector basis)
        self.complete = complete
        self.notes = [] if notes is None else notes


def rational_eigen(m):
    """All rational eigenvalues with nullspace bases of M - lambda*I.

    Each distinct eigenvalue of rational_spectrum gets the nullspace of the
    whole M - lambda*I.  Non-rational spectrum is flagged in the report,
    never approximated.
    """
    mults = rational_spectrum(m)
    report = EigenReport()
    for root in sorted(mults):
        report.pairs.append((root, nullspace(shifted(m, root))))
    if sum(mults.values()) < m.rows:
        report.complete = False
        report.notes.append("non-rational spectrum present")
    return report


def rational_spectrum(m):
    """{eigenvalue: algebraic multiplicity} for the rational eigenvalues of
    a square matrix over Q.

    The eigenvalues are those of the diagonal blocks (see _diagonal_blocks):
    a 1 x 1 block's is its entry, a larger block's are the rational roots of
    its characteristic polynomial, and multiplicities add up over the blocks.
    """
    if m.rows != m.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    for row in m.entries:
        for x in row:
            if not isinstance(x, (Fraction, int)):
                raise TypeError("rational_eigen expects a matrix over Q")
    mults = {}
    for block in _diagonal_blocks(m):
        if len(block) == 1:
            (i,) = block
            roots = [(Fraction(m.entries[i][i]), 1)]
        else:
            sub = ExactMatrix([[m.entries[i][j] for j in block] for i in block])
            roots = rational_roots(charpoly(sub))
        for root, mult in roots:
            mults[root] = mults.get(root, 0) + mult
    return mults


def _diagonal_blocks(m):
    """Index lists of the strongly connected components of the graph on the
    rows of the square matrix m with an edge i -> j for each nonzero
    off-diagonal m[i][j], in the order Tarjan's algorithm (SIAM J. Comput.
    1972) closes them; here it runs on an explicit stack.

    The components' graph is acyclic, so listing the indices component by
    component, in that order, permutes m (rows and columns alike) to block
    triangular form: the spectrum of m is the union of the spectra of the
    blocks m[b][b], with multiplicities.
    """
    n = m.rows
    succ = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(m.entries)]
    index, low = [None] * n, [0] * n
    on_stack = [False] * n
    stack, blocks = [], []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]  # (vertex, next successor to look at)
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            edges = succ[v]
            while pos < len(edges):
                w = edges[pos]
                pos += 1
                if index[w] is None:
                    work.append((v, pos))
                    work.append((w, 0))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every successor of v is done: close its component if v is the root
                if low[v] == index[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        block.append(w)
                        if w == v:
                            break
                    blocks.append(sorted(block))
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return blocks


def shifted(m, c):
    """M - c*I for a square matrix: the rows copied, c taken off the diagonal."""
    out = m.copy()
    for i, row in enumerate(out.entries):
        row[i] -= c
    return out


def stack(matrices):
    """Vertical stack of matrices with equal column counts."""
    cols = matrices[0].cols
    if any(m.cols != cols for m in matrices):
        raise ValueError("column mismatch in stack")
    rows = []
    for m in matrices:
        rows.extend(row[:] for row in m.entries)
    return ExactMatrix(rows, matrices[0].one)
