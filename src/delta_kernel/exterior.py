"""Exterior algebra over an exact field, with executable instances of the
two linear-algebra lemmas behind the finiteness arguments.

A vector stores its terms as a map from support bitmasks to field elements:
the basis form e_{i1} ^ ... ^ e_{ik} (i1 < ... < ik in 1..N) is the mask with
bits i1..ik set.  The entries are Fraction or RatFunc, or Python ints for
vectors with integer entries, which then multiply as ints.  Only the
constructor reads index tuples, and only the `coeffs` view writes them; sums,
scalings and wedges work on the masks alone.
"""

from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .linalg import ExactMatrix, rank
from .multipoly import MultiPoly
from .ratfunc import RatFunc


class ExtVector:
    """Homogeneous element of an exterior power of an N-dimensional space."""

    __slots__ = ("dim", "grade", "terms")

    def __init__(self, dim, grade, coeffs=None):
        self.dim = dim
        self.grade = grade
        terms = {}
        for subset, c in (coeffs or {}).items():
            subset = tuple(subset)
            if len(subset) != grade or list(subset) != sorted(set(subset)):
                raise ValueError(f"index subset {subset} is not strictly increasing of size {grade}")
            if subset and (subset[0] < 1 or subset[-1] > dim):
                raise ValueError(f"index subset {subset} outside 1..{dim}")
            if c:
                terms[_mask(subset)] = c
        self.terms = terms

    @classmethod
    def zero(cls, dim, grade=1):
        return cls(dim, grade, {})

    @classmethod
    def basis(cls, dim, indices, coeff=Fraction(1)):
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: coeff})

    @property
    def coeffs(self):
        """Read-only view of the terms keyed by increasing index tuples, in
        the order the terms were made."""
        return MappingProxyType({_subset(m): c for m, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        terms = {}
        for m, v in self.terms.items():
            v = v * c
            if v:
                terms[m] = v
        return _unchecked(self.dim, self.grade, terms)

    def __add__(self, other):
        if self.dim != other.dim or self.grade != other.grade:
            raise ValueError("grade or ambient mismatch in addition")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            cur = terms.get(m)
            total = c if cur is None else cur + c
            if total:
                terms[m] = total
            elif cur is not None:
                del terms[m]
        return _unchecked(self.dim, self.grade, terms)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, ExtVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.grade == other.grade
            and self.terms == other.terms
        )

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return f"ExtVector(0; grade {self.grade})"
        bits = []
        for s in sorted(coeffs):
            name = "^".join(f"e{i}" for i in s) if s else "1"
            bits.append(f"({coeffs[s]!r})*{name}")
        return "ExtVector(" + " + ".join(bits) + ")"


def _unchecked(dim, grade, terms):
    """The ExtVector with the nonzero coefficients terms on support masks
    that are valid by construction: the constructor's checks are skipped."""
    out = ExtVector.__new__(ExtVector)
    out.dim = dim
    out.grade = grade
    out.terms = terms
    return out


def wedge(a, b):
    """Graded-anticommutative product with exact permutation signs.

    Two support masks share an index when ma & mb is nonzero; otherwise
    the product's support is ma | mb.  Its sign is the parity of the
    inversions of the merge, the number of pairs of an index of a above an
    index y of b.  When b has grade 1, with mb the single bit y, that
    parity is popcount(ma >> y).  In general it is popcount(pa & mb), pa
    the mask of the positions with an odd number of indices of a above
    them, built once per term of a.  Products are summed by support in
    first-seen order, and the zero sums are dropped.
    """
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch in wedge")
    out = {}
    get = out.get
    if b.grade == 1:
        bs = [(mb, cb, mb.bit_length() - 1) for mb, cb in b.terms.items()]
        for ma, ca in a.terms.items():
            for mb, cb, y in bs:
                if ma & mb:
                    continue
                c = ca * cb
                if (ma >> y).bit_count() & 1:
                    c = -c
                m = ma | mb
                cur = get(m)
                out[m] = c if cur is None else cur + c
    else:
        bs = list(b.terms.items())
        for ma, ca in a.terms.items():
            pa = _odd_above(ma)
            for mb, cb in bs:
                if ma & mb:
                    continue
                c = ca * cb
                if (pa & mb).bit_count() & 1:
                    c = -c
                m = ma | mb
                cur = get(m)
                out[m] = c if cur is None else cur + c
    return _unchecked(a.dim, a.grade + b.grade, {m: c for m, c in out.items() if c})


def _mask(subset):
    m = 0
    for i in subset:
        m |= 1 << i
    return m


def _odd_above(mask):
    """The mask with bit y set when an odd number of bits of mask lie above
    bit y: a suffix xor by doubling shifts."""
    p = mask >> 1
    shift = 1
    while p >> shift:
        p ^= p >> shift
        shift <<= 1
    return p


def _subset(mask):
    """The increasing index tuple of a mask, lowest set bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def wedge_all(vectors):
    if not vectors:
        raise ValueError("empty wedge")
    acc = vectors[0]
    for v in vectors[1:]:
        acc = wedge(acc, v)
    return acc


class LemmaVerdict:
    __slots__ = ("status", "detail")

    def __init__(self, status, detail):
        self.status = status  # confirmed | vacuous | trivial | precondition_failed
        self.detail = detail

    @property
    def holds(self):
        return self.status in ("confirmed", "trivial", "vacuous")


def factorization_implication_check(alphas, omega, beta):
    """Instance check of the factorization lemma for decomposable forms.

    With gamma the wedge of the alphas nonzero and omega annihilated by each
    alpha, beta wedge gamma = 0 must force beta wedge omega = 0.  Failed
    preconditions are reported as verdicts, not faults.
    """
    if omega.is_zero():
        return LemmaVerdict("trivial", "omega = 0, nothing to check")
    gamma = wedge_all(alphas)
    if gamma.is_zero():
        return LemmaVerdict("precondition_failed", "the alphas are linearly dependent (gamma = 0)")
    for i, a in enumerate(alphas):
        if not wedge(omega, a).is_zero():
            return LemmaVerdict("precondition_failed", f"omega ^ alpha_{i + 1} != 0")
    bg = wedge(beta, gamma)
    if not bg.is_zero():
        return LemmaVerdict(
            "vacuous", "beta ^ gamma != 0: hypothesis fails, implication vacuously true"
        )
    bo = wedge(beta, omega)
    if bo.is_zero():
        return LemmaVerdict("confirmed", "beta ^ gamma = 0 and beta ^ omega = 0")
    return LemmaVerdict("refuted", "beta ^ gamma = 0 but beta ^ omega != 0")


# ---------- finite-dimensionality probe over a field tower ----------


def _flatten_over_q(vectors):
    """Q-coordinates of exterior vectors with Q(t)-entries.

    All coordinates are brought over one global polynomial denominator so
    that scaling is Q-linear; each vector becomes a row of rationals indexed
    by (index subset, power of t).
    """
    from .multipoly import poly_lcm

    tsig = _entry_signature(vectors)
    common = MultiPoly.const(tsig, 1)
    for v in vectors:
        for c in v.terms.values():
            d = _as_ratfunc(c, tsig).den
            if not d.is_constant():
                common = poly_lcm(common, d)
    columns = {}
    rows = []
    for v in vectors:
        entries = {}
        for m, c in v.terms.items():
            c = _as_ratfunc(c, tsig)
            cleared = c.num * common.exact_div(c.den)
            for e, coeff in cleared.terms.items():
                key = (m, e)
                columns.setdefault(key, len(columns))
                entries[key] = coeff
        rows.append(entries)
    mat = [[Fraction(0)] * max(len(columns), 1) for _ in rows]
    for r, entries in enumerate(rows):
        for key, coeff in entries.items():
            mat[r][columns[key]] = coeff
    return mat


def _as_ratfunc(c, tsig):
    if isinstance(c, RatFunc):
        return c
    sig = tsig or ("t",)
    return RatFunc.from_const(sig, c)


def q_dimension(vectors):
    """Dimension over Q of the Q-span of exterior vectors with Q(t) entries."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return 0
    mat = _flatten_over_q(vectors)
    return rank(ExactMatrix(mat))


def k_dimension(vectors):
    """Dimension over Q(t) of the span (grade-1 vectors)."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return 0
    dim = vectors[0].dim
    tsig = _entry_signature(vectors)
    one = RatFunc.from_const(tsig, 1)
    rows = []
    for v in vectors:
        rows.append(
            [_as_ratfunc(v.terms.get(1 << i, Fraction(0)), tsig) for i in range(1, dim + 1)]
        )
    return rank(ExactMatrix(rows, one=one))


def _entry_signature(vectors):
    for v in vectors:
        for c in v.terms.values():
            if isinstance(c, RatFunc):
                return c.num.vars
    return ("t",)


def k_solve(targets, vector, tsig):
    """Coefficients expressing vector in span_K(targets), or None."""
    if not targets:
        return None if not vector.is_zero() else []
    dim = vector.dim
    one = RatFunc.from_const(tsig, 1)
    rows = []
    for i in range(1, dim + 1):
        row = [_as_ratfunc(t.terms.get(1 << i, Fraction(0)), tsig) for t in targets]
        row.append(_as_ratfunc(vector.terms.get(1 << i, Fraction(0)), tsig))
        rows.append(row)
    from .linalg import rref

    red, pivots = rref(ExactMatrix(rows, one=one))
    ncols = len(targets) + 1
    if ncols - 1 in pivots:
        return None  # inconsistent: vector outside the span
    coeffs = [one - one] * len(targets)
    for r, p in enumerate(pivots):
        coeffs[p] = red.entries[r][ncols - 1]
    return coeffs


class SpanProbeReport:
    __slots__ = (
        "wedge_count", "dim_q_wedges", "dim_k_sample", "dim_q_sample",
        "beta_indices", "membership_checks",
    )

    def __init__(
        self, wedge_count, dim_q_wedges, dim_k_sample, dim_q_sample, beta_indices, membership_checks
    ):
        self.wedge_count = wedge_count
        self.dim_q_wedges = dim_q_wedges
        self.dim_k_sample = dim_k_sample
        self.dim_q_sample = dim_q_sample
        self.beta_indices = beta_indices
        # (vector index, in_span, coeffs_in_coefficient_space)
        self.membership_checks = membership_checks


def span_probe(sample, ell):
    """Finite-dimensionality probe over the tower Q inside Q(t).

    Computes the Q-span of all ell-fold wedges of the sample, picks the
    first nonzero wedge as the reference beta, and checks that every sample
    vector lying K-linearly inside the first ell-1 wedge factors has its
    coefficients a with a*beta back inside the computed wedge span.
    """
    if ell < 1:
        raise ValueError("the wedge length must be at least 1")
    sample = list(sample)
    tsig = _entry_signature(sample)
    wedges = []
    beta_indices = ()
    beta = None
    for combo in combinations(range(len(sample)), ell):
        w = wedge_all([sample[i] for i in combo])
        wedges.append(w)
        if beta is None and not w.is_zero():
            beta = w
            beta_indices = combo
    dim_b = q_dimension(wedges)
    report = SpanProbeReport(
        wedge_count=len(wedges),
        dim_q_wedges=dim_b,
        dim_k_sample=k_dimension(sample),
        dim_q_sample=q_dimension(sample),
        beta_indices=tuple(i + 1 for i in beta_indices),
        membership_checks=[],
    )
    if beta is None:
        return report
    span_targets = [sample[i] for i in beta_indices[:-1]]
    nonzero_wedges = [w for w in wedges if not w.is_zero()]
    for idx, v in enumerate(sample):
        coeffs = k_solve(span_targets, v, tsig)
        if coeffs is None:
            report.membership_checks.append((idx + 1, False, None))
            continue
        confined = all(
            q_dimension(nonzero_wedges + [beta.scaled(a)]) == dim_b for a in coeffs
        )
        report.membership_checks.append((idx + 1, True, confined))
    return report
