"""Polynomial vector fields on affine space and their invariant objects.

A DSpec is m polynomial derivations on Q[x1..xn], optionally restricted to a
subvariety.  The module decides invariance of subvarieties, tests rational
first integrals, searches Darboux polynomials and first integrals up to a
degree bound, and provides the logarithmic-derivative test over Q(t).

Two Darboux search paths exist, and darboux_search is the one place that
chooses between them.  They differ only in how they find candidate cofactor
tuples; one kernel stage serves both.  Each derivation's matrix of f ->
delta_k f on the monomials of degree <= d is built once per search, and for
each candidate tuple the matrices are copied with K_k's multiplication
columns taken off, stacked, and their kernel solved.  When every field
component has degree at most one the matrices are square and the
candidates are the tuples of their rational eigenvalues.  The general path
takes, for each pivot monomial, the ansatz monic there with only the
smaller monomials free (solve.undetermined), reads the bilinear system in
its coefficients and the cofactors' off the ambient monomials of
delta_k f - K_k f, and collects the rational cofactor tuples through the
Groebner engine, the all-zero tuple always among them.  Both paths emit
the same canonical representatives: a reduced-echelon basis of each
cofactor's solution space, constants quotiented out.

First integrals are read from the Darboux list alone: each is a ratio of
Darboux products with equal cofactor sums (the Darboux-Jouanolou
construction), and the polynomial ones are the ratios over the empty
product.  Each ratio is built once per exponent difference over a pairwise
coprime refinement of the Darboux list, so it is in lowest terms without a
gcd.
"""

from fractions import Fraction
from itertools import product
from operator import add, sub

from .factor import factor_univariate
from .groebner import buchberger, normal_form
from .linalg import ExactMatrix, nullspace, rational_spectrum, rref
from .multipoly import (
    InexactDivisionError,
    MultiPoly,
    coefficients,
    monomials,
    poly_gcd,
)
from .ratfunc import RatFunc
from .solve import SAMPLE_VALUES, sampled_rational_solutions, specialize, undetermined


def _ambient_sig(nvars):
    """The signature x1..xn of the affine n-space the fields act on."""
    return tuple(f"x{j}" for j in range(1, nvars + 1))


class DSpec:
    """m polynomial derivations delta_k(x_j) on n-space, optional ideal of V."""

    def __init__(self, nvars, nder, fields, ideal_gens=(), check_commuting=True):
        if nvars < 1 or nder < 1:
            raise ValueError("need at least one derivation and one variable")
        self.nvars = nvars
        self.nder = nder
        self.sig = _ambient_sig(nvars)
        self.fields = [
            [fields[k][j].restrict(self.sig) for j in range(nvars)] for k in range(nder)
        ]
        self.ideal_gens = [g.restrict(self.sig) for g in ideal_gens]
        self._gb = None
        if check_commuting:
            witness = self.commuting_witness()
            if witness is not None:
                k, l, j = witness
                raise ValueError(
                    f"derivations {k + 1} and {l + 1} do not commute on x{j + 1} "
                    "(pass check_commuting=False to waive)"
                )

    def variety_basis(self):
        if self._gb is None:
            self._gb = buchberger(self.ideal_gens) if self.ideal_gens else None
        return self._gb

    def _reduce(self, p):
        gb = self.variety_basis()
        return normal_form(p, gb) if gb is not None else p

    def derive(self, k, p):
        """The k-th derivation applied to a polynomial (0-based k), on any
        signature that starts with sig: the fields are restricted onto p's
        signature, which on sig itself returns them unchanged."""
        out = MultiPoly.zero(p.vars)
        for j in range(self.nvars):
            dj = p.partial(j)
            if dj.is_zero():
                continue
            out = out + dj * self.fields[k][j].restrict(p.vars)
        return out

    def commuting_witness(self):
        """None when all derivation pairs commute modulo the ideal of V,
        else the offending (k, l, j)."""
        for k in range(self.nder):
            for l in range(k + 1, self.nder):
                for j in range(self.nvars):
                    xj = MultiPoly.gen(self.sig, j)
                    a = self.derive(k, self.derive(l, xj))
                    b = self.derive(l, self.derive(k, xj))
                    if not self._reduce(a - b).is_zero():
                        return (k, l, j)
        return None

    def max_field_degree(self, k):
        return max((p.total_degree() for p in self.fields[k]), default=0)

    def __repr__(self):
        return f"DSpec(n={self.nvars}, m={self.nder})"


def is_dsubvariety(spec, ideal_gens):
    """Whether V(ideal_gens) is invariant: each derivation maps every
    generator back into the ideal (plus the ambient variety's ideal).

    Returns (True, None) or (False, (k, g, nonzero normal form)).
    """
    gens = [g.restrict(spec.sig) for g in ideal_gens]
    combined = gens + spec.ideal_gens
    nonzero = [g for g in combined if not g.is_zero()]
    gb = buchberger(nonzero) if nonzero else None
    for k in range(spec.nder):
        for g in gens:
            dg = spec.derive(k, g)
            r = normal_form(dg, gb) if gb is not None else dg
            if not r.is_zero():
                return False, (k + 1, g, r)
    return True, None


def is_dconstant(spec, f):
    """Whether the rational function is killed by every derivation modulo
    the ideal of V (the quotient rule clears to a polynomial condition)."""
    if isinstance(f, MultiPoly):
        f = RatFunc(f)
    num, den = f.num, f.den
    if spec.ideal_gens and spec._reduce(den).is_zero():
        raise ZeroDivisionError("denominator vanishes identically on the variety")
    for k in range(spec.nder):
        top = spec.derive(k, num) * den - num * spec.derive(k, den)
        if not spec._reduce(top).is_zero():
            return False
    return True


class DarbouxResult:
    """f with delta_k f = K_k * f for every derivation; identities exact.
    Equal when every field is."""

    __slots__ = ("polynomial", "cofactors", "degree", "irreducible", "irreducibility")

    def __init__(self, polynomial, cofactors, degree, irreducible, irreducibility):
        self.polynomial = polynomial
        self.cofactors = cofactors
        self.degree = degree
        self.irreducible = irreducible  # None = not checked (multivariate)
        self.irreducibility = irreducibility  # "verified-univariate" or "not-checked"

    def _fields(self):
        return (self.polynomial, self.cofactors, self.degree, self.irreducible, self.irreducibility)

    def __eq__(self, other):
        if other.__class__ is not DarbouxResult:
            return NotImplemented
        return self._fields() == other._fields()


def _derivation_matrices(spec, monos):
    """For each derivation k, (matrix, rows): the matrix of f -> delta_k f
    on span(monos), whose rows are the monomials of degree <= d +
    max(deg delta_k - 1, 0), and the map from each of them to its row.
    Every cofactor either search path tries has degree <= max(deg delta_k -
    1, 0), so K_k * f lands in the same rows."""
    d = max(sum(e) for e in monos)
    out = []
    for k in range(spec.nder):
        target = monomials(spec.nvars, d + max(spec.max_field_degree(k) - 1, 0))
        rows = {e: i for i, e in enumerate(target)}
        entries = [[Fraction(0)] * len(monos) for _ in target]
        for c, e in enumerate(monos):
            for ee, cc in spec.derive(k, MultiPoly.monomial(spec.sig, e)).terms.items():
                entries[rows[ee]][c] += cc
        out.append((ExactMatrix(entries), rows))
    return out


def _annotate(spec, p, cofactors):
    support = p.support_indices()
    if len(support) == 1:
        _, factors = factor_univariate(p)
        irreducible = len(factors) == 1 and factors[0][1] == 1
        status = "verified-univariate"
    else:
        irreducible = None
        status = "not-checked"
    return DarbouxResult(
        polynomial=p.primitive(),
        cofactors=cofactors,
        degree=p.total_degree(),
        irreducible=irreducible,
        irreducibility=status,
    )


def _canonical_basis(sig, monos, vecs):
    """Canonical representatives of the span of vecs, coefficient vectors on
    monos: the nonconstant rows of its reduced echelon form, primitive.

    Constants are quotiented out: monos ends with the constant monomial, so
    when the span holds the constants (zero cofactors) the echelon form has
    the row 1 and no other row has a constant term.
    """
    if not vecs:
        return []
    red, _ = rref(ExactMatrix(vecs))
    basis = []
    for row in red.entries:
        p = MultiPoly(sig, {e: c for e, c in zip(monos, row) if c})
        if not p.is_constant():
            basis.append(p.primitive())
    return basis


def _darboux_results(spec, monos, mats, candidates):
    """The Darboux polynomials on span(monos) of each cofactor tuple, sorted
    by degree and text: a canonical basis of the kernel of the matrices of
    f -> delta_k f - K_k f stacked, each matrix copied once with K_k's
    multiplication columns taken off."""
    results = []
    for cofs in candidates:
        stacked = []
        for (a, rows), cof in zip(mats, cofs):
            block = [row[:] for row in a.entries]
            for ee, cc in cof.terms.items():
                for c, e in enumerate(monos):
                    block[rows[tuple(map(add, e, ee))]][c] -= cc
            stacked += block
        for p in _canonical_basis(spec.sig, monos, nullspace(ExactMatrix(stacked))):
            results.append(_annotate(spec, p, cofs))
    results.sort(key=lambda r: (r.degree, r.polynomial.to_str()))
    return results


def darboux_search_eigen(spec, d):
    """Simultaneous rational-eigenproblem path; needs degree <= 1 fields.

    Each derivation maps the monomials of degree <= d to themselves, so its
    matrix is square, and a cofactor K_k of a Darboux polynomial is one of
    its rational eigenvalues.  The candidates are the tuples of those
    eigenvalues, one per derivation.
    """
    for k in range(spec.nder):
        if spec.max_field_degree(k) > 1:
            raise ValueError("eigenproblem path needs every field of degree <= 1")
    monos = monomials(spec.nvars, d)
    mats = _derivation_matrices(spec, monos)
    spectra = []
    for a, _ in mats:
        # the action maps the space to itself: square matrix
        if a.rows != a.cols:
            raise AssertionError("degree <= 1 field failed to preserve the space")
        spectra.append(sorted(rational_spectrum(a)))
    candidates = ([MultiPoly.const(spec.sig, ev) for ev in combo] for combo in product(*spectra))
    return _darboux_results(spec, monos, mats, candidates)


def darboux_search_groebner(spec, d):
    """Bilinear path: enumerate rational cofactor tuples, then solve linearly.

    Unknowns are the coefficients of f and of each cofactor K_k.  For each
    pivot monomial of f the ansatz is monic there, with only the smaller
    monomials free, and the rational points of the branch's system are
    collected.  Cofactor families (positive-dimensional cofactor
    components) are sampled on SAMPLE_VALUES and flagged.  The all-zero
    cofactor tuple is always a candidate, so the polynomial first integrals
    are found whether or not a sample hits it.
    """
    monos = monomials(spec.nvars, d)
    cof_monos = [
        monomials(spec.nvars, max(spec.max_field_degree(k) - 1, 0)) for k in range(spec.nder)
    ]
    bvars = [[f"b{k}_{i}" for i in range(len(cof_monos[k]))] for k in range(spec.nder)]
    warnings = []
    # the cofactor tuples in first-seen order, keyed by their coefficients
    # (the b-values), the all-zero tuple first
    bnames = tuple(b for names in bvars for b in names)
    candidates = {(0,) * len(bnames): [MultiPoly.zero(spec.sig) for _ in range(spec.nder)]}
    for pivot in range(len(monos)):
        avars = [f"a{i}" for i in range(pivot + 1, len(monos))]
        keep = tuple(avars) + bnames
        ext = spec.sig + keep
        f = undetermined(spec.sig, monos[pivot + 1 :], avars, ext, lead=monos[pivot])
        residuals = [
            spec.derive(k, f) - undetermined(spec.sig, cof_monos[k], bvars[k], ext) * f
            for k in range(spec.nder)
        ]
        # coefficients of the ambient monomials are the equations in a, b
        branch = [eq for r in residuals for eq in coefficients(r, len(spec.sig)).values()]
        if any(eq.is_constant() for eq in branch):
            continue
        points, exact, _ = sampled_rational_solutions(branch, keep)
        if not exact:
            warnings.append(
                f"solution family in pivot branch {pivot}; cofactors collected by sampling on {list(SAMPLE_VALUES)}"
            )
        for pt in points:
            key = tuple(pt[b] for b in bnames)
            if key not in candidates:
                candidates[key] = [
                    specialize(spec.sig, cof_monos[k], bvars[k], pt) for k in range(spec.nder)
                ]

    mats = _derivation_matrices(spec, monos)
    return _darboux_results(spec, monos, mats, candidates.values()), warnings


def darboux_search(spec, d, method="auto"):
    """(results, warnings): all Darboux polynomials of degree <= d, a
    canonical basis per cofactor, and the Groebner path's sampling notes.

    The one place a search path is chosen: "auto" takes the eigen path when
    every field has degree <= 1, which returns no warnings.  Cofactor
    degrees are bounded by max_j deg delta_k(x_j) - 1, the standard
    completeness bound from comparing top degrees.
    """
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    if method == "auto":
        eigen = all(spec.max_field_degree(k) <= 1 for k in range(spec.nder))
    elif method in ("eigen", "groebner"):
        eigen = method == "eigen"
    else:
        raise ValueError(f"unknown method {method!r}")
    if eigen:
        return darboux_search_eigen(spec, d), []
    return darboux_search_groebner(spec, d)


def first_integral_search(spec, d):
    """Rational first integrals up to degree d, from the Darboux list alone.

    A first integral is a ratio of Darboux products with equal cofactor
    sums (the Darboux-Jouanolou construction); the polynomial ones are the
    ratios over the empty product, since the zero-cofactor Darboux basis is
    a basis of the polynomial integrals.  The Darboux list is refined to a
    pairwise coprime base and every product written as an exponent vector
    over it, so a ratio depends only on the difference of two vectors and
    comes out in lowest terms without a gcd; each difference up to sign is
    built once.
    """
    darboux, _ = darboux_search(spec, d)
    integrals = []
    seen = set()
    base, exps = _coprime_base([r.polynomial for r in darboux])
    # the distinct products of each cofactor sum, as exponent vectors over base
    groups = {}
    for cof_key, vec in _darboux_products(spec, darboux, d):
        over_base = tuple(
            sum(a * e[j] for a, e in zip(vec, exps) if a) for j in range(len(base))
        )
        groups.setdefault(cof_key, set()).add(over_base)
    diffs = set()
    for vecs in groups.values():
        vecs = sorted(vecs)
        for i, a in enumerate(vecs):
            for b in vecs[i + 1 :]:
                diffs.add(tuple(map(sub, b, a)))
    for v in sorted(diffs):
        up = _power_product(spec.sig, base, v)
        down = _power_product(spec.sig, base, [-x for x in v])
        ratio, inverse = _coprime_ratio(up, down), _coprime_ratio(down, up)
        for r in (
            inverse if _flips(ratio) else ratio,
            ratio if _flips(inverse) else inverse,
        ):
            if r not in seen and is_dconstant(spec, r):
                seen.add(r)
                integrals.append(r)
    integrals.sort(key=lambda r: (r.num.total_degree() + r.den.total_degree(), r.to_str()))
    return integrals


def _darboux_products(spec, darboux, d):
    """(cofactor-sum key, exponent vector over darboux) of every product of
    Darboux results with total degree <= d, the empty product included."""
    out = []
    items = list(darboux)
    vec = [0] * len(items)

    def rec(i, deg_left, cof_sum):
        out.append((tuple(frozenset(c.terms.items()) for c in cof_sum), tuple(vec)))
        for j in range(i, len(items)):
            r = items[j]
            if r.degree <= deg_left:
                vec[j] += 1
                rec(j, deg_left - r.degree, [a + b for a, b in zip(cof_sum, r.cofactors)])
                vec[j] -= 1

    rec(0, d, [MultiPoly.zero(spec.sig) for _ in range(spec.nder)])
    return out


def _coprime_base(polys):
    """(base, exps): pairwise coprime primitive polynomials of positive
    degree, and for each of the given primitive polynomials its exponent
    vector over them.

    Factor refinement (Bach-Driscoll-Shallit, J. Algorithms 1993): a pair
    (p, q) with a nonconstant gcd g is replaced by p/g, g, q/g until no such
    pair is left; the total degree drops at every step.  The given
    polynomials are taken lowest degree first, and each is divided by the
    base found so far before any gcd, so a product of earlier factors costs
    no gcd at all.  Primitive
    factors with positive leading coefficients multiply to a primitive
    polynomial with a positive leading coefficient, so each polynomial is
    the product of its powers of the base exactly, with no scalar left over.
    """
    base = []
    pending = sorted(polys, key=lambda p: p.total_degree(), reverse=True)
    while pending:
        p = pending.pop()
        for q in base:
            p = _divide_out(p, q)[0]
        if p.is_constant():
            continue
        for i, q in enumerate(base):
            g = poly_gcd(p, q)
            if not g.is_constant():
                del base[i]
                pending += [q.exact_div(g), g, p.exact_div(g)]
                break
        else:
            base.append(p.primitive())
    exps = []
    for f in polys:
        vec = []
        for q in base:
            f, e = _divide_out(f, q)
            vec.append(e)
        exps.append(vec)
    return base, exps


def _divide_out(f, q):
    """(f / q^e, e) for the largest e such that q^e divides f."""
    e = 0
    while True:
        try:
            f = f.exact_div(q)
        except InexactDivisionError:
            return f, e
        e += 1


def _power_product(sig, base, v):
    """The product of base[j]^v[j] over the positive entries of v."""
    out = MultiPoly.const(sig, 1)
    for q, x in zip(base, v):
        if x > 0:
            out = out * q**x
    return out


def _coprime_ratio(num, den):
    """num/den as a RatFunc for coprime num and den: no gcd, only the
    denominator made monic."""
    lc = den.leading()[1]
    if lc != 1:
        num, den = num.scale(1 / lc), den.scale(1 / lc)
    return RatFunc(num, den, reduce=False)


def _flips(ratio):
    """Whether the deterministic orientation, the higher-degree side up and
    ties by text, turns the ratio over."""
    num_deg = ratio.num.total_degree()
    den_deg = ratio.den.total_degree()
    return den_deg > num_deg or (den_deg == num_deg and ratio.den.to_str() > ratio.num.to_str())


def log_derivative(a):
    """(a'/a in lowest terms, whether it lies in Q) for a in Q(t), a != 0.

    Over Q(t) the logarithmic derivative is a constant only when it is zero,
    so the boolean doubles as the solvability test for delta x = gamma * x.
    """
    if isinstance(a, MultiPoly):
        a = RatFunc(a)
    if a.is_zero():
        raise ZeroDivisionError("logarithmic derivative of zero")
    ratio = a.derivative(0) / a
    return ratio, ratio.is_constant()
