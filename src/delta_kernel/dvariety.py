"""Polynomial vector fields on affine space and their invariant objects.

A DSpec is m polynomial derivations on Q[x1..xn], optionally restricted to a
subvariety.  The module decides invariance of subvarieties, tests rational
first integrals, searches Darboux polynomials and first integrals up to a
degree bound, and provides the logarithmic-derivative test over Q(t).

Two Darboux search paths exist.  When every field component has degree at
most one the derivations act on each bounded-degree coefficient space, and
the search is a simultaneous rational eigenproblem.  The general path sets
up the bilinear system in the coefficients of the polynomial and its
cofactors, enumerates candidate cofactor tuples branch-by-branch through
the Groebner engine (pivot coefficient pinned to one, higher coefficients
zeroed), and solves each candidate linearly.  Both paths emit the same
canonical representatives: a reduced-echelon basis of each cofactor's
solution space, constants quotiented out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .factor import factor_univariate
from .groebner import GREVLEX, buchberger, normal_form
from .linalg import ExactMatrix, nullspace, rational_eigen, rref, stack
from .multipoly import MultiPoly, coefficients, exponents_upto, order_key
from .ratfunc import RatFunc
from .solve import sampled_rational_solutions


class DSpec:
    """m polynomial derivations delta_k(x_j) on n-space, optional ideal of V."""

    def __init__(self, nvars, nder, fields, ideal_gens=(), check_commuting=True):
        self.nvars = nvars
        self.nder = nder
        self.sig = tuple(f"x{j}" for j in range(1, nvars + 1))
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
        """The k-th derivation applied to a polynomial (0-based k)."""
        out = MultiPoly.zero(self.sig)
        for j in range(self.nvars):
            dj = p.partial(j)
            if dj.is_zero():
                continue
            out = out + dj * self.fields[k][j]
        return out

    def derive_ratfunc(self, k, f):
        n, d = f.num, f.den
        return RatFunc(self.derive(k, n) * d - n * self.derive(k, d), d * d)

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


@dataclass
class DarbouxResult:
    """f with delta_k f = K_k * f for every derivation; identities exact."""

    polynomial: MultiPoly
    cofactors: list
    degree: int
    irreducible: bool | None  # None = not checked (multivariate)
    irreducibility: str  # "verified-univariate" or "not-checked"

    def key(self):
        return (
            frozenset(self.polynomial.terms.items()),
            tuple(frozenset(k.terms.items()) for k in self.cofactors),
        )


def _poly_from_vector(sig, monos, vec):
    terms = {}
    for e, c in zip(monos, vec):
        if c:
            terms[e] = c
    return MultiPoly(sig, terms)


def _action_matrix(spec, k, monos, cofactor=None):
    """Matrix of f -> delta_k f (minus cofactor*f) on the span of monos."""
    extra = spec.max_field_degree(k) - 1
    if cofactor is not None and not cofactor.is_zero():
        extra = max(extra, cofactor.total_degree())
    target_deg = max(e_total(monos) + max(extra, 0), e_total(monos))
    target = sorted(exponents_upto(spec.nvars, target_deg), key=order_key(GREVLEX), reverse=True)
    index = {e: i for i, e in enumerate(target)}
    rows = len(target)
    cols = len(monos)
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for c, e in enumerate(monos):
        mono = MultiPoly.monomial(spec.sig, e)
        img = spec.derive(k, mono)
        if cofactor is not None:
            img = img - cofactor * mono
        for ee, cc in img.terms.items():
            entries[index[ee]][c] += cc
    return ExactMatrix(entries)


def e_total(monos):
    return max(sum(e) for e in monos)


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


def _solve_cofactor(spec, monos, cofactors):
    """Basis of {f in span(monos) : delta_k f = K_k f for all k}."""
    mats = [
        _action_matrix(spec, k, monos, cofactor=cofactors[k])
        for k in range(spec.nder)
    ]
    big = stack(mats)
    vecs = nullspace(big)
    if not vecs:
        return []
    # quotient out constants when 1 is itself a solution (zero cofactors)
    const_col = monos.index((0,) * spec.nvars) if (0,) * spec.nvars in monos else None
    zero_cof = all(k.is_zero() for k in cofactors)
    basis = []
    mat = ExactMatrix([list(v) for v in vecs])
    red, _ = rref(mat)
    for row in red.entries:
        if not any(row):
            continue
        p = _poly_from_vector(spec.sig, monos, row)
        if p.is_constant():
            continue
        if zero_cof and const_col is not None and row[const_col]:
            # representatives modulo constants: drop the constant term
            q = dict(p.terms)
            q.pop((0,) * spec.nvars, None)
            p = MultiPoly(spec.sig, q)
            if p.is_constant():
                continue
        basis.append(p.primitive())
    return basis


def darboux_search_eigen(spec, d):
    """Simultaneous rational-eigenproblem path; needs degree <= 1 fields."""
    for k in range(spec.nder):
        if spec.max_field_degree(k) > 1:
            raise ValueError("eigenproblem path needs every field of degree <= 1")
    monos = sorted(exponents_upto(spec.nvars, d), key=order_key(GREVLEX), reverse=True)
    candidate_lists = []
    for k in range(spec.nder):
        # the action maps the space to itself: square matrix
        m = _action_matrix(spec, k, monos)
        sq = ExactMatrix([row[: len(monos)] for row in m.entries[: len(monos)]])
        if any(any(row[len(monos):]) for row in m.entries[: len(monos)]) or any(
            any(row) for row in m.entries[len(monos):]
        ):
            raise AssertionError("degree <= 1 field failed to preserve the space")
        report = rational_eigen(sq)
        candidate_lists.append(sorted({ev for ev, _ in report.pairs}))
    results = []
    for combo in product(*candidate_lists):
        cofs = [MultiPoly.const(spec.sig, ev) for ev in combo]
        for p in _solve_cofactor(spec, monos, cofs):
            results.append(_annotate(spec, p, cofs))
    return _dedup(results)


def _cofactor_monomials(spec, k):
    bound = max(spec.max_field_degree(k) - 1, 0)
    return sorted(exponents_upto(spec.nvars, bound), key=order_key(GREVLEX), reverse=True)


def darboux_search_groebner(spec, d, sample_values=(0, 1, -1, 2, -2, 3)):
    """Bilinear path: enumerate rational cofactor tuples, then solve linearly.

    Unknowns are the coefficients of f and of each cofactor K_k; for each
    pivot monomial of f (coefficient one, higher coefficients zero) the
    f-coefficients are eliminated and the rational points of the cofactor
    ideal are collected.  Cofactor families (positive-dimensional cofactor
    components) are sampled and flagged.
    """
    monos = sorted(exponents_upto(spec.nvars, d), key=order_key(GREVLEX), reverse=True)
    cof_monos = [_cofactor_monomials(spec, k) for k in range(spec.nder)]
    avars = [f"a{i}" for i in range(len(monos))]
    bvars = [
        f"b{k}_{i}" for k in range(spec.nder) for i in range(len(cof_monos[k]))
    ]
    allvars = tuple(avars + bvars)
    warnings = []
    candidates = []

    def record(values):
        cofs = []
        for k in range(spec.nder):
            terms = {}
            for i, e in enumerate(cof_monos[k]):
                c = values[f"b{k}_{i}"]
                if c:
                    terms[e] = c
            cofs.append(MultiPoly(spec.sig, terms))
        if cofs not in candidates:
            candidates.append(cofs)

    # generic bilinear equations over the unknowns
    ext = spec.sig + allvars

    def lift(p):
        return p.restrict(ext)

    f_ext = MultiPoly.zero(ext)
    for i, e in enumerate(monos):
        coeff_var = MultiPoly.var(ext, avars[i])
        f_ext = f_ext + coeff_var * lift(MultiPoly.monomial(spec.sig, e))
    cof_ext = []
    for k in range(spec.nder):
        kk = MultiPoly.zero(ext)
        for i, e in enumerate(cof_monos[k]):
            kk = kk + MultiPoly.var(ext, f"b{k}_{i}") * lift(
                MultiPoly.monomial(spec.sig, e)
            )
        cof_ext.append(kk)

    def derive_ext(k, p):
        out = MultiPoly.zero(ext)
        for j in range(spec.nvars):
            dj = p.partial(j)
            if not dj.is_zero():
                out = out + dj * lift(spec.fields[k][j])
        return out

    residual = [derive_ext(k, f_ext) - cof_ext[k] * f_ext for k in range(spec.nder)]
    # coefficients of the ambient monomials are the equations in a, b
    equations = [eq for r in residual for eq in coefficients(r, len(spec.sig))]

    for pivot in range(len(monos)):
        branch = [eq for eq in equations]
        pin = {avars[pivot]: Fraction(1)}
        for higher in range(pivot):
            pin[avars[higher]] = Fraction(0)
        branch = [eq.substitute(pin) for eq in branch]
        keep = tuple(v for v in allvars if v not in pin)
        branch = [eq.restrict(keep) for eq in branch if not eq.is_zero()]
        if any(eq.is_constant() and not eq.is_zero() for eq in branch):
            continue
        points, exact, free = sampled_rational_solutions(
            branch, keep, sample_values=sample_values
        )
        if not exact:
            warnings.append(
                f"solution family in pivot branch {pivot}; cofactors collected by sampling on {list(sample_values)}"
            )
        for pt in points:
            full = dict(pt)
            full.update(pin)
            record(full)

    results = []
    monos_all = monos
    for cofs in candidates:
        for p in _solve_cofactor(spec, monos_all, cofs):
            results.append(_annotate(spec, p, cofs))
    return _dedup(results), warnings


def _dedup(results):
    seen = {}
    for r in results:
        seen.setdefault(r.key(), r)
    out = list(seen.values())
    out.sort(key=lambda r: (r.degree, r.polynomial.to_str()))
    return out


def darboux_search(spec, d, method="auto", sample_values=(0, 1, -1, 2, -2, 3)):
    """All Darboux polynomials of degree <= d (canonical basis per cofactor).

    Cofactor degrees are bounded by max_j deg delta_k(x_j) - 1, the standard
    completeness bound from comparing top degrees.
    """
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    if method == "eigen":
        return darboux_search_eigen(spec, d)
    if method == "groebner":
        return darboux_search_groebner(spec, d, sample_values)[0]
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if all(spec.max_field_degree(k) <= 1 for k in range(spec.nder)):
        return darboux_search_eigen(spec, d)
    return darboux_search_groebner(spec, d, sample_values)[0]


def first_integral_search(spec, d, method="auto"):
    """Rational first integrals up to degree d.

    Polynomial ones come from the kernel of the stacked derivation action on
    the bounded-degree space (constants quotiented out); rational ones from
    ratios of Darboux products with matching cofactor sums.
    """
    monos = sorted(exponents_upto(spec.nvars, d), key=order_key(GREVLEX), reverse=True)
    mats = [_action_matrix(spec, k, monos) for k in range(spec.nder)]
    vecs = nullspace(stack(mats))
    integrals = []
    const_e = (0,) * spec.nvars
    if vecs:
        red, _ = rref(ExactMatrix([list(v) for v in vecs]))
        for row in red.entries:
            if not any(row):
                continue
            p = _poly_from_vector(spec.sig, monos, row)
            q = dict(p.terms)
            q.pop(const_e, None)
            p = MultiPoly(spec.sig, q)
            if not p.is_constant():
                integrals.append(RatFunc(p.primitive()))
    # ratios of Darboux products with equal cofactor sums
    darboux = darboux_search(spec, d, method=method)
    combos = _darboux_products(spec, darboux, d)
    seen = {(f.num, f.den) for f in integrals}
    for (cof_key_a, prod_a) in combos:
        for (cof_key_b, prod_b) in combos:
            if cof_key_a != cof_key_b or prod_a == prod_b:
                continue
            ratio = RatFunc(prod_a, prod_b)
            if ratio.is_constant():
                continue
            ratio = _orient(ratio)
            key = (ratio.num, ratio.den)
            if key in seen:
                continue
            if is_dconstant(spec, ratio):
                seen.add(key)
                integrals.append(ratio)
    integrals.sort(key=lambda r: (r.num.total_degree() + r.den.total_degree(), r.to_str()))
    return integrals


def _darboux_products(spec, darboux, d):
    """Products of Darboux results with total degree <= d, with cofactor sums."""
    out = []
    items = list(darboux)

    def rec(i, deg_left, prod, cof_sum):
        out.append(
            (
                tuple(frozenset(c.terms.items()) for c in cof_sum),
                prod,
            )
        )
        for j in range(i, len(items)):
            r = items[j]
            if r.degree <= deg_left:
                rec(
                    j,
                    deg_left - r.degree,
                    prod * r.polynomial,
                    [a + b for a, b in zip(cof_sum, r.cofactors)],
                )

    one = MultiPoly.const(spec.sig, 1)
    zeros = [MultiPoly.zero(spec.sig) for _ in range(spec.nder)]
    rec(0, d, one, zeros)
    return out


def _orient(ratio):
    """Deterministic orientation: the higher-degree side up, ties by text."""
    num_deg = ratio.num.total_degree()
    den_deg = ratio.den.total_degree()
    if den_deg > num_deg or (den_deg == num_deg and ratio.den.to_str() > ratio.num.to_str()):
        return ratio.inverse()
    return ratio


def is_dconstant_on_fibers(f, data):
    """D-constant test against prolongation fiber data (any fiber dimension).

    f is a rational function of the level-bound frame coordinates.  Its
    differential is pushed along the tangent section: for each derivation
    the result is an affine expression in the free fiber parameters, and f
    is a D-constant exactly when every coefficient of every such expression
    vanishes modulo the saturated variety ideal.
    """
    from .prolongation import _frame_sig

    ext = _frame_sig(data.variety.frame)
    if isinstance(f, MultiPoly):
        f = RatFunc(f.restrict(ext))
    elif f.num.vars != ext:
        f = RatFunc(f.num.restrict(ext), f.den.restrict(ext))
    gb = data.variety.groebner_basis()
    if normal_form(f.den, gb).is_zero():
        raise ZeroDivisionError("denominator vanishes identically on the variety")
    section = data.tangent_section()
    m = len(data.variety.frame[0].theta)
    partials = {
        x: f.derivative(ext.index(x)) for x in ext
    }
    for k in range(1, m + 1):
        const = RatFunc(MultiPoly.zero(ext))
        linear = {}
        for x in ext:
            df = partials[x]
            if df.is_zero():
                continue
            expr = section[(x, k)]
            const = const + df * expr.const
            for b, coef in expr.linear.items():
                cur = linear.get(b)
                linear[b] = df * coef if cur is None else cur + df * coef
        for value in [const] + list(linear.values()):
            if value.is_zero():
                continue
            if not normal_form(value.num, gb).is_zero():
                return False
    return True


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


def exponential_solvable_over_ratfield(gamma):
    """Whether delta x = gamma x has a nonzero solution in (Q(t), d/dt)."""
    if isinstance(gamma, RatFunc):
        if not gamma.is_constant():
            return False
        gamma = gamma.constant_value()
    return gamma == 0
