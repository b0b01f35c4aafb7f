"""Function-field heights on Q(t) and the bounded-height experiment for
first-order differential equations P(x, x') = 0.

The height of p/q in lowest terms is max(deg p, deg q): the degree of the
polar divisor on the projective line, poles at infinity included.  The
search side substitutes a rational-function ansatz into P, clears
denominators, and hands the resulting coefficient system to the Groebner
engine; every emitted solution is re-verified exactly and the observed
height bound is reported.  The residual is built on integer term dicts and
its coefficient equations go to the integer Groebner core and the integer
solver as they are, and the printed basis is written from those integer
terms, with no MultiPoly made.  A sampled point becomes an exact integer key
first (_candidate_key); its MultiPolys and its RatFunc are made, and its
exact verification run, once per distinct candidate.

The multivariate extension (coefficients in Q(t1..ts), one derivation per
variable) rides the same pipeline and is flagged experimental.
"""

from functools import partial
from math import lcm

from .groebner import GREVLEX, buchberger_terms, independent_variable_set, order_key
from .multipoly import (
    MultiPoly,
    _exact_quotient,
    _power_of,
    _poly_gcd,
    _primitive,
    _strip,
    integer_terms,
    monomials,
    mul_integer_terms,
    partial_terms,
    sorted_exponents,
    split_terms,
)
from .printer import FactorTable, print_terms
from .ratfunc import RatFunc
from .solve import solve_terms, specialize, undetermined


def height_ratfunc(g):
    """max(deg num, deg den) of a rational function in lowest terms.

    Zero exactly on the constants; extends degree on polynomials.
    """
    if isinstance(g, MultiPoly):
        g = RatFunc(g)
    if g.is_zero():
        return 0
    return max(g.num.total_degree(), g.den.total_degree())


def _ode_sig(tvars):
    """The ring of P: the t-variables, x, then y (s = 1) or y1..ys."""
    s = len(tvars)
    yvars = ("y",) if s == 1 else tuple(f"y{k}" for k in range(1, s + 1))
    return tuple(tvars) + ("x",) + yvars


class OdePoly:
    """Nonzero P in Q(t1..ts)[x, y1..ys], denominators cleared, content out.

    s = 1 is the ordinary case P(x, x'); s > 1 is the partial extension with
    y_k standing for the k-th partial derivative (experimental).
    """

    def __init__(self, poly, tvars=("t",)):
        self.tvars = tuple(tvars)
        self.sig = _ode_sig(self.tvars)
        poly = poly.restrict(self.sig)
        if poly.is_zero():
            raise ValueError("the defining polynomial must be nonzero")
        self.poly = poly.primitive()

    @property
    def experimental(self):
        return len(self.tvars) > 1

    def degree_in_x(self):
        return self.poly.degree_in(len(self.tvars))

    def __repr__(self):
        return f"OdePoly({self.poly.to_str()})"


def verify_ode_solution(ode, g):
    """Exact check that x = g solves P(x, partials of x) = 0."""
    if isinstance(g, MultiPoly):
        g = RatFunc(g)
    tsig = g.num.vars
    if tuple(tsig) != ode.tvars:
        raise ValueError("solution must live over the equation's t-variables")
    s = len(ode.tvars)
    derivatives = [g.derivative(k) for k in range(s)]
    total = RatFunc(MultiPoly.zero(tsig))
    for e, c in ode.poly.terms.items():
        t_part = MultiPoly.monomial(tsig, e[:s], c)
        factor = RatFunc(t_part)
        xdeg = e[s]
        if xdeg:
            factor = factor * g ** xdeg
        for k in range(s):
            ydeg = e[s + 1 + k]
            if ydeg:
                factor = factor * derivatives[k] ** ydeg
        total = total + factor
    return total.is_zero()


class StratumReport:
    __slots__ = ("p_degree", "q_degree", "pivot", "groebner", "dimension", "exact", "free_count")

    def __init__(self, p_degree, q_degree, pivot, groebner, dimension, exact, free_count):
        self.p_degree = p_degree
        self.q_degree = q_degree
        self.pivot = pivot  # leading monomial of q pinned to 1
        self.groebner = groebner  # printable generators of the coefficient ideal
        self.dimension = dimension
        self.exact = exact  # complete rational enumeration vs sampled
        self.free_count = free_count


class HeightReport:
    __slots__ = (
        "degree_bound", "strata", "solutions", "families",
        "observed_bound", "experimental", "notes",
    )

    def __init__(
        self, degree_bound, strata=None, solutions=None, families=None, observed_bound=0,
        experimental=False, notes=None,
    ):
        self.degree_bound = degree_bound
        self.strata = [] if strata is None else strata
        self.solutions = [] if solutions is None else solutions  # (RatFunc, height)
        self.families = {} if families is None else families  # (num deg, den deg) -> count
        self.observed_bound = observed_bound
        self.experimental = experimental
        self.notes = [] if notes is None else notes


def rational_solution_search(ode, degree_bound):
    """Search x = p/q with deg p, deg q <= degree_bound, q monic.

    Strata run over every pair (max deg p, exact deg q); the union is
    monotone in the bound by construction.  Zero-dimensional coefficient
    systems are enumerated completely over Q; positive-dimensional ones are
    reported symbolically and sampled on solve.SAMPLE_VALUES.  Every
    emitted solution is re-verified exactly.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    tsig = ode.tvars
    s = len(tsig)
    report = HeightReport(degree_bound=degree_bound, experimental=ode.experimental)
    if ode.experimental:
        report.notes.append(
            "multivariate coefficients: experimental pipeline, heights use total degree"
        )
    seen = set()
    for pmax in range(degree_bound + 1):
        for dq in range(pmax + 1):
            for pivot in (e for e in monomials(s, dq) if sum(e) == dq):
                _run_stratum(ode, pmax, dq, pivot, report, seen)
                if s == 1:
                    break  # univariate: t^dq is the only monic choice
    report.solutions.sort(key=lambda pair: (pair[1], pair[0].to_str()))
    for g, h in report.solutions:
        shape = (max(g.num.total_degree(), 0), max(g.den.total_degree(), 0))
        report.families[shape] = report.families.get(shape, 0) + 1
    report.observed_bound = max((h for _, h in report.solutions), default=0)
    return report


def _run_stratum(ode, pmax, dq, pivot, report, seen):
    tsig = ode.tvars
    s = len(tsig)
    key = order_key(GREVLEX)
    p_monos = monomials(s, pmax)
    # q: pivot monomial pinned to 1, strictly grevlex-smaller monomials free
    q_monos = monomials(s, dq)
    q_free = [e for e in q_monos if key(e) < key(pivot)]
    avars = [f"a{i}" for i in range(len(p_monos))]
    bvars = [f"b{i}" for i in range(len(q_free))]
    unknowns = tuple(avars + bvars)
    equations = list(_coefficient_equations(ode, p_monos, avars, q_free, bvars, pivot).values())
    leads = [max(t, key=key) for t in equations]
    basis, leads = buchberger_terms(equations, leads, GREVLEX)
    if any(not any(le) for le in leads):
        report.strata.append(
            StratumReport(pmax, dq, pivot, ["1"], -1, True, 0)
        )
        return
    dim = len(independent_variable_set(leads, len(unknowns)))
    points, exact, free = solve_terms(basis, leads, unknowns, reduced=True)
    # each element monic: its positive leading coefficient is the denominator
    factors = [FactorTable(v, False) for v in unknowns]
    report.strata.append(
        StratumReport(
            pmax,
            dq,
            pivot,
            [print_terms(factors, g[le], g, sorted_exponents(g)) for g, le in zip(basis, leads)],
            dim,
            exact,
            len(free),
        )
    )
    for pt in points:
        gkey = _candidate_key(tsig, p_monos, avars, q_free, bvars, pivot, pt)
        if gkey in seen:
            continue
        # a candidate that fails verification is kept too, so it is noted once
        seen.add(gkey)
        g = gkey if s > 1 else _candidate(tsig, p_monos, avars, q_free, bvars, pivot, pt)
        if not verify_ode_solution(ode, g):
            report.notes.append(f"sample failed exact verification: {g.to_str()}")
            continue
        report.solutions.append((g, height_ratfunc(g)))


def _candidate(tsig, p_monos, avars, q_free, bvars, pivot, pt):
    """The RatFunc p/q of the ansatz at the point pt."""
    p_val = specialize(tsig, p_monos, avars, pt)
    q_val = specialize(tsig, q_free, bvars, pt, lead=pivot)
    return RatFunc(p_val, q_val)


def _candidate_key(tsig, p_monos, avars, q_free, bvars, pivot, pt):
    """A key of the candidate p/q at the point pt: two points have equal
    keys exactly when their RatFuncs are equal.  With one t-variable it is
    _ratfunc_key of the dense coefficient lists; with several, where there is
    no multivariate integer gcd, it is the RatFunc itself."""
    if len(tsig) > 1:
        return _candidate(tsig, p_monos, avars, q_free, bvars, pivot, pt)
    p = [0] * (p_monos[0][0] + 1)
    for name, (k,) in zip(avars, p_monos):
        p[k] = pt[name]
    q = [0] * pivot[0] + [1]
    for name, (k,) in zip(bvars, q_free):
        q[k] = pt[name]
    return _ratfunc_key(p, q)


def _ratfunc_key(p, q):
    """An exact integer key of p/q, for univariate p and q over Q given as
    dense coefficient lists, constant term first, q nonzero: the pair of
    integer coefficient tuples of p/q in lowest terms, scaled so that the
    two share no integer factor and q's leading coefficient is positive.
    Two pairs have equal keys exactly when RatFunc(p1, q1) == RatFunc(p2,
    q2); every zero p has the key of 0/1."""
    den = lcm(*[c.denominator for c in p], *[c.denominator for c in q])
    num_p = _strip([c.numerator * (den // c.denominator) for c in p])
    if not num_p:
        return (), (1,)
    num_q = _strip([c.numerator * (den // c.denominator) for c in q])
    g = _poly_gcd(num_p, num_q)
    if len(g) > 1:
        num_p = _exact_quotient(num_p, g)
        num_q = _exact_quotient(num_q, g)
    joined = _primitive(num_p + num_q)
    return tuple(joined[: len(num_p)]), tuple(joined[len(num_p) :])


# the product of two integer term dicts, as _power_of takes it
_product = partial(mul_integer_terms, None)


def _coefficient_equations(ode, p_monos, avars, q_free, bvars, pivot):
    """The system in the unknowns avars + bvars of x = p/q: a dict from each
    t-monomial of the cleared residual to its coefficient, an integer term
    dict over the unknowns.

    p is the sum of avars[i] * t^p_monos[i], q is t^pivot plus the sum of
    bvars[i] * t^q_free[i], and the residual is q^D * P(p/q, partials of
    p/q), D the least power that clears it.  Every coefficient of the
    ansatz is 1 and P is primitive, so the residual is built on integer term
    dicts (mul_integer_terms), with no Fraction.
    """
    tsig = ode.tvars
    s = len(tsig)
    unknowns = tuple(avars) + tuple(bvars)
    ext = tsig + unknowns
    p_sym = integer_terms(undetermined(tsig, p_monos, avars, ext).terms)[1]
    q_sym = integer_terms(undetermined(tsig, q_free, bvars, ext, lead=pivot).terms)[1]

    # ext starts with tsig: the k-th t-variable sits at index k
    numerators = []
    for k in range(s):
        num = mul_integer_terms(None, partial_terms(p_sym, k), q_sym)
        minus_dq = {e: -c for e, c in partial_terms(q_sym, k).items()}
        numerators.append(mul_integer_terms(num, p_sym, minus_dq))

    _, ode_terms = integer_terms(ode.poly.terms)
    max_pow = 0
    for e in ode_terms:
        max_pow = max(max_pow, e[s] + 2 * sum(e[s + 1 :]))
    one = {(0,) * len(ext): 1}
    p_pows, q_pows = [one, p_sym], [one, q_sym]
    n_pows = [[one, num] for num in numerators]
    pad = (0,) * len(unknowns)
    residual = {}
    for e, c in ode_terms.items():
        xdeg, ydegs = e[s], e[s + 1 :]
        acc = mul_integer_terms(None, {e[:s] + pad: c}, _power_of(p_pows, xdeg, _product))
        for k, yd in enumerate(ydegs):
            if yd:
                acc = mul_integer_terms(None, acc, _power_of(n_pows[k], yd, _product))
        q_pow = _power_of(q_pows, max_pow - xdeg - 2 * sum(ydegs), _product)
        mul_integer_terms(residual, acc, q_pow)

    # the coefficients of the t-monomials: the system in the unknowns
    return split_terms(residual, s)


class AxiomCheck:
    __slots__ = ("checked", "failures")

    def __init__(self, checked=0, failures=None):
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures


def height_axioms_check(samples, powers=(2, 3)):
    """Verify the height laws on explicit samples.

    For pairs (f, g): h(1/g) = h(g) for g != 0, h(g^n) = n h(g),
    h(fg) <= h(f) + h(g), and h(f+g) <= h(f) + h(g); all exact.
    """
    result = AxiomCheck()
    for f, g in samples:
        hf, hg = height_ratfunc(f), height_ratfunc(g)
        if not g.is_zero():
            if height_ratfunc(g.inverse()) != hg:
                result.failures.append(("inverse", g))
            for n in powers:
                if height_ratfunc(g ** n) != n * hg:
                    result.failures.append(("power", g, n))
        if height_ratfunc(f * g) > hf + hg:
            result.failures.append(("product", f, g))
        if height_ratfunc(f + g) > hf + hg:
            result.failures.append(("sum", f, g))
        result.checked += 1
    return result
