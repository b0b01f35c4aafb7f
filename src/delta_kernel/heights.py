"""Function-field heights on Q(t) and the bounded-height experiment for
first-order differential equations P(x, x') = 0.

The height of p/q in lowest terms is max(deg p, deg q): the degree of the
polar divisor on the projective line, poles at infinity included.  The
search side substitutes a rational-function ansatz into P, clears
denominators, and hands the resulting coefficient system to the Groebner
engine; every emitted solution is re-verified exactly and the observed
height bound is reported.

The multivariate extension (coefficients in Q(t1..ts), one derivation per
variable) rides the same pipeline and is flagged experimental.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .groebner import GREVLEX, buchberger, ideal_dimension
from .multipoly import MultiPoly, coefficients, exponents_upto, order_key
from .ratfunc import RatFunc
from .solve import sampled_rational_solutions, specialize, undetermined


def height_ratfunc(g):
    """max(deg num, deg den) of a rational function in lowest terms.

    Zero exactly on the constants; extends degree on polynomials.
    """
    if isinstance(g, MultiPoly):
        g = RatFunc(g)
    if g.is_zero():
        return 0
    return max(g.num.total_degree(), g.den.total_degree())


class OdePoly:
    """Nonzero P in Q(t1..ts)[x, y1..ys], denominators cleared, content out.

    s = 1 is the ordinary case P(x, x'); s > 1 is the partial extension with
    y_k standing for the k-th partial derivative (experimental).
    """

    def __init__(self, poly, tvars=("t",)):
        self.tvars = tuple(tvars)
        s = len(self.tvars)
        self.yvars = ("y",) if s == 1 else tuple(f"y{k}" for k in range(1, s + 1))
        self.sig = self.tvars + ("x",) + self.yvars
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


@dataclass
class StratumReport:
    p_degree: int
    q_degree: int
    pivot: tuple  # leading monomial of q pinned to 1
    groebner: list  # printable generators of the coefficient ideal
    dimension: int
    exact: bool  # complete rational enumeration vs sampled
    free_count: int


@dataclass
class HeightReport:
    degree_bound: int
    strata: list = field(default_factory=list)
    solutions: list = field(default_factory=list)  # (RatFunc, height)
    families: dict = field(default_factory=dict)  # (num deg, den deg) -> count
    observed_bound: int = 0
    experimental: bool = False
    notes: list = field(default_factory=list)

    def solution_set(self):
        return {(g.num, g.den) for g, _ in self.solutions}


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
    key = order_key(GREVLEX)
    for pmax in range(degree_bound + 1):
        for dq in range(pmax + 1):
            exponents = sorted(exponents_upto(s, dq), key=key, reverse=True)
            for pivot in (e for e in exponents if sum(e) == dq):
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
    p_monos = sorted(exponents_upto(s, pmax), key=key, reverse=True)
    # q: pivot monomial pinned to 1, strictly grevlex-smaller monomials free
    q_monos = sorted(exponents_upto(s, dq), key=key, reverse=True)
    q_free = [e for e in q_monos if key(e) < key(pivot)]
    avars = [f"a{i}" for i in range(len(p_monos))]
    bvars = [f"b{i}" for i in range(len(q_free))]
    unknowns = tuple(avars + bvars)
    ext = tsig + unknowns
    p_sym = undetermined(tsig, p_monos, avars, ext)
    q_sym = undetermined(tsig, q_free, bvars, ext, lead=pivot)

    # ext starts with tsig: the k-th t-variable sits at index k
    numerators = [p_sym.partial(k) * q_sym - p_sym * q_sym.partial(k) for k in range(s)]

    max_pow = 0
    for e in ode.poly.terms:
        xdeg = e[s]
        ydeg = sum(e[s + 1 + k] for k in range(s))
        max_pow = max(max_pow, xdeg + 2 * ydeg)
    residual = MultiPoly.zero(ext)
    for e, c in ode.poly.terms.items():
        xdeg = e[s]
        ydegs = [e[s + 1 + k] for k in range(s)]
        factor = MultiPoly.monomial(tsig, e[:s], c).restrict(ext)
        factor = factor * p_sym ** xdeg
        for k, yd in enumerate(ydegs):
            if yd:
                factor = factor * numerators[k] ** yd
        factor = factor * q_sym ** (max_pow - xdeg - 2 * sum(ydegs))
        residual = residual + factor

    # the coefficients of the t-monomials: the system in the unknowns
    equations = list(coefficients(residual, len(tsig)).values())
    gb = buchberger(equations or [MultiPoly.zero(unknowns)], GREVLEX)
    if gb.is_unit_ideal():
        report.strata.append(
            StratumReport(pmax, dq, pivot, ["1"], -1, True, 0)
        )
        return
    dim = ideal_dimension(gb)
    points, exact, free = sampled_rational_solutions(gb, unknowns)
    report.strata.append(
        StratumReport(
            pmax,
            dq,
            pivot,
            [g.to_str() for g in gb.generators],
            dim,
            exact,
            len(free),
        )
    )
    for pt in points:
        p_val = specialize(tsig, p_monos, avars, pt)
        q_val = specialize(tsig, q_free, bvars, pt, lead=pivot)
        g = RatFunc(p_val, q_val)
        gkey = (g.num, g.den)
        if gkey in seen:
            continue
        if not verify_ode_solution(ode, g):
            report.notes.append(f"sample failed exact verification: {g.to_str()}")
            continue
        seen.add(gkey)
        report.solutions.append((g, height_ratfunc(g)))


@dataclass
class AxiomCheck:
    checked: int = 0
    failures: list = field(default_factory=list)

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
