"""Rational solutions of polynomial systems over Q.

Zero-dimensional systems are enumerated completely from one reduced
lexicographic basis, by back substitution (Gianni, EUROCAL 1987;
Kalkbrener, JSC 1997).  Its generators are grouped by leading variable,
the first variable of their lex leading monomial.  Descending from the
last variable to the first, the x_k-coordinates over a partial rational
point a are the rational roots of g(x_k, a), where g is the first generator
of x_k's group (in ascending lex leading monomial) whose leading
coefficient in x_k does not vanish at a.  No basis is recomputed per root;
irrational branches are dropped by design.

Positive-dimensional systems are sampled: the first variable of a maximal
staircase-independent set is specialized over SAMPLE_VALUES and the
solver recurses, so results are deterministic and every returned point
satisfies the system exactly.  When that variable occurs in no generator of
the grevlex basis, every sample value gives the same fiber, whose reduced
grevlex basis is the generators themselves, and the fiber is solved once.
A zero-dimensional system whose grevlex basis has the same leading monomials
under lex already is its reduced lex basis, and is enumerated from it.

When the independent set has exactly one variable, the ideal has dimension
one and its generic fiber is zero-dimensional, so each fiber goes lex
first: one lex run on the specialized generators, and back substitution
from that basis when it is zero-dimensional (the unit ideal included).  A
special value whose fiber is positive-dimensional falls back to the grevlex
recursion, whose basis picks the next pivot.  Either way the points come
from the unique reduced lex basis of the fiber, as before.

The search runs on integers from the system to the point: both public
entries turn their generators into integer term dicts once, and the
recursion (solve_terms) passes (terms, leading monomials) pairs.  A sample
value is substituted on the integers, the shared-fiber and lex-ready tests
read exponents, every Groebner run goes through groebner.buchberger_terms,
back substitution reads integer coefficients, and one Fraction is made per
coordinate of a point.

Both searches by undetermined coefficients, for Darboux polynomials
(dvariety) and for rational solutions of first-order equations (heights),
write their ansatz with undetermined and read each solution point back
into a polynomial with specialize.
"""

from fractions import Fraction

from .factor import integer_rational_roots
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    buchberger_terms,
    independent_variable_set,
    order_key,
)
from .multipoly import MultiPoly, integer_terms

# The parameter values every positive-dimensional system is sampled on.
SAMPLE_VALUES = (0, 1, -1, 2, -2, 3)


def undetermined(sig, monos, names, ext, lead=None):
    """The ansatz x^lead + sum of names[i] * x^monos[i] over ext.

    monos and lead are exponent tuples over sig; ext starts with sig and
    carries every name.  Without lead there is no fixed term.
    """
    pad = (0,) * (len(ext) - len(sig))
    terms = {} if lead is None else {tuple(lead) + pad: 1}
    for name, e in zip(names, monos):
        x = list(e) + list(pad)
        x[ext.index(name)] = 1
        terms[tuple(x)] = 1
    return MultiPoly(ext, terms)


def specialize(sig, monos, names, point, lead=None):
    """undetermined(...) at a rational point {name: value}, over sig."""
    terms = {} if lead is None else {tuple(lead): 1}
    for name, e in zip(names, monos):
        terms[tuple(e)] = point[name]
    return MultiPoly(sig, terms)


def enumerate_rational_points(gens, vars):
    """All rational points of a zero-dimensional system.

    Points come sorted by their last coordinate, then by the one before
    it, and so on.  gens may be a GroebnerBasis; a lex one is used as it
    is, otherwise one lex basis is computed.  Raises ValueError when the
    system is not zero-dimensional.
    """
    vars = tuple(vars)
    reduced = isinstance(gens, GroebnerBasis) and gens.order == LEX
    gens, leads = _integer_generators(gens, LEX)
    if not vars:
        return [{}] if not gens else []
    if not reduced:
        gens, leads = buchberger_terms(gens, leads, LEX)
    points = _back_substitute(gens, leads, vars)
    if points is None:
        raise ValueError("system is not zero-dimensional")
    return points


def _integer_generators(gens, order):
    """The nonzero MultiPolys of gens as integer term dicts, each a positive
    multiple of its polynomial, and their leading monomials."""
    key = order_key(order)
    terms = [integer_terms(g.terms)[1] for g in gens if not g.is_zero()]
    return terms, [max(t, key=key) for t in terms]


def _back_substitute(basis, leads, vars):
    """enumerate_rational_points of the reduced lex basis of integer term
    dicts basis, with leading monomials leads, over vars; None when the
    ideal is not zero-dimensional.

    Over a partial point a the coordinates are rational, p_i / q_i in lowest
    terms; a generator whose later variables x_i occur to degree at most M_i
    is read at a times the product of q_i^M_i, so its coefficients in x_k
    stay integers, and one Fraction is made per coordinate, by the roots.
    """
    if any(not any(le) for le in leads):
        return []
    # groups[k]: (leading degree in x_k, the later variables i that occur,
    # their top degrees M_i, terms as (power of x_k, coefficient, powers of
    # those variables)) in ascending lex leading monomial
    groups = [[] for _ in vars]
    pure = [False] * len(vars)
    for idx in sorted(range(len(basis)), key=leads.__getitem__):
        g, lead = basis[idx], leads[idx]
        k = next(i for i, x in enumerate(lead) if x)
        pure[k] = pure[k] or sum(lead) == lead[k]
        later = [i for i in range(k + 1, len(vars)) if any(e[i] for e in g)]
        tops = [max(e[i] for e in g) for i in later]
        rows = [(e[k], c, [e[i] for i in later]) for e, c in g.items()]
        groups[k].append((lead[k], later, tops, rows))
    # zero-dimensional iff some leading monomial is a pure power of each
    # variable; that generator's leading coefficient is a nonzero constant,
    # so the search below for a generator to read always stops
    if not all(pure):
        return None
    # extend every partial point by one coordinate, last variable first; a
    # partial point's extensions stay together, in ascending root order
    partials = [[None] * len(vars)]
    for k in reversed(range(len(vars))):
        extended = []
        for values in partials:
            for degree, later, tops, rows in groups[k]:
                at = [(values[i].numerator, values[i].denominator) for i in later]
                coeffs = [0] * (degree + 1)
                for j, c, powers in rows:
                    for (num, den), top, x in zip(at, tops, powers):
                        c *= num**x * den ** (top - x)
                    coeffs[j] += c
                if coeffs[degree]:
                    break
            for root, _ in integer_rational_roots(coeffs):
                point = values[:]
                point[k] = root
                extended.append(point)
        partials = extended
    return [dict(zip(vars, values)) for values in partials]


def sampled_rational_solutions(gens, vars):
    """(points, exact, free_vars): rational solutions of an arbitrary system.

    exact is True when the system was zero-dimensional and the enumeration
    is complete; otherwise staircase-independent variables were specialized
    over SAMPLE_VALUES, recursively.  free_vars lists only the variable
    specialized at this top level (or every variable, when there are no
    equations); the ones specialized in the fibers below are not added, so
    len(free_vars) can be less than the dimension.  gens may be a
    GroebnerBasis; a grevlex one is used as it is.
    """
    reduced = isinstance(gens, GroebnerBasis) and gens.order == GREVLEX
    return solve_terms(*_integer_generators(gens, GREVLEX), tuple(vars), reduced)


def solve_terms(gens, leads, vars, reduced=False):
    """sampled_rational_solutions of the nonzero integer term dicts gens,
    with grevlex leading monomials leads, over the tuple vars; with reduced
    set, gens is the reduced grevlex basis of its ideal.

    A fiber is solved on integers too: an integer sample value v is put in
    as c * v**e[p] for the pivot's column p, which is dropped, and the
    fiber's generators go to buchberger_terms, which divides out their
    content.
    """
    if not vars:
        return ([{}] if not gens else []), True, []
    if not gens:
        point = {v: Fraction(0) for v in vars}
        return [point], False, list(vars)
    if not reduced:
        gens, leads = buchberger_terms(gens, leads, GREVLEX)
    if any(not any(le) for le in leads):
        return [], True, []
    indep = independent_variable_set(leads, len(vars))
    if not indep:
        if not _lex_ready(gens, leads):
            gens, leads = buchberger_terms(gens, list(map(max, gens)), LEX)
        return _back_substitute(gens, leads, vars), True, []
    p = min(indep)
    pivot = vars[p]
    rest = vars[:p] + vars[p + 1 :]
    shared = None
    if not any(e[p] for g in gens for e in g):
        # the fiber does not depend on the value: grevlex on the monomials
        # free of the pivot is grevlex on rest, so the generators without
        # the pivot's column are its reduced basis
        fiber = [{e[:p] + e[p + 1 :]: c for e, c in g.items()} for g in gens]
        shared, _, _ = solve_terms(fiber, [le[:p] + le[p + 1 :] for le in leads], rest, True)
    points = []
    for value in SAMPLE_VALUES:
        sub_points = shared
        if sub_points is None:
            fiber, fiber_leads = _specialize_terms(gens, p, value)
            if len(indep) == 1 and fiber:
                # the generic fiber is zero-dimensional: one lex run, unless
                # the value is special and its fiber positive-dimensional
                basis, basis_leads = buchberger_terms(fiber, list(map(max, fiber)), LEX)
                sub_points = _back_substitute(basis, basis_leads, rest)
            if sub_points is None:
                sub_points, _, _ = solve_terms(fiber, fiber_leads, rest)
        coordinate = Fraction(value)
        for q in sub_points:
            point = dict(q)
            point[pivot] = coordinate
            points.append(point)
    return points, False, [pivot]


def _lex_ready(gens, leads):
    """Whether the reduced grevlex basis gens, with leading monomials leads,
    of a zero-dimensional ideal I is its reduced lex basis too.

    It is when every generator has the same leading monomial under lex as
    under grevlex: then <LT_lex(gens)> = in_grevlex(I) lies in in_lex(I),
    and both have colength dim Q[x]/I.
    """
    return all(max(g) == le for g, le in zip(gens, leads))


def _specialize_terms(gens, p, value):
    """The nonzero images of the integer term dicts gens at x_p = value, an
    integer, with the column p dropped, and their grevlex leading monomials."""
    key = order_key(GREVLEX)
    out, leads = [], []
    for g in gens:
        t = {}
        for e, c in g.items():
            x = e[p]
            if x:
                if not value:
                    continue
                c *= value**x
            e = e[:p] + e[p + 1 :]
            acc = t.get(e, 0) + c
            if acc:
                t[e] = acc
            else:
                del t[e]
        if t:
            out.append(t)
            leads.append(max(t, key=key))
    return out, leads
