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
A zero-dimensional fiber whose grevlex basis has the same leading monomials
under lex already is its reduced lex basis, and is enumerated from it.

Both searches by undetermined coefficients, for Darboux polynomials
(dvariety) and for rational solutions of first-order equations (heights),
write their ansatz with undetermined and read each solution point back
into a polynomial with specialize.
"""

from __future__ import annotations

from fractions import Fraction

from .factor import rational_roots
from .groebner import GREVLEX, LEX, GroebnerBasis, buchberger, independent_variable_set
from .multipoly import MultiPoly, from_dense, order_key

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
    gb = gens if isinstance(gens, GroebnerBasis) and gens.order == LEX else None
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return [{}] if not gens else []
    if not gens:
        raise ValueError("system is not zero-dimensional")
    if gb is None:
        gb = buchberger(gens, LEX)
    if gb.is_unit_ideal():
        return []
    # groups[k]: (leading degree in x_k, terms as (power of x_k, coefficient,
    # later variables' (index, exponent))) in ascending lex leading monomial
    groups = [[] for _ in vars]
    pure = [False] * len(vars)
    for g in sorted(gb.generators, key=lambda g: max(g.terms)):
        lead = max(g.terms)
        k = next(i for i, x in enumerate(lead) if x)
        pure[k] = pure[k] or sum(lead) == lead[k]
        rows = [
            (e[k], c, [(i, x) for i, x in enumerate(e) if x and i > k])
            for e, c in g.terms.items()
        ]
        groups[k].append((lead[k], rows))
    # zero-dimensional iff some leading monomial is a pure power of each
    # variable; that generator's leading coefficient is a nonzero constant,
    # so the search in descend always stops at a generator
    if not all(pure):
        raise ValueError("system is not zero-dimensional")
    points = []
    values = [None] * len(vars)

    def descend(k):
        if k < 0:
            points.append(dict(zip(vars, values)))
            return
        for degree, rows in groups[k]:
            coeffs = [0] * (degree + 1)
            for j, c, tail in rows:
                for i, x in tail:
                    c *= values[i] ** x
                coeffs[j] += c
            if coeffs[degree]:
                break
        for root, _ in rational_roots(from_dense(coeffs, (vars[k],))):
            values[k] = root
            descend(k - 1)

    descend(len(vars) - 1)
    return points


def _lex_ready(gb):
    """gb re-tagged as the reduced lex basis of its ideal, or None.

    gb is a reduced grevlex basis of a zero-dimensional ideal I.  When every
    generator has the same leading monomial under lex as under grevlex,
    <LT_lex(gb)> = in_grevlex(I) lies in in_lex(I), and both have colength
    dim Q[x]/I, so gb already is the reduced lex basis.
    """
    grevlex = order_key(GREVLEX)
    if any(max(g.terms) != max(g.terms, key=grevlex) for g in gb.generators):
        return None
    gens = sorted((g.with_order(LEX) for g in gb.generators), key=lambda g: max(g.terms))
    return GroebnerBasis(tuple(gens), LEX, gb.vars)


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
    vars = tuple(vars)
    gb = gens if isinstance(gens, GroebnerBasis) and gens.order == GREVLEX else None
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return ([{}] if not gens else []), True, []
    if not gens:
        point = {v: Fraction(0) for v in vars}
        return [point], False, list(vars)
    if gb is None:
        gb = buchberger(gens, GREVLEX)
    if gb.is_unit_ideal():
        return [], True, []
    indep = independent_variable_set(gb)
    if not indep:
        lex = _lex_ready(gb)
        return enumerate_rational_points(gb if lex is None else lex, vars), True, []
    pivot_index = min(indep)
    pivot = vars[pivot_index]
    rest = vars[:pivot_index] + vars[pivot_index + 1 :]
    shared = None
    if not any(e[pivot_index] for g in gb.generators for e in g.terms):
        # the fiber does not depend on the value: grevlex on the monomials
        # free of the pivot is grevlex on rest, so the restricted generators
        # are its reduced basis
        fiber = GroebnerBasis(tuple(g.restrict(rest) for g in gb.generators), GREVLEX, rest)
        shared, _, _ = sampled_rational_solutions(fiber, rest)
    points = []
    for value in SAMPLE_VALUES:
        value = Fraction(value)
        sub_points = shared
        if sub_points is None:
            reduced = [g.substitute({pivot: value}) for g in gb.generators]
            reduced = [g.restrict(rest) for g in reduced if not g.is_zero()]
            sub_points, _, _ = sampled_rational_solutions(reduced, rest)
        for p in sub_points:
            point = dict(p)
            point[pivot] = value
            points.append(point)
    return points, False, [pivot]
