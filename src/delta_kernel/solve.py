"""Rational solutions of polynomial systems over Q.

Zero-dimensional systems are enumerated completely (lexicographic bases,
back substitution, rational root extraction; irrational branches are
dropped by design).  Positive-dimensional systems are sampled: a maximal
staircase-independent variable is specialized over a fixed parameter list
and the solver recurses, so results are deterministic and every returned
point satisfies the system exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .factor import rational_roots
from .groebner import GREVLEX, LEX, GroebnerBasis, buchberger, independent_variable_set
from .multipoly import poly_gcd


def enumerate_rational_points(gens, vars):
    """All rational points of a zero-dimensional system.

    Recomputes a lexicographic basis at each level, peels rational roots of
    the elimination ideal in the smallest variable, substitutes, recurses.
    """
    vars = tuple(vars)
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return [{}] if not gens else []
    if not gens:
        raise ValueError("system is not zero-dimensional")
    gb = buchberger(gens, LEX)
    if gb.is_unit_ideal():
        return []
    last = vars[-1]
    last_index = len(vars) - 1
    univariate = [
        g for g in gb.generators if g.support_indices() <= {last_index}
    ]
    if not univariate:
        raise ValueError("system is not zero-dimensional")
    elim = univariate[0]
    for g in univariate[1:]:
        elim = poly_gcd(elim, g)
    if elim.is_constant():
        return []
    points = []
    for root, _ in rational_roots(elim):
        reduced = [g.substitute({last: root}) for g in gb.generators]
        reduced = [g.restrict(vars[:-1]) for g in reduced if not g.is_zero()]
        for partial in enumerate_rational_points(reduced, vars[:-1]):
            point = dict(partial)
            point[last] = root
            points.append(point)
    return points


def sampled_rational_solutions(gens, vars, sample_values=(0, 1, -1, 2, -2, 3), _free=None):
    """(points, exact, free_vars): rational solutions of an arbitrary system.

    exact is True when the system was zero-dimensional and the enumeration
    is complete; otherwise staircase-independent variables were specialized
    over sample_values and free_vars lists them.  gens may be a
    GroebnerBasis; a grevlex one is used as it is.
    """
    vars = tuple(vars)
    free = list(_free) if _free else []
    gb = gens if isinstance(gens, GroebnerBasis) and gens.order == GREVLEX else None
    gens = [g for g in gens if not g.is_zero()]
    if not vars:
        return ([{}] if not gens else []), True, free
    if not gens:
        point = {v: Fraction(0) for v in vars}
        return [point], False, free + list(vars)
    if gb is None:
        gb = buchberger(gens, GREVLEX)
    if gb.is_unit_ideal():
        return [], True, free
    indep = independent_variable_set(gb)
    if not indep:
        return enumerate_rational_points(list(gb.generators), vars), True, free
    pivot_index = min(indep)
    pivot = vars[pivot_index]
    rest = vars[:pivot_index] + vars[pivot_index + 1 :]
    points = []
    for value in sample_values:
        value = Fraction(value)
        reduced = [g.substitute({pivot: value}) for g in gb.generators]
        reduced = [g.restrict(rest) for g in reduced if not g.is_zero()]
        sub_points, _, _ = sampled_rational_solutions(
            reduced, rest, sample_values, _free=free + [pivot]
        )
        for p in sub_points:
            point = dict(p)
            point[pivot] = value
            points.append(point)
    return points, False, free + [pivot]
