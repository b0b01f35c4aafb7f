"""Combinatorics of leader exponent sets and the initial sets they carve out.

Points live in N^m x {1..n} with the componentwise partial order at fixed
variable index: they are the ring's algebraic indeterminates (AlgIndet), a
derivative exponent theta on a dependent variable var, and p lies above e
when p is a derivative of e.  E collects the leaders of an autoreduced set;
the initial set B is everything not above E, always handled through the
co-finite representation (B itself is typically infinite).  On top sit the
dimension counts |B_t|, the finitely many removable points, and the
prolongation level bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import attrgetter

from .diffring import AlgIndet
from .multipoly import exponents_upto, horner, interpolate

_BY_VAR = attrgetter("var", "theta")


class InitialSetRep:
    """Initial set B given co-finitely by the leader exponent set E."""

    __slots__ = ("m", "n", "E")

    def __init__(self, m, n, points):
        self.m = m
        self.n = n
        pts = set()
        for p in points:
            if len(p.theta) != m:
                raise ValueError("exponent length does not match m")
            if not (1 <= p.var <= n):
                raise ValueError(f"variable index {p.var} outside 1..{n}")
            pts.add(p)
        self.E = frozenset(pts)

    def contains(self, p):
        """Membership in B: p lies above no element of E."""
        if len(p.theta) != self.m or not (1 <= p.var <= self.n):
            raise ValueError("point outside the ambient signature")
        return not any(p.is_derivative_of(e) for e in self.E)

    def count_up_to(self, t):
        """|B_t|: points of B with coordinate sum at most t, by enumeration."""
        total = 0
        for j in range(1, self.n + 1):
            ej = [e for e in self.E if e.var == j]
            for r in exponents_upto(self.m, t):
                p = AlgIndet(r, j)
                if not any(p.is_derivative_of(e) for e in ej):
                    total += 1
        return total

    def removable_points(self):
        """All maximal points of B: removing one leaves B downward closed.

        Enumerated over the finite box with coordinate k bounded by
        max{e_k : e in E_j} - 1, which a maximality witness forces.
        """
        out = []
        for j in range(1, self.n + 1):
            ej = [e for e in self.E if e.var == j]
            if not ej:
                continue
            bounds = [max(e.theta[k] for e in ej) for k in range(self.m)]
            for r in product(*[range(b) for b in bounds]):
                p = AlgIndet(r, j)
                if not self.contains(p):
                    continue
                if all(not self.contains(p.derive(k)) for k in range(1, self.m + 1)):
                    out.append(p)
        out.sort(key=_BY_VAR)
        return out

    def removable_points_bruteforce(self, slack=None):
        """Direct maximality scan over an extended simplex; test oracle."""
        if not self.E:
            return []
        bound = max(e.order for e in self.E) + (slack if slack is not None else self.m)
        out = []
        for j in range(1, self.n + 1):
            for r in exponents_upto(self.m, bound):
                p = AlgIndet(r, j)
                if self.contains(p) and all(
                    not self.contains(p.derive(k)) for k in range(1, self.m + 1)
                ):
                    out.append(p)
        out.sort(key=_BY_VAR)
        return out

    def is_downward_closed_without(self, p):
        """Whether B minus {p} is still downward closed.

        Equivalent to maximality of p in B; the equivalence is exercised by
        tests.  Removing p breaks downward closure exactly when some point
        of B sits strictly above p, and a minimal such witness is p plus a
        unit step.
        """
        if not self.contains(p):
            raise ValueError("point not in B")
        return all(not self.contains(p.derive(k)) for k in range(1, self.m + 1))

    def __repr__(self):
        return f"InitialSetRep(m={self.m}, n={self.n}, E={sorted(self.E, key=_BY_VAR)!r})"


def leaders_to_exponents(aset):
    """Leader exponent set E of an autoreduced set: its leaders."""
    ctx = aset.ctx
    return InitialSetRep(ctx.m, ctx.n, aset.leaders())


@dataclass
class DimensionFunction:
    """Values |B_t| for t = 0..T plus eventual-polynomial metadata."""

    values: list
    polynomial: list | None = None  # coefficients c0..cd, exact Fractions
    stable_from: int | None = None

    def __getitem__(self, t):
        return self.values[t]


def dimension_function(rep, max_t):
    values = [rep.count_up_to(t) for t in range(max_t + 1)]
    poly, start = _detect_eventual_polynomial(values, rep.m)
    return DimensionFunction(values=values, polynomial=poly, stable_from=start)


def _detect_eventual_polynomial(values, max_degree):
    """Fit the tail of the sequence by a polynomial of degree <= max_degree.

    Uses finite differences: when the (d+1)-st differences of the tail
    vanish, interpolate the last d+1 points and verify backwards to find
    where the polynomial regime starts.
    """
    n = len(values)
    if n < max_degree + 2:
        return None, None
    diffs = [list(map(Fraction, values))]
    for _ in range(max_degree + 1):
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    top = diffs[max_degree + 1]
    if not top or top[-1] != 0:
        return None, None
    # interpolate through the last max_degree+1 points, extend backwards
    pts = [(t, values[t]) for t in range(n - max_degree - 1, n)]
    coeffs = interpolate(pts)
    start = n - max_degree - 1
    while start > 0 and horner(coeffs, start - 1) == values[start - 1]:
        start -= 1
    return coeffs, start


@dataclass
class LevelBound:
    """Prolongation level l = max(l1, l2) with its two ingredients."""

    level: int
    from_orders: int  # l1: maximum order in the autoreduced set
    from_removable: int  # l2: maximum order of a removable point (0 if none)
    removable: list = field(default_factory=list)


def prolongation_bound(aset):
    """Level beyond which every codimension-one subvariety's dimension
    deficit is visible: the maximum of the set's top order and the largest
    removable-point order."""
    rep = leaders_to_exponents(aset)
    l1 = aset.max_order()
    removable = rep.removable_points()
    l2 = max((p.order for p in removable), default=0)
    return LevelBound(
        level=max(l1, l2),
        from_orders=l1,
        from_removable=l2,
        removable=removable,
    )
