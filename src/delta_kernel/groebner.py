"""Buchberger-based Groebner engine over Q.

Used throughout the package as the independent algebraic oracle: ideal
membership via normal forms, staircase (Krull) dimension by branch-and-bound
independent sets, elimination, and saturation through a single Rabinowitsch
variable.  Normal pair selection with the coprimality and chain criteria
keeps desk-scale runs fast and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .multipoly import GREVLEX, LEX, MultiPoly, order_key


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _coprime(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    order: str
    vars: tuple = ()
    reduced: bool = True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def is_unit_ideal(self):
        return any(g.is_constant() and not g.is_zero() for g in self.generators)


def normal_form(p, basis, order=None):
    """Remainder of p on division by the basis; no term divisible by any LT.

    normal_form(p, G) == 0 iff p lies in the ideal, when G is a Groebner
    basis for the order.
    """
    gens = list(basis.generators) if isinstance(basis, GroebnerBasis) else list(basis)
    if order is None:
        order = basis.order if isinstance(basis, GroebnerBasis) else p.order
    key = order_key(order)
    gens = [g for g in gens if not g.is_zero()]
    leads = [max(g.terms, key=key) for g in gens]
    rem = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        hit = None
        for g, le in zip(gens, leads):
            if _divides(le, e):
                hit = (g, le)
                break
        if hit is None:
            rem[e] = rem.get(e, Fraction(0)) + c
            if not rem[e]:
                del rem[e]
            continue
        g, le = hit
        factor = c / g.terms[le]
        shift = tuple(a - b for a, b in zip(e, le))
        for ge, gc in g.terms.items():
            ne = tuple(a + b for a, b in zip(ge, shift))
            if ne == e:
                continue
            acc = work.get(ne, Fraction(0)) - factor * gc
            if acc:
                work[ne] = acc
            elif ne in work:
                del work[ne]
    out = MultiPoly.zero(p.vars, order)
    out.terms = rem
    return out


def s_polynomial(f, g, order):
    key = order_key(order)
    ef = max(f.terms, key=key)
    eg = max(g.terms, key=key)
    lcm = _lcm(ef, eg)
    mf = tuple(a - b for a, b in zip(lcm, ef))
    mg = tuple(a - b for a, b in zip(lcm, eg))
    return f.mul_monomial(mf, 1 / f.terms[ef]) - g.mul_monomial(mg, 1 / g.terms[eg])


def buchberger(gens, order=None):
    """Reduced Groebner basis of the ideal generated by gens."""
    all_vars = gens[0].vars if gens else ()
    gens = [g for g in gens if not g.is_zero()]
    if order is None:
        order = gens[0].order if gens else GREVLEX
    if not gens:
        return GroebnerBasis((), order, all_vars)
    vars = gens[0].vars
    key = order_key(order)
    basis = []
    for g in gens:
        g = g.with_order(order).monic(order)
        if g not in basis:
            basis.append(g)
    leads = [max(g.terms, key=key) for g in basis]
    pairs = set(combinations(range(len(basis)), 2))
    handled = set()

    def chain_skip(i, j):
        lij = _lcm(leads[i], leads[j])
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lij):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) in handled and (c, d) in handled:
                    return True
        return False

    while pairs:
        # normal selection: smallest lcm in the term order
        i, j = min(pairs, key=lambda p: key(_lcm(leads[p[0]], leads[p[1]])))
        pairs.discard((i, j))
        handled.add((i, j))
        if _coprime(leads[i], leads[j]):
            continue
        if chain_skip(i, j):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        r = r.monic(order)
        basis.append(r)
        leads.append(max(r.terms, key=key))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
    return GroebnerBasis(tuple(_interreduce(basis, order)), order, vars)


def _interreduce(basis, order):
    key = order_key(order)
    # drop generators whose leading term another leading term divides
    basis = sorted((g for g in basis if not g.is_zero()), key=lambda g: key(max(g.terms, key=key)))
    kept = []
    for idx, g in enumerate(basis):
        lg = max(g.terms, key=key)
        if any(
            _divides(max(h.terms, key=key), lg)
            for jdx, h in enumerate(basis)
            if jdx != idx and (jdx < idx or max(h.terms, key=key) != lg)
        ):
            continue
        kept.append(g)
    # tail-reduce each against the others
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            r = normal_form(kept[idx], others, order) if others else kept[idx]
            r = r.monic(order) if not r.is_zero() else r
            if r != kept[idx]:
                kept[idx] = r
                changed = True
        kept = [g for g in kept if not g.is_zero()]
    kept.sort(key=lambda g: key(max(g.terms, key=key)))
    return kept


def _max_independent_set(basis):
    """Lexicographically first maximum set of variable indices containing the
    support of no leading monomial; None for the unit ideal.

    Include-first branch and bound over the variables on the minimal
    supports (Kredel-Weispfenning, JSC 1988): the first maximum set the
    search reaches is the lexicographically first one, and a branch is cut
    once each of a family of pairwise disjoint live supports, needing an
    excluded variable of its own, leaves no room to beat the best set.
    """
    key = order_key(basis.order)
    supports = {
        frozenset(i for i, x in enumerate(max(g.terms, key=key)) if x)
        for g in basis.generators
    }
    if frozenset() in supports:
        return None
    nvars = len(basis.vars)
    chosen, best = [], []

    def search(v, live):
        # live: parts of the supports not yet hit by an excluded variable,
        # outside the chosen ones, all within v..nvars-1
        nonlocal best
        bound = len(chosen) + nvars - v
        hit = set()
        for s in live:
            if hit.isdisjoint(s):
                hit |= s
                bound -= 1
        if bound <= len(best):
            return
        if v == nvars:
            best = chosen[:]
            return
        if {v} not in live:
            chosen.append(v)
            search(v + 1, [s - {v} for s in live])
            chosen.pop()
        search(v + 1, [s for s in live if v not in s])

    search(0, [s for s in supports if not any(t < s for t in supports)])
    return set(best)


def ideal_dimension(basis):
    """Staircase dimension of a reduced Groebner basis.

    Largest cardinality of a variable subset S such that no leading monomial
    involves only variables from S; -1 for the unit ideal, the full variable
    count for the zero ideal.
    """
    if not isinstance(basis, GroebnerBasis):
        if not basis:
            raise ValueError("pass a GroebnerBasis to take the zero ideal's dimension")
        basis = GroebnerBasis(tuple(basis), basis[0].order, basis[0].vars)
    indep = _max_independent_set(basis)
    return -1 if indep is None else len(indep)


def independent_variable_set(gb):
    """A maximum-cardinality variable subset met by no leading monomial.

    The lexicographically first such subset; empty for the unit ideal.
    """
    indep = _max_independent_set(gb)
    return set() if indep is None else indep


def dimension_of(gens, nvars, order=GREVLEX):
    """Staircase dimension of <gens> inside a ring with nvars variables."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return nvars
    return ideal_dimension(buchberger(gens, order))


def eliminate_first(gens, order=LEX):
    """Generators of the elimination ideal dropping the first variable.

    Computes a lex basis (first variable greatest) and keeps the generators
    free of it, restricted onto the shorter signature.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    vars = gens[0].vars
    gb = buchberger(gens, LEX)
    kept = []
    for g in gb.generators:
        if g.degree_in(0) <= 0:
            kept.append(g.restrict(vars[1:]).with_order(order))
    return kept


class _SatVar:
    """Fresh variable id for Rabinowitsch saturation."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "@sat"


def saturate(gens, h, order=GREVLEX):
    """Generators of the saturation of <gens> by the polynomial h.

    One Rabinowitsch variable z against h: adjoin z*h - 1, eliminate z.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    if h.is_constant():
        return [g.with_order(order) for g in gens]
    vars = gens[0].vars
    z = _SatVar()
    ext = (z,) + vars
    lifted = [g.restrict(ext) for g in gens]
    rab = MultiPoly.var(ext, z, LEX) * h.restrict(ext) - MultiPoly.const(ext, 1, LEX)
    return [g.with_order(order) for g in eliminate_first(lifted + [rab])]
