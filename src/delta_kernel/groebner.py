"""Buchberger-based Groebner engine over Q.

Used throughout the package as the independent algebraic oracle: ideal
membership via normal forms, staircase (Krull) dimension by branch-and-bound
independent sets, elimination, and saturation through a single Rabinowitsch
variable.  Normal pair selection pops S-pairs from a heap keyed on each
pair's lcm, stored when the pair is formed (ties broken on the pair's
indices); the coprimality and chain criteria skip pairs, and every basis
element's leading monomial is computed once and reused by the pairs, the
S-polynomials, the reductions and the final interreduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

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
    return _reduce(p, gens, [max(g.terms, key=key) for g in gens], key, order)


def _reduce(p, gens, leads, key, order):
    """normal_form of p by nonzero gens whose leading monomials are leads."""
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
    return _s_poly(f, ef, g, eg, _lcm(ef, eg))


def _s_poly(f, ef, g, eg, lcm):
    """s_polynomial of f and g with leading monomials ef, eg and their lcm."""
    mf = tuple(a - b for a, b in zip(lcm, ef))
    mg = tuple(a - b for a, b in zip(lcm, eg))
    return f.mul_monomial(mf, 1 / f.terms[ef]) - g.mul_monomial(mg, 1 / g.terms[eg])


def _monic(p, key):
    """(p with leading coefficient 1, its leading monomial) for nonzero p."""
    le = max(p.terms, key=key)
    return p.scale(1 / p.terms[le]), le


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
    basis, leads = [], []
    for g in gens:
        g, le = _monic(g.with_order(order), key)
        if g not in basis:
            basis.append(g)
            leads.append(le)
    # normal selection: a heap of (key(lcm), i, j, lcm), smallest lcm first,
    # ties broken on (i, j); each pair is pushed once, when it is formed
    pairs = []
    handled = set()

    def form_pairs(new):
        for k in range(new):
            lcm = _lcm(leads[k], leads[new])
            heappush(pairs, (key(lcm), k, new, lcm))

    def chain_skip(i, j, lij):
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lij):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) in handled and (c, d) in handled:
                    return True
        return False

    for new in range(1, len(basis)):
        form_pairs(new)
    while pairs:
        _, i, j, lij = heappop(pairs)
        handled.add((i, j))
        if _coprime(leads[i], leads[j]):
            continue
        if chain_skip(i, j, lij):
            continue
        s = _s_poly(basis[i], leads[i], basis[j], leads[j], lij)
        r = _reduce(s, basis, leads, key, order)
        if r.is_zero():
            continue
        r, le = _monic(r, key)
        basis.append(r)
        leads.append(le)
        form_pairs(len(basis) - 1)
    return GroebnerBasis(tuple(_interreduce(basis, order, leads)), order, vars)


def _interreduce(basis, order, leads=None):
    """Reduced basis, smallest leading monomial first, from a Groebner basis
    and its leading monomials (computed when not given)."""
    key = order_key(order)
    if leads is None:
        basis = [g for g in basis if not g.is_zero()]
        leads = [max(g.terms, key=key) for g in basis]
    # drop generators whose leading monomial a kept one divides; smaller
    # monomials come first, and of equal ones the first is kept
    kept, kept_leads = [], []
    for idx in sorted(range(len(basis)), key=lambda i: key(leads[i])):
        if not any(_divides(le, leads[idx]) for le in kept_leads):
            kept.append(basis[idx])
            kept_leads.append(leads[idx])
    # tail-reduce each against the others: no kept leading monomial divides
    # another, so reduction keeps every leading term and one pass suffices
    for idx, (g, le) in enumerate(zip(kept, kept_leads)):
        others = kept[:idx] + kept[idx + 1 :]
        if others:
            g = _reduce(g, others, kept_leads[:idx] + kept_leads[idx + 1 :], key, order)
        kept[idx] = g.scale(1 / g.terms[le])
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
