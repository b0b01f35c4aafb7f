"""Buchberger-based Groebner engine over Q, and the owner of term orders.

A term order is an argument of a Groebner run, not a property of a
polynomial: GREVLEX (the default, for staircase dimensions and the
searches) and LEX (for elimination and saturation) name the two orders,
order_key gives a sort key for each, and a GroebnerBasis records the order
it was computed in, which normal_form reads.  A MultiPoly's own leading
term, monic form and text are always grevlex.

Used throughout the package as the independent algebraic oracle: ideal
membership via normal forms, staircase (Krull) dimension by branch-and-bound
independent sets, elimination, and saturation through a single Rabinowitsch
variable.  Saturation returns the reduced lex basis of the saturated ideal
that its elimination computes; the dimension and the normal forms of a
saturated ideal are read from that one basis, since the staircase dimension
does not depend on the term order.

Buchberger's algorithm starts from interreduced inputs: they enter smallest
leading monomial first, each reduced by the ones kept before it, and the
ones that reduce to zero (duplicates, scalar multiples, members of the
ideal the earlier inputs generate) are dropped before they form a pair.
Pairs are kept by the Gebauer-Moeller update (JSC 1988): when h joins the
basis, a queued pair (i, j) is dropped when lead(h) divides its lcm and
that lcm differs from lcm(i, h) and lcm(j, h) (criterion B_k); of h's new
pairs only one per minimal lcm is kept (criterion M), none whose lcm a
coprime pair has (criterion F), and a coprime pair is never queued.  An
element whose leading monomial a later one divides takes no new pairs but
stays a reducer.  Normal selection pops the live pairs from a heap keyed
on each pair's lcm, stored when the pair is formed (ties broken on the
pair's indices), and skips the entries of dropped pairs.  Every basis
element's leading monomial is computed once and reused by the pairs, the
S-polynomials, the reductions and the final interreduction.  The reduced
basis is unique, so none of this changes it.

Reduction is fraction-free: basis elements, S-polynomials and remainders
are dicts from exponent tuples to Python ints, each basis element primitive
with a positive leading coefficient.  A reduction step cross-multiplies,
work := a*work - b*x^shift*g with a, b the leading-coefficient ratio in
lowest terms, so every intermediate polynomial is a nonzero rational
multiple of the one that reduction over Q would build: the leading
monomials, the pairs, the criteria and each chosen divisor are the same.
Only the final reduced basis is made monic over Q, and normal_form divides
its remainder once by the multiplier the steps accumulated.  The algorithm
itself is buchberger_terms, which takes and returns integer term dicts with
their leading monomials; buchberger is its MultiPoly face, and the searches
that build their systems on integers (solve, heights) call it directly.
The independent sets behind the staircase dimension are read off leading
monomials alone, so one routine serves both faces.  The terms left
to reduce sit in a heap with lazy deletion (Monagan-Pearce, JSC 2011), each
key computed once when its monomial enters, and a basis lead is tested for
divisibility only after its support bitmask passes (Singular's short
exponent vectors, Bachmann-Schoenemann, ISSAC 1998); the same bitmasks
decide coprimality and screen the pair criteria's divisibility tests.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, ge, neg, sub

from .multipoly import MultiPoly, grevlex_key, integer_terms

GREVLEX = "grevlex"
LEX = "lex"


def _lex_key(e):
    return e


def order_key(order):
    """Return a sort key on exponent tuples for the given term order tag."""
    if order == GREVLEX:
        return grevlex_key
    if order == LEX:
        return _lex_key
    raise ValueError(f"unknown term order {order!r}")


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _divides(e1, e2):
    return all(map(ge, e2, e1))


def _mask(e):
    """Support bitmask of an exponent tuple: bit i is set when x_i occurs.
    A monomial l cannot divide e when mask(l) & ~mask(e) is nonzero."""
    m = 0
    for i, x in enumerate(e):
        if x:
            m |= 1 << i
    return m


def _grevlex_descending(e):
    return (-sum(e), e[::-1])


def _lex_descending(e):
    return tuple(map(neg, e))


def _descending_key(order):
    """A key whose ascending order is the descending term order: the
    reduction's min-heap pops the greatest monomial first."""
    if order == GREVLEX:
        return _grevlex_descending
    if order == LEX:
        return _lex_descending
    raise ValueError(f"unknown term order {order!r}")


class GroebnerBasis:
    """Immutable: the generators of a basis under the term order, over the
    signature vars; equal and hashed on all three."""

    __slots__ = ("generators", "order", "vars")

    def __init__(self, generators, order, vars=()):
        setattr_ = object.__setattr__
        setattr_(self, "generators", generators)
        setattr_(self, "order", order)
        setattr_(self, "vars", vars)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"GroebnerBasis is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GroebnerBasis, (self.generators, self.order, self.vars)

    def __eq__(self, other):
        if other.__class__ is not GroebnerBasis:
            return NotImplemented
        return (
            self.generators == other.generators
            and self.order == other.order
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.generators, self.order, self.vars))

    def __repr__(self):
        return (
            f"GroebnerBasis(generators={self.generators!r}, order={self.order!r}, "
            f"vars={self.vars!r})"
        )

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _primitive(t, le):
    """(t / g, g) for the gcd g of the integer coefficients of t, signed so
    that the coefficient at the monomial le becomes positive."""
    g = gcd(*t.values())
    if t[le] < 0:
        g = -g
    return (t if g == 1 else {e: c // g for e, c in t.items()}), g


def _integral(p, key):
    """(t, le, c) for a nonzero MultiPoly p: its leading monomial le and the
    primitive integer term dict t, positive at le, with c * t == p."""
    den, t = integer_terms(p.terms)
    le = max(t, key=key)
    t, g = _primitive(t, le)
    return t, le, Fraction(g, den)


def _from_ints(t, scale, vars):
    """The MultiPoly with coefficients scale * t[e]."""
    out = MultiPoly.zero(vars)
    out.terms = {e: c * scale for e, c in t.items()}
    return out


def normal_form(p, basis, order=GREVLEX):
    """Remainder of p on division by the basis; no term divisible by any LT.

    The leading terms are taken under the basis's own order when basis is a
    GroebnerBasis, else under order.  normal_form(p, G) == 0 iff p lies in
    the ideal, when G is a Groebner basis for that order.  The remainder is
    exact, not a scalar multiple.
    """
    if isinstance(basis, GroebnerBasis):
        order = basis.order
    if p.is_zero():
        return MultiPoly.zero(p.vars)
    key = order_key(order)
    ints = [_integral(g, key) for g in basis if not g.is_zero()]
    t, _, content = _integral(p, key)
    leads = [le for _, le, _ in ints]
    rem, mult = _reduce(
        t, [g for g, _, _ in ints], leads, [_mask(le) for le in leads], _descending_key(order)
    )
    return _from_ints(rem, content / mult, p.vars)


def _reduce(t, gens, leads, masks, desc):
    """(r, m): the remainder r of m * t on division by the integer term dicts
    gens, whose leading monomials are leads, with support bitmasks masks,
    and leading coefficients positive; m is the positive integer the
    cross-multiplications built up, so r / m is the remainder of t over Q.

    The terms left to reduce sit in a heap keyed by desc, the descending
    key of the term order: a monomial is pushed when it enters work, and an
    entry whose term has cancelled since is skipped when popped.  Each step
    takes the greatest term and divides by the first lead in basis order
    that divides it.
    """
    rem = {}
    work = dict(t)
    heap = [(desc(e), e) for e in work]
    heapify(heap)
    mult = 1
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        off = ~_mask(e)
        for g, le, lm in zip(gens, leads, masks):
            if not lm & off and _divides(le, e):
                break
        else:
            rem[e] = c
            continue
        lc = g[le]
        d = gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            mult *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        shift = tuple(map(sub, e, le))
        for te, tc in g.items():
            ne = tuple(map(add, te, shift))
            if ne == e:
                continue
            old = work.get(ne)
            if old is None:
                work[ne] = -b * tc
                heappush(heap, (desc(ne), ne))
                continue
            acc = old - b * tc
            if acc:
                work[ne] = acc
            else:
                del work[ne]
    return rem, mult


def s_polynomial(f, g, order):
    key = order_key(order)
    ef = max(f.terms, key=key)
    eg = max(g.terms, key=key)
    cf, cg = f.terms[ef], g.terms[eg]
    lij = _lcm(ef, eg)
    mf = tuple(map(sub, lij, ef))
    mg = tuple(map(sub, lij, eg))
    return f.mul_monomial(mf, 1 / cf) - g.mul_monomial(mg, 1 / cg)


def _s_poly(f, ef, g, eg, lij):
    """An integer multiple of the S-polynomial of the integer term dicts f
    and g with leading monomials ef, eg and their lcm lij."""
    d = gcd(f[ef], g[eg])
    a, b = g[eg] // d, f[ef] // d
    mf = tuple(map(sub, lij, ef))
    mg = tuple(map(sub, lij, eg))
    out = {tuple(map(add, e, mf)): a * c for e, c in f.items()}
    for e, c in g.items():
        ne = tuple(map(add, e, mg))
        acc = out.get(ne, 0) - b * c
        if acc:
            out[ne] = acc
        else:
            del out[ne]
    return out


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by gens under the term
    order: the MultiPoly face of buchberger_terms, each element monic in
    that order over Q."""
    vars = gens[0].vars if gens else ()
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), order, vars)
    key = order_key(order)
    ints = [_integral(g, key) for g in gens]
    basis, leads = buchberger_terms([t for t, _, _ in ints], [le for _, le, _ in ints], order)
    return GroebnerBasis(tuple(_monic(basis, leads, vars)), order, vars)


def buchberger_terms(gens, gen_leads, order):
    """(basis, leads): the reduced Groebner basis, smallest leading monomial
    first, of the ideal generated by the nonzero integer term dicts gens
    with leading monomials gen_leads, each element primitive with a
    positive leading coefficient, as integer term dicts and their leading
    monomials.  The integer core of buchberger: the searches that build
    their systems on integers call it directly.

    The inputs go in smallest lead first, each reduced by the ones kept
    before it; those that reduce to zero are dropped.  Every element that
    joins the basis updates the pairs by Gebauer-Moeller (JSC 1988).
    """
    key = order_key(order)
    desc = _descending_key(order)
    basis, leads, masks = [], [], []
    # active: the elements whose lead no later lead divides; only they take
    # new pairs, the others stay in the basis as reducers
    active = []
    # live pairs (i, j) -> lcm; normal selection pops the heap of
    # (key(lcm), i, j, lcm), smallest lcm first, ties broken on (i, j), and
    # skips the entries of pairs that a later element made redundant
    live = {}
    pairs = []

    def insert(t, le):
        """Add t, with leading monomial le, to the basis as h and update
        the pairs."""
        n = len(basis)
        lm = _mask(le)
        basis.append(t)
        leads.append(le)
        masks.append(lm)
        # criterion B_k: lead(h) divides lcm(i, j), and both lcm(i, h) and
        # lcm(j, h) differ from it, so (i, j) follows from (i, h) and (j, h)
        for (i, j), lij in list(live.items()):
            if (
                not lm & ~(masks[i] | masks[j])
                and _divides(le, lij)
                and lij != _lcm(leads[i], le)
                and lij != _lcm(leads[j], le)
            ):
                del live[i, j]
        # the new pairs by lcm, each lcm with its first active partner, or
        # None once a coprime pair (disjoint supports) has it
        firsts = {}
        for k in active:
            lkn = _lcm(leads[k], le)
            if lm & masks[k]:
                firsts.setdefault(lkn, k)
            else:
                firsts[lkn] = None
        # criterion M keeps one pair per minimal lcm; criterion F drops an
        # lcm that a coprime pair has, and coprime pairs are never pushed
        for lkn, k in firsts.items():
            if k is None or any(m != lkn and _divides(m, lkn) for m in firsts):
                continue
            live[k, n] = lkn
            heappush(pairs, (key(lkn), k, n, lkn))
        active[:] = [k for k in active if lm & ~masks[k] or not _divides(le, leads[k])]
        active.append(n)

    for idx in sorted(range(len(gens)), key=lambda i: key(gen_leads[i])):
        t, le = gens[idx], gen_leads[idx]
        if basis:
            t, _ = _reduce(t, basis, leads, masks, desc)
            if not t:
                continue
            le = max(t, key=key)
        insert(_primitive(t, le)[0], le)
    while pairs:
        _, i, j, lij = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = _s_poly(basis[i], leads[i], basis[j], leads[j], lij)
        r, _ = _reduce(s, basis, leads, masks, desc)
        if r:
            le = max(r, key=key)
            insert(_primitive(r, le)[0], le)
    return _reduced(basis, leads, order)


def _reduced(basis, leads, order):
    """(kept, kept_leads): the reduced basis, smallest leading monomial
    first, as primitive integer term dicts with positive leading
    coefficients, from a Groebner basis of integer term dicts and their
    leading monomials."""
    key = order_key(order)
    desc = _descending_key(order)
    # drop generators whose leading monomial a kept one divides; smaller
    # monomials come first, and of equal ones the first is kept
    kept, kept_leads = [], []
    for idx in sorted(range(len(basis)), key=lambda i: key(leads[i])):
        if not any(_divides(le, leads[idx]) for le in kept_leads):
            kept.append(basis[idx])
            kept_leads.append(leads[idx])
    # tail-reduce each against the others: no kept leading monomial divides
    # another, so reduction keeps every leading term and one pass suffices
    kept_masks = [_mask(le) for le in kept_leads]
    for idx, (g, le) in enumerate(zip(kept, kept_leads)):
        others = kept[:idx] + kept[idx + 1 :]
        if others:
            g, _ = _reduce(
                g,
                others,
                kept_leads[:idx] + kept_leads[idx + 1 :],
                kept_masks[:idx] + kept_masks[idx + 1 :],
                desc,
            )
            kept[idx] = _primitive(g, le)[0]
    return kept, kept_leads


def _monic(basis, leads, vars):
    """The integer term dicts of a basis, with leading monomials leads, as
    MultiPolys whose coefficients at those monomials are 1."""
    return [_from_ints(g, Fraction(1, g[le]), vars) for g, le in zip(basis, leads)]


def _max_independent_set(leads, nvars):
    """Lexicographically first maximum set of variable indices, out of
    range(nvars), containing the support of no leading monomial in leads;
    None for the unit ideal.

    Include-first branch and bound over the variables on the minimal
    supports (Kredel-Weispfenning, JSC 1988): the first maximum set the
    search reaches is the lexicographically first one, and a branch is cut
    once each of a family of pairwise disjoint live supports, needing an
    excluded variable of its own, leaves no room to beat the best set.
    """
    supports = {frozenset(i for i, x in enumerate(le) if x) for le in leads}
    if frozenset() in supports:
        return None
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
    indep = _max_independent_set(_leading_monomials(basis), len(basis.vars))
    return -1 if indep is None else len(indep)


def independent_variable_set(gb, nvars=None):
    """A maximum-cardinality variable subset met by no leading monomial.

    The lexicographically first such subset; empty for the unit ideal.  gb
    is a reduced Groebner basis or, with nvars given, the leading monomials
    of one in nvars variables, as buchberger_terms returns them.
    """
    if nvars is None:
        gb, nvars = _leading_monomials(gb), len(gb.vars)
    indep = _max_independent_set(gb, nvars)
    return set() if indep is None else indep


def _leading_monomials(basis):
    key = order_key(basis.order)
    return [max(g.terms, key=key) for g in basis.generators]


def eliminate_first(gens):
    """Reduced lex basis of the elimination ideal dropping the first variable.

    Computes a lex basis (first variable greatest) and keeps the generators
    free of it, restricted onto the shorter signature: they are a reduced lex
    basis of the elimination ideal (Elimination Theorem).
    """
    gb = buchberger(gens, LEX)
    vars = gb.vars[1:]
    kept = tuple(g.restrict(vars) for g in gb if g.degree_in(0) <= 0)
    return GroebnerBasis(kept, LEX, vars)


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


def saturate(gens, h):
    """Reduced lex basis of the saturation of <gens> by the polynomial h.

    One Rabinowitsch variable z against h: adjoin z*h - 1, eliminate z.
    gens and h share one signature.
    """
    ext = (_SatVar(),) + h.vars
    lifted = [g.restrict(ext) for g in gens]
    rab = MultiPoly.gen(ext, 0) * h.restrict(ext) - 1
    return eliminate_first(lifted + [rab])
