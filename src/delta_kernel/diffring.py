"""Differential polynomial rings with m commuting derivations.

A differential polynomial is an ordinary polynomial in algebraic
indeterminates: symbols carrying a derivative multi-index (e1..em) and a
dependent-variable index j.  The canonical ranking compares
(order, variable index, em, ..., e1) lexicographically.  On top of the
ranking sit leaders, separants, initials, autoreduced sets, and partial
reduction with exact certificates.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .multipoly import (
    MultiPoly,
    SignatureMismatchError,
    add_packed_products,
    coeff_of_power,
    from_integer_terms,
    integer_terms,
    mul_packed_terms,
    packed_width,
    packer,
    pseudo_divide_terms,
    reindexer,
    widen,
)


class AlgIndet:
    """The algebraic indeterminate with derivative exponents theta = (e1..em)
    applied to dependent variable u_var.

    Immutable, equal and hashed on (theta, var); the hash and the rank key
    are computed once, since signatures sort and look up indeterminates
    again and again.
    """

    __slots__ = ("theta", "var", "_rank_key", "_hash")

    def __init__(self, theta, var):
        setattr_ = object.__setattr__
        setattr_(self, "theta", theta)
        setattr_(self, "var", var)
        setattr_(self, "_rank_key", (sum(theta), var, *reversed(theta)))
        setattr_(self, "_hash", hash((theta, var)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"AlgIndet is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return AlgIndet, (self.theta, self.var)

    def __eq__(self, other):
        if other.__class__ is not AlgIndet:
            return NotImplemented
        return self.theta == other.theta and self.var == other.var

    def __hash__(self):
        return self._hash

    @property
    def order(self):
        return self._rank_key[0]

    def rank_key(self):
        return self._rank_key

    def derive(self, k):
        """The indeterminate one derivation step further in direction k (1-based)."""
        e = list(self.theta)
        e[k - 1] += 1
        return AlgIndet(tuple(e), self.var)

    def is_proper_derivative_of(self, other):
        if self.var != other.var or self.theta == other.theta:
            return False
        return all(a >= b for a, b in zip(self.theta, other.theta))

    def is_derivative_of(self, other):
        return self.var == other.var and all(
            a >= b for a, b in zip(self.theta, other.theta)
        )

    def __repr__(self):
        return indet_name(self)


def indet_name(v):
    parts = []
    for k, e in enumerate(v.theta, start=1):
        if e == 1:
            parts.append(f"d{k}")
        elif e > 1:
            parts.append(f"d{k}^{e}")
    parts.append(f"u{v.var}")
    return "*".join(parts)


class CoeffGen:
    """A coefficient-field generator t_index (transcendental over Q)."""

    __slots__ = ("index",)

    def __init__(self, index):
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"CoeffGen is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return CoeffGen, (self.index,)

    def __eq__(self, other):
        if other.__class__ is not CoeffGen:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return f"t{self.index}"


def rank_compare(v, w):
    """-1, 0, or 1 per the canonical ranking on algebraic indeterminates."""
    if len(v.theta) != len(w.theta):
        raise SignatureMismatchError("indeterminates from different derivation counts")
    a, b = v.rank_key(), w.rank_key()
    return (a > b) - (a < b)


class DiffContext:
    """Signature of a differential polynomial ring.

    m derivations, n dependent variables, and an optional coefficient field
    Q(t1..ts) whose generators carry a declared polynomial action of each
    derivation (zero action means a constant coefficient field).
    """

    __slots__ = ("m", "n", "coeff_gens", "actions", "action_terms")

    def __init__(self, m, n, coeff_gens=0, actions=None):
        if m < 1 or n < 1:
            raise ValueError("need at least one derivation and one variable")
        self.m = m
        self.n = n
        self.coeff_gens = tuple(CoeffGen(i) for i in range(1, coeff_gens + 1))
        base_sig = self.coeff_gens
        self.actions = {}  # (k, i) -> MultiPoly over the t-generators
        for (k, i), poly in (actions or {}).items():
            if not (1 <= k <= m) or not (1 <= i <= coeff_gens):
                raise ValueError(f"action index ({k},{i}) out of range")
            if not isinstance(poly, MultiPoly):
                raise TypeError("actions must be MultiPoly over the t-generators")
            self.actions[(k, i)] = poly.restrict(base_sig)
        # per direction, the nonzero actions on sparse monomials over one
        # denominator: (den, {generator index: integer term dict})
        self.action_terms = []
        for k in range(1, m + 1):
            acts = {i: sparse_terms(p) for (j, i), p in self.actions.items() if j == k and p}
            den = lcm(*[d for d, _ in acts.values()])
            self.action_terms.append(
                (den, {i: {x: c * (den // d) for x, c in T.items()} for i, (d, T) in acts.items()})
            )

    def is_constant_field(self):
        return all(p.is_zero() for p in self.actions.values())

    def __eq__(self, other):
        if not isinstance(other, DiffContext):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.coeff_gens == other.coeff_gens
            and self.actions == other.actions
        )

    def __repr__(self):
        return f"DiffContext(m={self.m}, n={self.n}, s={len(self.coeff_gens)})"

    # ---------- element constructors ----------

    def indet(self, theta, var):
        theta = tuple(theta)
        if len(theta) != self.m:
            raise ValueError("derivative index length must equal m")
        if any(e < 0 for e in theta):
            raise ValueError("derivative exponents must be nonnegative")
        if not (1 <= var <= self.n):
            raise ValueError(f"variable index {var} outside 1..{self.n}")
        v = AlgIndet(theta, var)
        body = MultiPoly.var(self._signature((v,)), v)
        return DiffPoly(self, body)

    def u(self, var=1):
        return self.indet((0,) * self.m, var)

    def d(self, k, f, times=1):
        for _ in range(times):
            f = apply_derivation(f, k)
        return f

    def const(self, c):
        sig = self._signature(())
        return DiffPoly(self, MultiPoly.const(sig, c))

    def t(self, index=1):
        gen = CoeffGen(index)
        if gen not in self.coeff_gens:
            raise ValueError(f"coefficient generator t{index} not declared")
        return DiffPoly(self, MultiPoly.var(self._signature(()), gen))

    def _signature(self, vars):
        """The one ordering of indeterminates in this ring: the algebraic
        indeterminates among vars in strictly decreasing rank, then the
        coefficient generators, which the term order thus treats as the
        smallest variables."""
        indets = {v for v in vars if isinstance(v, AlgIndet)}
        return tuple(sorted(indets, key=AlgIndet.rank_key, reverse=True)) + self.coeff_gens


class DiffPoly:
    """A differential polynomial.

    The body is a MultiPoly whose signature is one that
    DiffContext._signature builds: algebraic indeterminates in strictly
    decreasing rank, then the context's coefficient generators.  The
    signature may carry indeterminates that do not occur, so equality and
    hashing look at the occurring ones only.
    """

    __slots__ = ("ctx", "body")

    def __init__(self, ctx, body):
        self.ctx = ctx
        self.body = body

    # ---------- structure ----------

    def indets(self):
        """The occurring algebraic indeterminates, highest rank first."""
        used = self.body.support_indices()
        return [
            v
            for i, v in enumerate(self.body.vars)
            if i in used and isinstance(v, AlgIndet)
        ]

    def is_in_coeff_field(self):
        return not self.indets()

    def is_zero(self):
        return self.body.is_zero()

    def leader(self):
        vs = self.indets()
        if not vs:
            raise ValueError("element of the coefficient field has no leader")
        return vs[0]

    def order(self):
        return self.leader().order

    def leading_degree(self):
        u = self.leader()
        return self.body.degree_in(self.body.vars.index(u))

    def rank(self):
        u = self.leader()
        return (u.rank_key(), self.leading_degree())

    def separant(self):
        u = self.leader()
        i = self.body.vars.index(u)
        return DiffPoly(self.ctx, self.body.partial(i))

    def initial(self):
        u = self.leader()
        return self.coeff_of_power(u, self.degree_in(u))

    def degree_in(self, v):
        if v not in self.body.vars:
            return 0
        return max(0, self.body.degree_in(self.body.vars.index(v)))

    def contains(self, v):
        return self.degree_in(v) > 0

    def coeff_of_power(self, v, d):
        """Coefficient of v**d, as a DiffPoly free of v."""
        if v not in self.body.vars:
            return self if d == 0 else self.ctx.const(0)
        return DiffPoly(self.ctx, coeff_of_power(self.body, self.body.vars.index(v), d))

    # ---------- arithmetic ----------

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if self.ctx != other.ctx:
            raise SignatureMismatchError("differential polynomials from different rings")
        if self.body.vars == other.body.vars:
            return self.body, other.body
        merged = self.ctx._signature(self.body.vars + other.body.vars)
        return self.body.restrict(merged), other.body.restrict(merged)

    def __add__(self, other):
        a, b = self._pair(other)
        return DiffPoly(self.ctx, a + b)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ctx, -self.body)

    def __sub__(self, other):
        a, b = self._pair(other)
        return DiffPoly(self.ctx, a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        return DiffPoly(self.ctx, a * b)

    __rmul__ = __mul__

    def __pow__(self, n):
        return DiffPoly(self.ctx, self.body ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        a, b = self._pair(other)
        return a.terms == b.terms

    def __hash__(self):
        vars = self.body.vars
        return hash(
            frozenset(
                (tuple((v, x) for v, x in zip(vars, e) if x), c)
                for e, c in self.body.terms.items()
            )
        )

    def __repr__(self):
        return f"DiffPoly({self.to_str()})"

    def to_str(self):
        from .printer import print_diffpoly

        return print_diffpoly(self)


def apply_derivation(f, k):
    """Formal total derivative of f in direction k (1-based), as a DiffPoly.

    The one-step face of derive_terms: f goes to sparse monomials, takes
    one derivation and comes back over the signature of the indeterminates
    that occur in the result.
    """
    ctx = f.ctx
    if not (1 <= k <= ctx.m):
        raise ValueError(f"derivation index {k} outside 1..{ctx.m}")
    return sparse_poly(ctx, *derive_terms(*sparse_terms(f.body), k - 1, ctx))


# ---------- derivations on sparse monomials ----------
#
# A sparse monomial is a sorted tuple of factors (theta, var, exponent):
# the algebraic indeterminate with derivative exponents theta applied to
# u_var, or, with theta == (), the coefficient generator t_var.  A sparse
# polynomial is (den, terms), terms a dict from sparse monomials to ints,
# each coefficient terms[x] / den.  Along a chain of derivatives no
# signature is built: a factor is raised or replaced where it sits.


def sparse_terms(p):
    """The MultiPoly p as a sparse polynomial (den, terms)."""
    keys = [(v.theta, v.var) if isinstance(v, AlgIndet) else ((), v.index) for v in p.vars]
    den, terms = integer_terms(p.terms)
    return den, {
        tuple(sorted((*keys[i], x) for i, x in enumerate(e) if x)): c for e, c in terms.items()
    }


def sparse_poly(ctx, den, terms):
    """The DiffPoly of the sparse polynomial (den, terms), over the
    signature of the indeterminates that occur."""
    indets = {(theta, var) for x in terms for theta, var, _ in x if theta}
    sig = ctx._signature([AlgIndet(theta, var) for theta, var in indets])
    where = {
        (v.theta, v.var) if isinstance(v, AlgIndet) else ((), v.index): j
        for j, v in enumerate(sig)
    }
    out = {}
    for x, c in terms.items():
        e = [0] * len(sig)
        for theta, var, exp in x:
            e[where[theta, var]] = exp
        out[tuple(e)] = c
    return DiffPoly(ctx, from_integer_terms(sig, out, den))


def _times(x, theta, var, exp):
    """The sparse monomial x times the factor (theta, var, exp)."""
    for p, (t, v, e) in enumerate(x):
        if t == theta and v == var:
            return x[:p] + ((theta, var, e + exp),) + x[p + 1 :]
    return tuple(sorted(x + ((theta, var, exp),)))


def derive_terms(den, terms, k, ctx):
    """The derivative in direction k (0-based) of the sparse polynomial
    (den, terms), as a new sparse polynomial.

    By the Leibniz rule each factor of a monomial is derived in turn: an
    algebraic indeterminate raises its k-th derivative exponent, and a
    coefficient generator is replaced by the terms of its declared action
    (ctx.action_terms, over their own denominator, which the result's
    denominator takes on); a constant generator has no image.
    """
    aden, acts = ctx.action_terms[k]
    out = {}
    get = out.get
    for x, c in terms.items():
        for p, (theta, var, exp) in enumerate(x):
            rest = x[:p] + x[p + 1 :] if exp == 1 else x[:p] + ((theta, var, exp - 1),) + x[p + 1 :]
            if theta:
                raised = theta[:k] + (theta[k] + 1,) + theta[k + 1 :]
                y = _times(rest, raised, var, 1)
                out[y] = get(y, 0) + c * exp * aden
            elif var in acts:
                for ax, ac in acts[var].items():
                    y = rest
                    for factor in ax:
                        y = _times(y, *factor)
                    out[y] = get(y, 0) + c * exp * ac
    return den * aden, {y: c for y, c in out.items() if c}


def poly_rank_compare(f, g):
    """-1, 0, 1 on the rank (leader, leading degree); coefficient-field
    elements rank below everything else (_rank_sort_key)."""
    a, b = _rank_sort_key(f), _rank_sort_key(g)
    return (a > b) - (a < b)


def set_rank_compare(A, B):
    """Ranking on finite sets of differential polynomials.

    Written in nondecreasing rank, A < B when some prefix agrees in rank and
    A's next element ranks lower, or when A properly extends a rank-equal
    prefix of the whole of B (longer is lower in that case).
    """
    a = sorted(map(_rank_sort_key, _elements(A)))
    b = sorted(map(_rank_sort_key, _elements(B)))
    for ka, kb in zip(a, b):
        if ka != kb:
            return -1 if ka < kb else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) > len(b) else 1


def _elements(s):
    return s.elements if isinstance(s, AutoreducedSet) else tuple(s)


def _rank_sort_key(f):
    """The one polynomial ranking: coefficient-field elements lowest, then
    the rank (leader, leading degree)."""
    if f.is_in_coeff_field():
        return (0, (), 0)
    return (1, *f.rank())


def is_autoreduced(polys):
    """Pairwise autoreducedness check with a violation witness.

    Returns (True, None) or (False, (i, j, reason)): reason says whether a
    proper derivative of the leader of element i occurs in element j, or the
    leader itself occurs in j with too high a degree.
    """
    polys = list(_elements(polys))
    for f in polys:
        if f.is_in_coeff_field():
            return False, (polys.index(f), polys.index(f), "element lies in the coefficient field")
    for i, f in enumerate(polys):
        uf, df = f.leader(), f.leading_degree()
        for j, g in enumerate(polys):
            if i == j:
                continue
            for v in g.indets():
                if v.is_proper_derivative_of(uf):
                    return False, (i, j, f"proper derivative {v!r} of leader {uf!r} occurs")
            dg = g.degree_in(uf)
            if dg >= df:
                return False, (i, j, f"leader {uf!r} occurs with degree {dg} >= {df}")
    return True, None


class AutoreducedSet:
    """A finite autoreduced set, stored in increasing rank."""

    __slots__ = ("elements",)

    def __init__(self, polys):
        polys = sorted(polys, key=_rank_sort_key)
        ok, witness = is_autoreduced(polys)
        if not ok:
            raise ValueError(f"not autoreduced: {witness[2]} (elements {witness[0]}, {witness[1]})")
        if not polys:
            raise ValueError("autoreduced set must be nonempty")
        self.elements = tuple(polys)

    @property
    def ctx(self):
        return self.elements[0].ctx

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def max_order(self):
        return max(f.order() for f in self.elements)

    def leaders(self):
        return [f.leader() for f in self.elements]

    def __repr__(self):
        return f"AutoreducedSet({list(self.elements)!r})"


# ---------- Ritt-Kolchin reduction ----------


class PackedPoly:
    """A polynomial of a reduction certificate, kept as ritt_reduce left
    it: integer terms on packed exponent vectors over the reduction's
    column table (_Columns), in width-bit fields, each coefficient
    terms[k] / den, with no zero entry.  Its DiffPoly is built on the
    first call of diffpoly, one Fraction per term, and kept."""

    __slots__ = ("table", "width", "den", "terms", "_poly")

    def __init__(self, table, width, den, terms, poly=None):
        self.table = table
        self.width = width
        self.den = den
        self.terms = terms
        self._poly = poly

    @classmethod
    def of(cls, table, f):
        """The DiffPoly f packed over table (_Columns.pack_poly)."""
        return cls(table, *table.pack_poly(f.body), f)

    def diffpoly(self):
        if self._poly is None:
            self._poly = self.table.poly(self.width, self.den, self.terms)
        return self._poly

    def integer_terms(self):
        """(signature, den, terms): the terms rekeyed by exponent tuples
        over the signature of the indeterminates that occur, integers over
        den, as the printer reads them; no Fraction is built."""
        sig, terms = self.table.unpack(self.width, self.terms)
        return sig, self.den, terms


class ReductionStep:
    """One term q * theta(f) of a certificate: f the element-th element of
    the set, theta its derivative (all zeros = none) and q the quotient,
    held packed (packed_quotient).  The DiffPoly quotient is built on first
    read; a DiffPoly assigned to it is packed over the same table."""

    __slots__ = ("element", "theta", "packed_quotient")

    def __init__(self, element, theta, packed_quotient):
        self.element = element
        self.theta = theta
        self.packed_quotient = packed_quotient

    @property
    def quotient(self):
        return self.packed_quotient.diffpoly()

    @quotient.setter
    def quotient(self, q):
        self.packed_quotient = PackedPoly.of(self.packed_quotient.table, q)


class ReductionResult:
    """remainder plus the exact certificate

        (prod_i S_i^sep[i] * I_i^init[i]) * g  =  sum_nu q_nu * theta_nu f_nu + remainder

    which re-expands symbolically via verify().  The remainder and each
    step's quotient stay packed over the reduction's column table (table);
    remainder, like a step's quotient, is a DiffPoly built on first read,
    and a DiffPoly assigned to it is packed over the table.
    """

    __slots__ = ("input", "aset", "table", "packed_remainder", "sep_powers", "init_powers", "steps")

    def __init__(self, input, aset, table, packed_remainder, sep_powers, init_powers, steps):
        self.input = input
        self.aset = aset
        self.table = table
        self.packed_remainder = packed_remainder
        self.sep_powers = sep_powers
        self.init_powers = init_powers
        self.steps = steps

    @property
    def remainder(self):
        return self.packed_remainder.diffpoly()

    @remainder.setter
    def remainder(self, r):
        self.packed_remainder = PackedPoly.of(self.table, r)

    def multiplier(self):
        ctx = self.input.ctx
        total = ctx.const(1)
        for i, e in self.sep_powers.items():
            total = total * self.aset.elements[i].separant() ** e
        for i, e in self.init_powers.items():
            total = total * self.aset.elements[i].initial() ** e
        return total

    def verify(self):
        """Whether the certificate re-expands exactly: True when

            multiplier * input - remainder - sum_nu q_nu * theta_nu f_nu

        is zero over Q.  The sum is one integer term dict on packed
        exponent vectors over the reduction's column table.  The remainder
        and the quotients enter as they are held; the multiplier (from the
        DiffPoly separants and initials) and the input are packed from
        their bodies; each theta_nu f_nu is derived anew from the set
        through verify's own memo (_derived_terms), not taken from
        ritt_reduce, and packed from its sparse terms.  The products run at
        one field width that holds every part's exponents below the guard
        bit, so none carries out of a field; a part held at a narrower
        width is rekeyed there (widen).  The sum is over one common
        denominator, rescaled only when a part's denominator does not
        divide it.  Each product is added as it is formed: the smaller
        factor is scaled once, the larger one streamed, and
        add_packed_products drops an entry the moment it cancels.  No
        DiffPoly of the remainder or of a quotient is built.
        """
        table = self.table
        elements = self.aset.elements
        memo = {}
        r = self.packed_remainder
        # (factor, factor, sign): the product of the two enters with the
        # sign; each factor a packed polynomial (width, den, terms)
        parts = [
            (table.pack_poly(self.multiplier().body), table.pack_poly(self.input.body), 1),
            ((r.width, r.den, r.terms), (8, 1, {0: 1}), -1),
        ]
        for step in self.steps:
            q = step.packed_quotient
            den, terms, _ = _derived_terms(elements, step.element, step.theta, memo)
            width = packed_width(max([exp for x in terms for _, _, exp in x], default=0))
            h = width, den, table.pack_sparse(terms, width)
            parts.append(((q.width, q.den, q.terms), h, -1))
        ncols = len(table.vars)
        width = max(
            p[0] * 2 if reduce(or_, p[2], 0) & packer(ncols, p[0])[2] else p[0]
            for a, b, _ in parts
            for p in (a, b)
        )
        acc = {}
        den = 1
        for a, b, sign in parts:
            if len(a[2]) < len(b[2]):
                a, b = b, a
            (wa, da, A), (wb, db, B) = a, b
            part_den = da * db
            if den % part_den:
                common = lcm(den, part_den)
                k = common // den
                for x in acc:
                    acc[x] *= k
                den = common
            k = sign * (den // part_den)
            B = {x: k * c for x, c in widen(B, ncols, wb, width).items()}
            add_packed_products(acc, widen(A, ncols, wa, width).items(), B)
        return not acc


def derived(elements, i, theta, memo):
    """theta applied to elements[i], as a DiffPoly.

    memo maps (i, theta) to [den, terms, poly]: the derivative as a sparse
    polynomial, and its DiffPoly once one was asked for.  A derivative is
    derive_terms of its parent, theta less one step in its last nonzero
    direction, so the derivations run in the order that DiffContext.d
    follows (direction 1 first).  The links of a chain stay sparse; only
    the theta asked for becomes a DiffPoly, and theta = 0 is elements[i]
    itself.
    """
    entry = _derived_terms(elements, i, theta, memo)
    if entry[2] is None:
        entry[2] = sparse_poly(elements[i].ctx, entry[0], entry[1])
    return entry[2]


def _derived_terms(elements, i, theta, memo):
    """The memo entry [den, terms, poly] of theta applied to elements[i]."""
    key = (i, theta)
    entry = memo.get(key)
    if entry is None:
        f = elements[i]
        if not any(theta):
            entry = [*sparse_terms(f.body), f]
        else:
            k = max(j for j, t in enumerate(theta) if t)
            parent = theta[:k] + (theta[k] - 1,) + theta[k + 1 :]
            den, terms, _ = _derived_terms(elements, i, parent, memo)
            entry = [*derive_terms(den, terms, k, f.ctx), None]
        memo[key] = entry
    return entry


class _Columns:
    """The column table of one reduction's packed exponent vectors.

    Each key (theta, var) of an algebraic indeterminate, or ((), index) of
    the coefficient generator t_index, takes the next column the first
    time it is seen, so a key packed earlier stays valid as the table
    grows: ritt_reduce, the certificate it returns and that certificate's
    verify all pack over one table.  With each column of an algebraic
    indeterminate the table records what the choice of the next reduction
    step asks of it.  A packed polynomial is (width, den, terms); unpack
    rekeys its terms by exponent tuples over the signature of the
    indeterminates that occur, and poly builds its DiffPoly from those.
    """

    __slots__ = ("ctx", "leaders", "at", "vars", "ranked", "derives", "leads")

    def __init__(self, ctx, aset):
        self.ctx = ctx
        # (leader, leading degree, rank sort key) of each element
        self.leaders = [(f.leader(), f.leading_degree(), _rank_sort_key(f)) for f in aset]
        self.at = {}  # key -> column
        self.vars = []  # column -> AlgIndet or CoeffGen
        self.ranked = []  # columns of algebraic indeterminates, highest rank first
        # column -> the lowest-ranked element whose leader it is a proper
        # derivative of, or None; and the elements whose leader it is
        self.derives = []
        self.leads = []

    def column(self, key):
        c = self.at.get(key)
        if c is None:
            c = self.at[key] = len(self.vars)
            theta, var = key
            if not theta:
                self.vars.append(self.ctx.coeff_gens[var - 1])
                self.derives.append(None)
                self.leads.append(())
                return c
            v = AlgIndet(theta, var)
            hits = [i for i, (u, _, _) in enumerate(self.leaders) if v.is_proper_derivative_of(u)]
            self.vars.append(v)
            self.derives.append(min(hits, key=lambda i: self.leaders[i][2]) if hits else None)
            self.leads.append([i for i, (u, _, _) in enumerate(self.leaders) if u == v])
            self.ranked.append(c)
            self.ranked.sort(key=lambda j: self.vars[j].rank_key(), reverse=True)
        return c

    def pack_poly(self, p):
        """The MultiPoly p as (width, den, terms), terms packed over this
        table at the least width that holds its exponents."""
        for v in p.vars:
            self.column((v.theta, v.var) if isinstance(v, AlgIndet) else ((), v.index))
        width = packed_width(max(chain.from_iterable(p.terms), default=0))
        pick = reindexer(p.vars, self.vars)[0]
        pack = packer(len(self.vars), width)[0]
        den, terms = integer_terms(p.terms)
        return width, den, {pack(pick(x)): c for x, c in terms.items()}

    def pack_sparse(self, terms, width):
        """The sparse polynomial terms (see derive_terms) packed over this
        table in width-bit fields, which must hold its exponents."""
        at = self.at
        for x in terms:
            for theta, var, _ in x:
                if (theta, var) not in at:
                    self.column((theta, var))
        return {
            sum([exp << width * at[theta, var] for theta, var, exp in x]): c
            for x, c in terms.items()
        }

    def target(self, terms, width):
        """The (column, element index) of the indeterminate that the next
        step of ritt_reduce eliminates from the packed terms, or None when
        they are partially reduced.

        The highest-ranking proper derivative of a leader comes first,
        taken with the lowest-ranked element it derives from; then a leader
        occurring with degree at least its element's leading degree.  A
        column occurs when its field of the OR of the keys is nonzero.
        """
        occurs = reduce(or_, terms, 0)
        mask = (1 << width) - 1
        live = [c for c in self.ranked if occurs >> width * c & mask]
        for c in live:
            if self.derives[c] is not None:
                return c, self.derives[c]
        for c in live:
            if self.leads[c]:
                shift = width * c
                degree = max([k >> shift & mask for k in terms])
                for i in self.leads[c]:
                    if degree >= self.leaders[i][1]:
                        return c, i
        return None

    def product(self, p, q):
        """The product of two packed polynomials (width, den, terms), at the
        wider of their widths, doubled when a guard bit of either is set."""
        ncols = len(self.vars)
        width = max(p[0], q[0])
        P, Q = widen(p[2], ncols, p[0], width), widen(q[2], ncols, q[0], width)
        if (reduce(or_, P, 0) | reduce(or_, Q, 0)) & packer(ncols, width)[2]:
            P, Q = widen(P, ncols, width, 2 * width), widen(Q, ncols, width, 2 * width)
            width *= 2
        return width, p[1] * q[1], mul_packed_terms(P, Q)

    def power(self, p, e):
        """The packed polynomial p to the power e >= 1, by squaring."""
        out = None
        while True:
            if e & 1:
                out = p if out is None else self.product(out, p)
            e >>= 1
            if not e:
                return out
            p = self.product(p, p)

    def unpack(self, width, terms):
        """(signature, terms): the packed terms in width-bit fields
        rekeyed by exponent tuples over the signature of the indeterminates
        that occur."""
        occurs = reduce(or_, terms, 0)
        mask = (1 << width) - 1
        sig = self.ctx._signature(
            [v for c, v in enumerate(self.vars) if occurs >> width * c & mask]
        )
        pick = reindexer(self.vars, sig)[0]
        unpack = packer(len(self.vars), width)[1]
        return sig, {pick(unpack(k)): c for k, c in terms.items()}

    def poly(self, width, den, terms):
        """The DiffPoly of the packed polynomial (width, den, terms), over
        the signature of the indeterminates that occur: one Fraction per
        term."""
        return DiffPoly(self.ctx, from_integer_terms(*self.unpack(width, terms), den))


def ritt_reduce(g, aset):
    """Ritt-Kolchin reduction of g with respect to an autoreduced set.

    The remainder contains no proper derivative of any leader and carries
    each leader with degree below its leading degree; the returned
    certificate is an exact identity.  When several elements apply, the
    lowest-ranked applicable element is used first.

    One column table (_Columns) serves the whole call: the remainder, the
    quotients, the scales and each derived theta(f) are integer term dicts
    on packed exponent vectors over it, from the first step to the last.
    theta(f) is packed straight from its sparse derivation chain
    (_derived_terms); the degree in an indeterminate is a shift and a
    mask, and a column that no longer occurs costs nothing, so no step
    builds or restricts a signature.  The remainder is kept at one field
    width, which a pseudo-division or a wider theta(f) may double; each
    stored quotient and scale keeps the width it was made at.  Nothing is
    unpacked here: the remainder and the quotients are returned packed
    (PackedPoly) with the table, which verify re-expands on and the CLI
    prints from; a DiffPoly of one is built only when it is read.
    """
    if isinstance(aset, (list, tuple)):
        aset = AutoreducedSet(aset)
    ctx = g.ctx
    if ctx != aset.ctx:
        raise SignatureMismatchError("reduction across different rings")
    elements = aset.elements
    table = _Columns(ctx, elements)
    sep_powers, init_powers = {}, {}

    # the remainder R / D at the field width W; (element, theta, quotient)
    # for each step with a nonzero quotient, and (number of such steps so
    # far, base**e) for each step that scaled by a base other than 1, each
    # quotient and scale a packed polynomial (width, den, terms)
    W, D, R = table.pack_poly(g.body)
    quotients = []
    scales = []
    bases = {}
    memo = {}
    while True:
        target = table.target(R, W)
        if target is None:
            break
        c, i = target
        theta = tuple(a - b for a, b in zip(table.vars[c].theta, table.leaders[i][0].theta))
        den_h, H, _ = _derived_terms(elements, i, theta, memo)
        top = max([exp for x in H for _, _, exp in x], default=0)
        if top >> (W - 1):
            wider = packed_width(top)
            R, W = widen(R, len(table.vars), W, wider), wider
        H = table.pack_sparse(H, W)
        e, Q, R, D, W = pseudo_divide_terms((D, R), (den_h, H), c, len(table.vars), W)
        if e:
            # the leading coefficient of a proper derivative of f is f's
            # separant; of f itself, f's initial
            f = elements[i]
            kind = any(theta)
            book = sep_powers if kind else init_powers
            book[i] = book.get(i, 0) + e
            if (kind, i) not in bases:
                base = table.pack_poly((f.separant() if kind else f.initial()).body)
                # None stands for a base equal to 1, which scales nothing
                bases[kind, i] = None if base[2] == {0: base[1]} else base
            base = bases[kind, i]
            if base is not None:
                scales.append((len(quotients), table.power(base, e)))
        if Q:
            quotients.append((i, theta, (W, D, Q)))
        # the factor that R and D share (as a Fraction would)
        if D > 1:
            common = gcd(D, *R.values())
            if common > 1:
                R = {k: x // common for k, x in R.items()}
                D //= common
    # every scaling multiplies the quotients recorded before it: walk from
    # the last step back, each quotient taking the product of the scales
    # met after it
    acc = None
    steps = []
    while quotients:
        j = len(quotients) - 1
        i, theta, q = quotients.pop()
        while scales and scales[-1][0] > j:
            scale = scales.pop()[1]
            acc = scale if acc is None else table.product(acc, scale)
        if acc is not None:
            q = table.product(q, acc)
        steps.append(ReductionStep(i, theta, PackedPoly(table, *q)))
    steps.reverse()
    return ReductionResult(
        input=g,
        aset=aset,
        table=table,
        packed_remainder=PackedPoly(table, W, D, R),
        sep_powers=sep_powers,
        init_powers=init_powers,
        steps=steps,
    )

