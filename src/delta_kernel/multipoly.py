"""Sparse multivariate polynomials over exact rationals.

Variables are opaque hashable ids carried in an ordered signature; terms map
exponent tuples to nonzero Fraction coefficients.  A polynomial carries no
term order: its leading term, its monic and primitive forms, exact division
and its text are all taken under graded reverse lexicographic order
(grevlex_key, sorted_exponents).  The text comes from the printer's one
kernel (printer.print_terms), in signature order with plain powers; the
printer imports this module, so to_str reaches it by a local import.  A
Groebner run takes its order as an argument (groebner), which is where lex,
for elimination, lives.  All arithmetic is exact; there is no floating
point anywhere in this package.

Coefficients are Fraction in every MultiPoly.  Loops that would make a
Fraction per operation run on integer term dicts instead: integer_terms
clears a polynomial to integer numerators over the lcm of its denominators,
mul_integer_terms multiplies and accumulates such dicts as Python ints
(add_integer_products, a term at a time), from_integer_terms builds one
Fraction per surviving term at the end, and restrict_terms reindexes such
a dict onto another signature (reindexer gives its per-tuple map).
Products (MultiPoly.__mul__) run this way.

Packed keys.  The Ritt-Kolchin reduction and its check key their integer
term dicts by packed exponent vectors, one int each (Monagan-Pearce, JSC
2011): column k of a vector takes the bits [W*k, W*(k+1)) of the int, so
the product of two monomials is one int add, a degree is a shift and a
mask, and a column that no term uses costs nothing.  packer gives the
pack, unpack and guard of ncols columns at a field width W of 8, 16, 32
or 64 bits (struct items, in C) or wider (for exponents of 2**63 and
more).  The top bit of each field is a guard: an operand's exponents stay
below 2**(W-1), so the sum of two keys never carries into the next field.
Before a product the OR of the operands' keys is tested against the guard
bits; when one is set, the dicts are repacked at twice the width (widen).
No exponent is ever wrapped, and none is refused.  pseudo_divide_terms
(Knuth's Algorithm R) is the one pseudo-division, on packed keys, with
mul_packed_terms and add_packed_products as its product loops; the
Ritt-Kolchin reduction runs it on one column table per call, and
pseudo_divide, the face that poly_gcd's remainder sequence uses, packs its
MultiPolys at the boundary.

Dense univariate views sit beside them: dense_coeffs and from_dense, and
on dense integer lists, constant term first, the one univariate gcd
(_poly_gcd, a primitive remainder sequence over int) with its helpers.
poly_gcd's univariate case and the factor module both run on that kernel;
so do the contents of a bivariate gcd, which are univariate gcds.

coefficients splits a polynomial by the monomials in its leading
variables; the searches read their equations in the unknowns off it, and
the affine fiber solve its top-order linear parts.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd as int_gcd
from math import lcm
from operator import add, itemgetter, neg, or_, sub
from struct import Struct

class SignatureMismatchError(ValueError):
    """Binary operation on polynomials with different variable signatures."""


class InexactDivisionError(ArithmeticError):
    """exact_div called on a non-divisible pair; never a silent remainder."""


def grevlex_key(e):
    """Sort key on exponent tuples for graded reverse lexicographic order."""
    return (sum(e), tuple(map(neg, reversed(e))))


_reversed_tuple = itemgetter(slice(None, None, -1))


def sorted_exponents(terms):
    """The exponent tuples of terms sorted grevlex-descending, largest first.

    Two stable sorts with C-level keys do it: by the reversed tuple
    (ascending), then by degree (descending); so no Python key function
    runs per term.
    """
    out = sorted(terms, key=_reversed_tuple)
    out.sort(key=sum, reverse=True)
    return out


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact rational, got {type(c).__name__}")


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            nv = len(self.vars)
            for expo, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if len(expo) != nv:
                    raise ValueError("exponent vector length does not match signature")
                if coeff:
                    expo = tuple(expo)
                    acc = clean.get(expo)
                    if acc is None:
                        clean[expo] = coeff
                    else:
                        acc += coeff
                        if acc:
                            clean[expo] = acc
                        else:
                            del clean[expo]
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        c = _as_fraction(c)
        vars = tuple(vars)
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def gen(cls, vars, index):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[index] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    @classmethod
    def var(cls, vars, v):
        vars = tuple(vars)
        return cls.gen(vars, vars.index(v))

    @classmethod
    def monomial(cls, vars, expo, coeff=1):
        return cls(vars, {tuple(expo): _as_fraction(coeff)})

    # ---------- predicates & accessors ----------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def support_indices(self):
        """Indices of variables that actually occur."""
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def leading(self):
        """(exponent, coefficient) of the grevlex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    # ---------- equality ----------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---------- arithmetic ----------

    def _check(self, other):
        if self.vars != other.vars:
            raise SignatureMismatchError(
                f"signature mismatch: {self.vars!r} vs {other.vars!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            if acc is None:
                terms[e] = c
            else:
                acc += c
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
        out = MultiPoly.zero(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.zero(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            if acc is None:
                terms[e] = -c
            else:
                acc -= c
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
        out = MultiPoly.zero(self.vars)
        out.terms = terms
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.vars)
        da, a = integer_terms(self.terms)
        db, b = integer_terms(other.terms)
        if len(a) < len(b):
            a, b = b, a
        return from_integer_terms(self.vars, mul_integer_terms(None, a, b), da * db)

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_fraction(c)
        out = MultiPoly.zero(self.vars)
        if c:
            out.terms = {e: c * k for e, k in self.terms.items()}
        return out

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_monomial(self, expo, coeff=1):
        coeff = _as_fraction(coeff)
        out = MultiPoly.zero(self.vars)
        if coeff:
            out.terms = {
                tuple(map(add, e, expo)): c * coeff for e, c in self.terms.items()
            }
        return out

    def exact_div(self, other):
        """Exact quotient; raises InexactDivisionError when other does not divide."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        if not other.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        le, lc = other.leading()
        divisor = other.terms.items()
        q = {}
        r = dict(self.terms)
        while r:
            re = max(r, key=grevlex_key)
            diff = tuple(map(sub, re, le))
            if any(d < 0 for d in diff):
                raise InexactDivisionError("polynomial division leaves a remainder")
            c = r[re] / lc
            q[diff] = c
            for oe, oc in divisor:
                e = tuple(map(add, oe, diff))
                acc = r.get(e, 0) - c * oc
                if acc:
                    r[e] = acc
                else:
                    del r[e]
        out = MultiPoly.zero(self.vars)
        out.terms = q
        return out

    def divides(self, other):
        try:
            other.exact_div(self)
            return True
        except InexactDivisionError:
            return False

    # ---------- calculus & substitution ----------

    def partial(self, i):
        """Formal partial derivative with respect to variable index i."""
        step = (0,) * i + (1,) + (0,) * (len(self.vars) - i - 1)
        terms = {
            tuple(map(sub, e, step)): c * e[i] for e, c in self.terms.items() if e[i]
        }
        out = MultiPoly.zero(self.vars)
        out.terms = terms
        return out

    def substitute(self, values):
        """Substitute polynomials/Fractions for variables (by id).

        `values` maps variable ids to MultiPoly (over this signature) or
        exact rationals.  Unmapped variables stay untouched.  The image of
        each term goes straight into one dict: a number's power scales the
        coefficient, a polynomial's power contributes its terms.
        """
        idx = {}
        for v, val in values.items():
            if not isinstance(val, (int, Fraction)):
                self._check(val)
            idx[self.vars.index(v)] = val
        terms = {}
        pow_cache = {}
        for e, c in self.terms.items():
            rest = list(e)
            factor = None
            for i, val in idx.items():
                if e[i]:
                    p = pow_cache.get((i, e[i]))
                    if p is None:
                        p = pow_cache[(i, e[i])] = val ** e[i]
                    if isinstance(p, MultiPoly):
                        factor = p if factor is None else factor * p
                    else:
                        c = c * p
                    rest[i] = 0
            if factor is None:
                image = ((tuple(rest), c),)
            else:
                image = [
                    (tuple(x + y for x, y in zip(fe, rest)), c * fc)
                    for fe, fc in factor.terms.items()
                ]
            for ne, nc in image:
                acc = terms.get(ne, 0) + nc
                if acc:
                    terms[ne] = acc
                else:
                    terms.pop(ne, None)
        out = MultiPoly.zero(self.vars)
        out.terms = terms
        return out

    def restrict(self, vars):
        """Reindex onto a (super- or sub-)signature; dropped vars must be unused.

        Onto its own signature the polynomial itself is returned: no code
        mutates a polynomial's terms in place, so sharing it is safe.
        """
        vars = tuple(vars)
        if vars == self.vars:
            return self
        # distinct terms stay distinct: only zero columns are dropped
        out = MultiPoly.zero(vars)
        out.terms = restrict_terms(self.terms, self.vars, vars)
        return out

    # ---------- normal forms ----------

    def content(self):
        """Rational content: gcd of numerators over lcm of denominators, sign of lead."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, abs(c.numerator))
            den = den * c.denominator // int_gcd(den, c.denominator)
        cont = Fraction(num, den)
        _, lc = self.leading()
        return cont if lc > 0 else -cont

    def primitive(self):
        """Integer-primitive form with positive leading coefficient."""
        cont = self.content()
        if not cont:
            return self
        return self.scale(1 / cont)

    def monic(self):
        if not self.terms:
            return self
        _, lc = self.leading()
        return self.scale(1 / lc)

    # ---------- printing ----------

    def to_str(self):
        """Signature order, plain powers: x1^2*x2, d1*u1^2."""
        from .printer import FactorTable, print_terms

        factors = [FactorTable(str(v), False) for v in self.vars]
        return print_terms(factors, slice(None), *integer_terms(self.terms))

    def __repr__(self):
        return f"MultiPoly({self.to_str()})"


def restrict_terms(terms, vars, new_vars):
    """The term dict terms over the signature vars, reindexed onto new_vars;
    a variable left out of new_vars must not occur.  Onto vars itself,
    terms is returned as it is.

    A dict of a few terms is reindexed a term at a time, looking up the
    variable of each nonzero exponent; a larger one through reindexer,
    which looks each column up once.  Below about six terms reindexer's
    set-up costs more than the lookups it saves.
    """
    if vars == new_vars:
        return terms
    if len(terms) < 6:
        pos = {v: j for j, v in enumerate(new_vars)}
        out = {}
        for e, c in terms.items():
            ne = [0] * len(new_vars)
            for i, x in enumerate(e):
                if x:
                    j = pos.get(vars[i])
                    if j is None:
                        raise ValueError(f"variable {vars[i]!r} in use, cannot drop")
                    ne[j] = x
            out[tuple(ne)] = c
        return out
    pick, dropped = reindexer(vars, new_vars)
    for e in terms:
        for i in dropped:
            if e[i]:
                raise ValueError(f"variable {vars[i]!r} in use, cannot drop")
    return {pick(e): c for e, c in terms.items()}


def reindexer(vars, new_vars):
    """(pick, dropped): pick maps an exponent tuple over the signature vars
    to the one over new_vars, and dropped lists the columns of vars that
    new_vars leaves out, which must be zero in every tuple picked.

    Each column is looked up once, here: pick is one itemgetter over the
    columns, with a 0 appended for the columns that new_vars adds.
    """
    n = len(vars)
    pos = {v: i for i, v in enumerate(vars)}
    src = [pos.pop(v, n) for v in new_vars]
    dropped = sorted(pos.values())
    if len(src) < 2:
        # itemgetter returns a bare item, not a tuple, for fewer than two
        return (lambda e: tuple((e + (0,))[j] for j in src)), dropped
    get = itemgetter(*src)
    if n in src:
        return (lambda e: get(e + (0,))), dropped
    return get, dropped


def integer_terms(terms):
    """(den, {exponent: int}) with every coefficient equal to int / den,
    den the lcm of the denominators."""
    den = lcm(*[c.denominator for c in terms.values()])
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def mul_integer_terms(out, a, b):
    """Add the product of the integer term dicts a and b into the dict out
    and return out; with out None, return the product as a new dict.  An
    entry is dropped the moment it cancels (add_integer_products)."""
    if out is None:
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # times a single term: a shift, which keeps distinct terms distinct
            ((e2, c2),) = b.items()
            return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
        out = {}
    return add_integer_products(out, a.items(), b)


def add_integer_products(out, pairs, b):
    """Add c * x**e * b into the dict out for each (e, c) of pairs, with b
    an integer term dict and pairs read once, and return out.  An entry is
    dropped the moment it cancels, so out keeps no 0 entry that it did not
    have before.  A caller that clears or reindexes a factor term by term
    streams it through pairs and never holds it whole."""
    get = out.get
    b = b.items()
    for e1, c1 in pairs:
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            c = get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def from_integer_terms(vars, terms, den):
    """The MultiPoly with coefficients terms[e] / den, its zero entries
    dropped: one Fraction per surviving term."""
    out = MultiPoly.zero(vars)
    if den == 1:
        out.terms = {e: Fraction(c) for e, c in terms.items() if c}
    else:
        out.terms = {e: Fraction(c, den) for e, c in terms.items() if c}
    return out


# ---------- packed exponent vectors ----------

_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def packed_width(top):
    """The least field width, 8 doubled as often as needed, whose fields
    hold exponents up to top below their guard bit."""
    width = 8
    while top >> (width - 1):
        width *= 2
    return width


@lru_cache(maxsize=64)
def packer(ncols, width):
    """(pack, unpack, guard) for exponent vectors of ncols columns packed
    into ints, column k in the bits [width*k, width*(k+1)): pack maps an
    exponent tuple to its int, unpack an int back to the tuple, and guard
    is the int with the top bit of every field set.

    Up to 64 bits a field is one struct item, so both directions run in C,
    little-endian on every platform; wider fields, for exponents of 2**63
    and more, go through bytes a column at a time.  pack raises
    struct.error on an exponent that does not fit its field, so a value is
    never wrapped.  The cache holds these functions only, no polynomial.
    """
    size, step = ncols * width // 8, width // 8
    code = _STRUCT_CODES.get(width)
    if code:
        layout = Struct(f"<{ncols}{code}")
        spack, sunpack = layout.pack, layout.unpack

        def pack(e):
            return int.from_bytes(spack(*e), "little")

        def unpack(k):
            return sunpack(k.to_bytes(size, "little"))

    else:

        def pack(e):
            if len(e) != ncols:
                raise ValueError(f"exponent vector of {len(e)} columns, not {ncols}")
            return int.from_bytes(b"".join([x.to_bytes(step, "little") for x in e]), "little")

        def unpack(k):
            b = k.to_bytes(size, "little")
            return tuple([int.from_bytes(b[j : j + step], "little") for j in range(0, size, step)])

    guard = int.from_bytes((1 << (width - 1)).to_bytes(step, "little") * ncols, "little")
    return pack, unpack, guard


def widen(terms, ncols, width, new_width):
    """The dict terms, keyed by exponent vectors of ncols columns packed in
    width-bit fields, rekeyed in new_width-bit fields (terms itself when
    the widths agree)."""
    if new_width == width:
        return terms
    unpack, pack = packer(ncols, width)[1], packer(ncols, new_width)[0]
    return {pack(unpack(k)): c for k, c in terms.items()}


def mul_packed_terms(a, b):
    """The product of the integer term dicts a and b on packed keys, as a
    new dict; the caller has checked that no guard bit is set in either.
    Times a single term it is a shift, one int add per key."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((k2, c2),) = b.items()
        return {k1 + k2: c1 * c2 for k1, c1 in a.items()}
    return add_packed_products({}, a.items(), b)


def add_packed_products(out, pairs, b):
    """add_integer_products on packed keys: c * x**k * b added into out for
    each (k, c) of pairs, a product of monomials one int add."""
    get = out.get
    b = b.items()
    for k1, c1 in pairs:
        for k2, c2 in b:
            k = k1 + k2
            c = get(k, 0) + c1 * c2
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out


# ---------- monomials and dense univariate views ----------


def exponents_upto(n, d):
    """Exponent tuples of length n with coordinate sum <= d.

    The first coordinate varies slowest and every coordinate ascends; sort
    with sorted_exponents at the call site when grevlex order is wanted.
    """
    if n == 0:
        yield ()
        return
    for x in range(d + 1):
        for rest in exponents_upto(n - 1, d - x):
            yield (x,) + rest


def dense_coeffs(p, i=0):
    """Coefficients c0..cd of p viewed as univariate in variable index i."""
    out = [Fraction(0)] * (p.degree_in(i) + 1)
    for e, c in p.terms.items():
        out[e[i]] += c
    return out


def from_dense(coeffs, vars, i=0):
    """The polynomial sum of coeffs[k] * (variable i)^k over the signature."""
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * len(vars)
            e[i] = k
            terms[tuple(e)] = c
    return MultiPoly(vars, terms)


def horner(coeffs, x):
    """Value at x of the dense polynomial c0 + c1 X + ... ."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def interpolate(points):
    """Dense coefficients of the polynomial through distinct (x, y) points.

    Newton divided differences, expanded by Horner's rule; trailing zero
    coefficients are stripped (the zero polynomial keeps one).
    """
    xs = [Fraction(x) for x, _ in points]
    table = [Fraction(y) for _, y in points]
    newton = []
    for k in range(len(points)):
        newton.append(table[0])
        table = [
            (table[j + 1] - table[j]) / (xs[j + k + 1] - xs[j])
            for j in range(len(table) - 1)
        ]
    coeffs = []
    for c, x in zip(reversed(newton), reversed(xs)):
        # coeffs := coeffs * (X - x) + c
        coeffs = [Fraction(0)] + coeffs
        for t in range(len(coeffs) - 1):
            coeffs[t] -= x * coeffs[t + 1]
        coeffs[0] += c
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# dense integer polynomials, constant term first: the kernel of poly_gcd's
# univariate case and of the factor module


def _integer_coeffs(p, i):
    """The integer-primitive form of the univariate p as a dense list."""
    return [c.numerator for c in dense_coeffs(p.primitive(), i)]


def _strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f):
    """f divided by its content, leading coefficient positive; [] stays []."""
    g = int_gcd(*f)
    if not g:
        return []
    if f[-1] < 0:
        g = -g
    return f if g == 1 else [c // g for c in f]


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _exact_quotient(f, g):
    """f / g when g divides f in Z[X], else None; g has no trailing zero."""
    if not f:
        return []
    f = f[:]
    lead, dg = g[-1], len(g) - 1
    out = [0] * (len(f) - dg)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(f[k + dg], lead)
        if r:
            return None
        out[k] = q
        if q:
            for j, c in enumerate(g):
                f[k + j] -= q * c
    return None if any(f[:dg]) else out


def _pseudo_remainder(a, b):
    """lc(b)^e a mod b for the least e that keeps it in Z[X]."""
    r = a[:]
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        r = [x * lead for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= c * y
        _strip(r)
    return r


def _poly_gcd(a, b):
    """Primitive gcd, leading coefficient positive, of two integer
    polynomials (primitive remainder sequence, Knuth, TAOCP 4.6.1);
    gcd(a, 0) = primitive(a)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


# ---------- gcd machinery ----------


def coeff_of_power(p, i, d):
    """Coefficient of x**d in the MultiPoly p, x its variable at index i;
    over p's signature, free of x."""
    out = MultiPoly.zero(p.vars)
    out.terms = {e[:i] + (0,) + e[i + 1 :]: c for e, c in p.terms.items() if e[i] == d}
    return out


def coefficients(p, k):
    """Coefficients of p as a polynomial in its first k variables: a dict
    from each monomial in those variables that occurs (its exponent tuple)
    to its coefficient, a MultiPoly over p.vars[k:], in the order of the
    first term of p carrying it."""
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[:k], {})[e[k:]] = c
    out = {}
    for head, terms in buckets.items():
        q = out[head] = MultiPoly.zero(p.vars[k:])
        q.terms = terms
    return out


def pseudo_divide(a, b, i):
    """(e, q, r) with lc^e * a == q*b + r and deg_i(r) < d, where x is the
    variable at index i, d = deg_x(b) and lc is the coefficient of x**d in
    b; a and b share one signature and b is nonzero.

    The MultiPoly face of pseudo_divide_terms, for poly_gcd's remainder
    sequence: a and b are packed over their signature at its boundary, and
    q and r unpacked with one Fraction per surviving term.
    """
    ncols = len(b.vars)
    width = packed_width(max(chain.from_iterable(chain(a.terms, b.terms))))
    pack = packer(ncols, width)[0]
    (den_a, A), (den_b, B) = integer_terms(a.terms), integer_terms(b.terms)
    A = den_a, {pack(x): c for x, c in A.items()}
    B = den_b, {pack(x): c for x, c in B.items()}
    e, Q, R, D, width = pseudo_divide_terms(A, B, i, ncols, width)
    unpack = packer(ncols, width)[1]
    q = from_integer_terms(b.vars, {unpack(k): c for k, c in Q.items()}, D)
    r = from_integer_terms(b.vars, {unpack(k): c for k, c in R.items()}, D)
    return e, q, r


def pseudo_divide_terms(a, b, col, ncols, width):
    """Pseudo-division of a by b in the variable x at column col, on packed
    integer term dicts: a and b are (den, terms) pairs, each coefficient
    terms[k] / den, keyed by exponent vectors of ncols columns packed in
    width-bit fields (packer); b is nonzero and a's dict is consumed.
    Returns (e, Q, R, D, width) with q = Q / D and r = R / D the quotient
    and remainder of pseudo_divide, lc^e * a == q*b + r, keyed at the
    returned width: the one given, or a multiple of it when a product would
    have carried out of a field.  Q and R hold no zero entry.

    Pseudo-division over an integral domain (Knuth, TAOCP 4.6.1, Algorithm
    R): b is B / den_b, with LC the integer coefficient of x**d in B, and q
    and r are Q / D and R / D over one shared denominator D.  A step takes
    the leading part M * x**d off R, M / D the quotient's new term, and
    makes

        Q' = LC*Q + den_b*M,   R' = LC*R - M*(B - LC * x**d),   D' = D*den_b;

    the leading parts cancel exactly, so they are never formed, and Q and R
    are scaled in place when LC is a constant.  The degree in x is a shift
    and a mask of a key, and a product of monomials one int add, so a
    monomial LC shifts every key by one add.  Before each step the OR of
    the keys that its products read is tested against the guard bits; when
    one is set, Q, R and b are repacked at twice the width and the step
    runs there.  Callers that go on computing with q and r (ritt_reduce
    scales q by later multipliers and divides r again) keep them packed.
    """
    (D, R), (den_b, B) = a, b
    Q = {}
    e = 0
    while True:
        shift, mask = col * width, (1 << width) - 1
        guard = packer(ncols, width)[2]
        d = max([k >> shift & mask for k in B])
        lead = d << shift
        LC = {k - lead: c for k, c in B.items() if k >> shift & mask == d}
        tail = {k: c for k, c in B.items() if k >> shift & mask != d}
        # LC as an integer when it is a constant, else None
        lc = LC.get(0) if len(LC) == 1 else None
        top_b = reduce(or_, B)
        while True:
            degrees = [k >> shift & mask for k in R]
            dr = max(degrees, default=-1)
            if dr < d:
                return e, {k: c for k, c in Q.items() if c}, R, D, width
            top = reduce(or_, R, top_b)
            if lc is None:
                top = reduce(or_, Q, top)
            if top & guard:
                break
            M = {k - lead: R.pop(k) for k in [k for k, x in zip(R, degrees) if x == dr]}
            if lc is None:
                Q = mul_packed_terms(LC, Q)
                R = mul_packed_terms(LC, R)
            elif lc != 1:
                for k in Q:
                    Q[k] *= lc
                for k in R:
                    R[k] *= lc
            for k, c in M.items():
                Q[k] = Q.get(k, 0) + den_b * c
            add_packed_products(R, ((k, -c) for k, c in M.items()), tail)
            D *= den_b
            e += 1
        Q, R, B = (widen(T, ncols, width, 2 * width) for T in (Q, R, B))
        width *= 2


def poly_gcd(a, b):
    """Monic gcd of two polynomials over Q (recursive primitive remainder sequence)."""
    if a.vars != b.vars:
        raise SignatureMismatchError("gcd needs a common signature")
    if not a.terms:
        return b.monic()
    if not b.terms:
        return a.monic()
    sa, sb = a.support_indices(), b.support_indices()
    if not (sa & sb):
        return MultiPoly.const(a.vars, 1)
    support = sa | sb
    if len(support) == 1:
        (i,) = support
        g = _poly_gcd(_integer_coeffs(a, i), _integer_coeffs(b, i))
        return from_dense([Fraction(c, g[-1]) for c in g], a.vars, i)
    i = min(support)

    def content_pp(p):
        cont = None
        for d in sorted({e[i] for e in p.terms}):
            c = coeff_of_power(p, i, d)
            cont = c.monic() if cont is None else poly_gcd(cont, c)
            if cont.is_constant():
                cont = MultiPoly.const(p.vars, 1)
                break
        pp = p if cont.is_constant() and cont.constant_value() == 1 else p.exact_div(cont)
        return cont, pp

    ca, pa = content_pp(a)
    cb, pb = content_pp(b)
    cont = poly_gcd(ca, cb)
    # primitive remainder sequence in the main variable
    f, g = pa, pb
    if f.degree_in(i) < g.degree_in(i):
        f, g = g, f
    while True:
        r = pseudo_divide(f, g, i)[2]
        if not r.terms:
            break
        _, r = content_pp(r)
        f, g = g, r
    return (cont * content_pp(g)[1]).monic()


def poly_lcm(a, b):
    if not a.terms or not b.terms:
        return MultiPoly.zero(a.vars)
    return (a * b).exact_div(poly_gcd(a, b)).monic()
