"""Univariate polynomial factorization over Q.

Everything runs on one dense list of integer coefficients, constant term
first: the integer-primitive form of the polynomial.  Rational roots come
from the rational root theorem; factor_univariate takes the root 0 off
first, splits the rest into squarefree parts (Yun's algorithm on a
primitive remainder sequence), divides out each part's rational roots and
factors what is left by Kronecker interpolation, which is exact and
entirely adequate at the degrees this package meets.  MultiPoly factors
are built once, at the end.  Multivariate factorization is deliberately
absent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, zip_longest
from math import gcd

from .multipoly import dense_coeffs, from_dense, interpolate


def _main_index(p):
    support = p.support_indices()
    if len(support) > 1:
        raise ValueError("polynomial is not univariate")
    return min(support) if support else 0


def _int_divisors(n):
    """Sorted positive divisors of n (none for 0), built from the prime
    factors that trial division finds; each factor divided out shrinks the
    bound, so smooth numbers (products of eigenvalues) factor at once."""
    n = abs(n)
    if not n:
        return []
    out = [1]
    p = 2
    while p * p <= n:
        if not n % p:
            powers = [1]
            while not n % p:
                n //= p
                powers.append(powers[-1] * p)
            out = [d * q for d in out for q in powers]
        p += 1 if p == 2 else 2
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def _integer_coeffs(p, i):
    """The integer-primitive form of the univariate p as a dense list."""
    return [c.numerator for c in dense_coeffs(p.primitive(), i)]


def rational_roots(p):
    """All rational roots of a univariate polynomial, with multiplicities.

    Returns a list of (root, multiplicity) sorted by root.  The primitive
    form has integer coefficients a_k, so a candidate p/q in lowest terms is
    a root iff sum_k a_k p^k q^(n-k) == 0, and then (qX - p) divides the
    polynomial over the integers (Gauss's lemma): all in int arithmetic.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    return integer_rational_roots(_integer_coeffs(p, _main_index(p)))


def integer_rational_roots(coeffs):
    """rational_roots of the polynomial with the integer coefficients coeffs,
    constant term first, the last one nonzero; the content is divided out."""
    return _split_rational_roots(coeffs)[0]


def _split_rational_roots(coeffs):
    """(roots, rest): the rational roots of the integer polynomial coeffs as
    integer_rational_roots gives them, and the primitive integer cofactor
    left once each root's linear factor is divided out to its multiplicity."""
    coeffs = _primitive(coeffs)
    roots = []
    # strip powers of the variable: root 0
    shift = 0
    while not coeffs[0]:
        coeffs = coeffs[1:]
        shift += 1
    if shift:
        roots.append((Fraction(0), shift))
    if len(coeffs) == 1:
        return roots, coeffs

    def vanishes(f, num, den):
        # den^n f(num/den), by Horner's rule on the homogenised form
        acc, scale = f[-1], 1
        for c in reversed(f[:-1]):
            scale *= den
            acc = acc * num + c * scale
        return not acc

    # each candidate num/den in lowest terms once; the order found does not
    # matter, since every root is divided out to its full multiplicity
    dens = _int_divisors(coeffs[-1])
    for num in _int_divisors(coeffs[0]):
        for den in dens:
            if gcd(num, den) != 1:
                continue
            for signed in (num, -num):
                mult = 0
                while len(coeffs) > 1 and vanishes(coeffs, signed, den):
                    coeffs = _exact_quotient(coeffs, [-signed, den])
                    if coeffs is None:
                        raise ArithmeticError(
                            f"{den}X - {signed} leaves a remainder on a polynomial it annuls"
                        )
                    mult += 1
                if mult:
                    roots.append((Fraction(signed, den), mult))
    return sorted(roots), coeffs


# ---------- dense integer polynomials, constant term first ----------


def _strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f):
    """f divided by its content, leading coefficient positive; [] stays []."""
    g = gcd(*f)
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
    polynomials (primitive remainder sequence); gcd(a, 0) = primitive(a)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _squarefree_parts(f):
    """Yun's algorithm on a primitive integer polynomial: [(part,
    multiplicity)], each part primitive, squarefree and of positive degree,
    the parts pairwise coprime.  b and c are always divided by the same
    polynomial, so the scalars that Q would normalise away cancel."""
    d = _derivative(f)
    a = _poly_gcd(f, d)
    b, c = _exact_quotient(f, a), _exact_quotient(d, a)
    out = []
    k = 1
    while len(b) > 1:
        db = _derivative(b)
        e = _strip([x - y for x, y in zip_longest(c, db, fillvalue=0)])
        w = _poly_gcd(b, e)
        if len(w) > 1:
            out.append((w, k))
        b, c = _exact_quotient(b, w), _exact_quotient(e, w)
        k += 1
    return out


def _kronecker_factor(f):
    """One nontrivial primitive factor of the squarefree primitive integer
    polynomial f, which has no rational root, or None when f is irreducible.

    A factor g of degree d in Z[X] takes at each integer point s a divisor
    of f(s), so ±g is the interpolant of one choice of divisors at d + 1
    points; interpolants that are not of degree d in Z[X] are skipped.
    """
    deg = len(f) - 1
    if deg <= 3:
        # no rational roots were left in f, so low degrees are irreducible
        return None
    pts = [0]
    x = 0
    while len(pts) < deg // 2 + 1:
        x += 1
        pts.extend([x, -x])
    divisor_lists = []
    for s in pts[: deg // 2 + 1]:
        v = 0
        for c in reversed(f):
            v = v * s + c
        if not v:
            return None  # primitive integer poly: cannot happen off roots
        divisor_lists.append([sd for d0 in _int_divisors(v) for sd in (d0, -d0)])
    # fix the first value's sign to halve the search
    divisor_lists[0] = [d0 for d0 in divisor_lists[0] if d0 > 0]
    for d in range(2, deg // 2 + 1):
        for combo in product(*divisor_lists[: d + 1]):
            coeffs = interpolate(list(zip(pts, combo)))
            if len(coeffs) - 1 != d or any(c.denominator != 1 for c in coeffs):
                continue
            g = _primitive([int(c) for c in coeffs])
            if _exact_quotient(f, g) is not None:
                return g
    return None


def factor_univariate(p):
    """Full irreducible factorization over Q of a univariate polynomial.

    Returns (unit, [(monic irreducible factor, multiplicity)]) with factors
    sorted by (degree, string form); unit is the leading coefficient.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    i = _main_index(p)
    unit = p.leading()[1]
    if p.degree_in(i) <= 0:
        return unit, []
    f = _integer_coeffs(p, i)
    found = []  # (integer coefficients of an irreducible factor, multiplicity)
    zeros = next(k for k, c in enumerate(f) if c)
    if zeros:
        found.append(([0, 1], zeros))
        f = f[zeros:]
    for part, mult in _squarefree_parts(f):
        roots, rest = _split_rational_roots(part)
        found += [([-r.numerator, r.denominator], mult) for r, _ in roots]
        stack = [rest] if len(rest) > 1 else []
        while stack:
            g = stack.pop()
            piece = _kronecker_factor(g)
            if piece is None:
                found.append((g, mult))
            else:
                stack += [piece, _exact_quotient(g, piece)]
    factors = [
        (from_dense([Fraction(c, g[-1]) for c in g], p.vars, i, p.order), mult)
        for g, mult in found
    ]
    return unit, sorted(factors, key=lambda fm: (fm[0].total_degree(), fm[0].to_str()))
