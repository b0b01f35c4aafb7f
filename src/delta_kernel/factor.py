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

The dense integer kernel (content, derivative, exact quotient and the
primitive remainder sequence gcd) lives in multipoly, next to the dense
views, and poly_gcd's univariate case runs on it too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, zip_longest
from math import gcd

from .multipoly import (
    _derivative,
    _exact_quotient,
    _integer_coeffs,
    _poly_gcd,
    _primitive,
    _strip,
    from_dense,
    horner,
    interpolate,
)


def _main_index(p):
    """Index of the one variable of the nonconstant p."""
    support = p.support_indices()
    if len(support) > 1:
        raise ValueError("polynomial is not univariate")
    return min(support)


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


def rational_roots(p):
    """All rational roots of a univariate polynomial, with multiplicities.

    Returns a list of (root, multiplicity) sorted by root.  The primitive
    form has integer coefficients a_k, so a candidate p/q in lowest terms is
    a root iff sum_k a_k p^k q^(n-k) == 0, and then (qX - p) divides the
    polynomial over the integers (Gauss's lemma): all in int arithmetic.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    if p.is_constant():
        return []
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
        v = horner(f, s)
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
    unit = p.leading()[1]
    if p.is_constant():
        return unit, []
    i = _main_index(p)
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
        (from_dense([Fraction(c, g[-1]) for c in g], p.vars, i), mult)
        for g, mult in found
    ]
    return unit, sorted(factors, key=lambda fm: (fm[0].total_degree(), fm[0].to_str()))
