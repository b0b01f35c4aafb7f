"""Univariate polynomial factorization over Q.

Rational roots come from the rational root theorem on the integer-primitive
form; the remaining squarefree parts (Yun decomposition) are factored by
Kronecker interpolation, which is exact and entirely adequate at the degrees
this package meets.  Multivariate factorization is deliberately absent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .multipoly import dense_coeffs, from_dense, interpolate, poly_gcd


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


def rational_roots(p):
    """All rational roots of a univariate polynomial, with multiplicities.

    Returns a list of (root, multiplicity) sorted by root.  The primitive
    form has integer coefficients a_k, so a candidate p/q in lowest terms is
    a root iff sum_k a_k p^k q^(n-k) == 0, and then (qX - p) divides the
    polynomial over the integers (Gauss's lemma): all in int arithmetic.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    i = _main_index(p)
    return integer_rational_roots([c.numerator for c in dense_coeffs(p.primitive(), i)])


def integer_rational_roots(coeffs):
    """rational_roots of the polynomial with the integer coefficients coeffs,
    constant term first, the last one nonzero; the content is divided out."""
    g = gcd(*coeffs)
    if g != 1:
        coeffs = [c // g for c in coeffs]
    roots = []
    # strip powers of the variable: root 0
    shift = 0
    while not coeffs[0]:
        coeffs = coeffs[1:]
        shift += 1
    if shift:
        roots.append((Fraction(0), shift))
    if len(coeffs) == 1:
        return roots

    def vanishes(f, num, den):
        # den^n f(num/den), by Horner's rule on the homogenised form
        acc, scale = f[-1], 1
        for c in reversed(f[:-1]):
            scale *= den
            acc = acc * num + c * scale
        return not acc

    def deflate(f, num, den):
        # exact quotient of f by (den X - num), from the top coefficient down
        out = [0] * (len(f) - 1)
        carry, exact = 0, True
        for k in range(len(f) - 1, 0, -1):
            q, r = divmod(f[k] + carry, den)
            exact = exact and not r
            out[k - 1] = q
            carry = num * q
        if not exact or f[0] + carry:
            raise ArithmeticError(f"{den}X - {num} leaves a remainder on a polynomial it annuls")
        return out

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
                    coeffs = deflate(coeffs, signed, den)
                    mult += 1
                if mult:
                    roots.append((Fraction(signed, den), mult))
    return sorted(roots)


def squarefree_decomposition(p):
    """Yun's algorithm: list of (squarefree monic factor, multiplicity)."""
    i = _main_index(p)
    f = p.monic()
    out = []
    d = f.partial(i)
    a = poly_gcd(f, d)
    b = f.exact_div(a)
    c = d.exact_div(a)
    k = 1
    while b.degree_in(i) > 0:
        w = poly_gcd(b, c - b.partial(i))
        if w.degree_in(i) > 0:
            out.append((w.monic(), k))
        b2 = b.exact_div(w)
        c = (c - b.partial(i)).exact_div(w)
        b = b2
        k += 1
    return out


def _kronecker_factor(p, i):
    """One nontrivial monic factor of a squarefree primitive p, or None."""
    deg = p.degree_in(i)
    if deg <= 3:
        # no rational roots were left in p, so low degrees are irreducible
        return None
    prim = p.primitive()
    samples = []
    x = 0
    seq = [0]
    while len(seq) < deg:
        x += 1
        seq.extend([x, -x])
    for d in range(2, deg // 2 + 1):
        pts = seq[: d + 1]
        values = []
        for s in pts:
            v = prim.evaluate({prim.vars[i]: Fraction(s)})
            values.append(int(v) if v.denominator == 1 else None)
            if values[-1] is None or values[-1] == 0:
                return None  # primitive integer poly: cannot happen off roots
        divisor_lists = []
        for v in values:
            ds = _int_divisors(v)
            divisor_lists.append([x for d0 in ds for x in (d0, -d0)])
        # fix the first value's sign to halve the search
        divisor_lists[0] = [d0 for d0 in divisor_lists[0] if d0 > 0]
        for combo in product(*divisor_lists):
            coeffs = interpolate(list(zip(pts, combo)))
            if len(coeffs) - 1 != d:
                continue
            cand = from_dense(coeffs, prim.vars, i, prim.order)
            try:
                prim.exact_div(cand)
            except ArithmeticError:
                continue
            return cand.monic()
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
    factors = {}

    def add(f, mult):
        key = (f.vars, frozenset(f.terms.items()))
        if key in factors:
            factors[key] = (f, factors[key][1] + mult)
        else:
            factors[key] = (f, mult)

    for sqf, mult in squarefree_decomposition(p):
        stack = [sqf]
        while stack:
            g = stack.pop()
            # peel rational roots first
            for root, rmult in rational_roots(g):
                lin = from_dense([-root, Fraction(1)], g.vars, i, g.order)
                for _ in range(rmult):
                    g = g.exact_div(lin)
                add(lin, mult * rmult)
            if g.degree_in(i) <= 0:
                continue
            piece = _kronecker_factor(g, i)
            if piece is None:
                add(g.monic(), mult)
            else:
                stack.append(piece)
                stack.append(g.exact_div(piece).monic())
    ordered = sorted(
        factors.values(), key=lambda fm: (fm[0].total_degree(), fm[0].to_str())
    )
    return unit, ordered
