"""Univariate polynomial factorization over Q.

Rational roots come from the rational root theorem on the integer-primitive
form; the remaining squarefree parts (Yun decomposition) are factored by
Kronecker interpolation, which is exact and entirely adequate at the degrees
this package meets.  Multivariate factorization is deliberately absent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .multipoly import dense_coeffs, from_dense, horner, interpolate, poly_gcd


def _main_index(p):
    support = p.support_indices()
    if len(support) > 1:
        raise ValueError("polynomial is not univariate")
    return min(support) if support else 0


def _int_divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(p):
    """All rational roots of a univariate polynomial, with multiplicities.

    Returns a list of (root, multiplicity) sorted by root.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    i = _main_index(p)
    coeffs = dense_coeffs(p.primitive(), i)
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
    a0 = coeffs[0].numerator
    an = coeffs[-1].numerator

    def deflate(f, x):
        # synthetic division by (X - x); caller guarantees exactness
        out = [Fraction(0)] * (len(f) - 1)
        acc = Fraction(0)
        for k in range(len(f) - 1, 0, -1):
            acc = f[k] + acc * x
            out[k - 1] = acc
        return out

    candidates = set()
    for num in _int_divisors(a0):
        for den in _int_divisors(an):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        mult = 0
        while len(coeffs) > 1 and not horner(coeffs, cand):
            coeffs = deflate(coeffs, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
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


def is_irreducible_univariate(p):
    _, factors = factor_univariate(p)
    return len(factors) == 1 and factors[0][1] == 1
