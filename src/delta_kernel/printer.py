"""Canonical text forms for the expression grammar.

parse(print(x)) == x for every value the printer accepts; the printers sort
terms by the descending term order of the body, so output is stable.
"""

from __future__ import annotations

from .diffring import CoeffGen, indet_name
from .multipoly import sorted_exponents


def _indet_factor(v, exp):
    base = indet_name(v)
    if exp == 1:
        return base
    if any(v.theta):
        return f"({base})^{exp}"
    return f"{base}^{exp}"


def _coeff_factor(v, exp):
    return f"t{v.index}" if exp == 1 else f"t{v.index}^{exp}"


def print_diffpoly(f):
    body = f.body
    if body.is_zero():
        return "0"
    vars = body.vars
    # low-rank factors first, coefficient generators in front
    columns = range(len(vars) - 1, -1, -1)
    factor_strs = {}
    pieces = []
    terms = body.terms
    for e in sorted_exponents(terms, body.order):
        c = terms[e]
        factors = []
        for i in columns:
            exp = e[i]
            if not exp:
                continue
            s = factor_strs.get((i, exp))
            if s is None:
                v = vars[i]
                if isinstance(v, CoeffGen):
                    s = _coeff_factor(v, exp)
                else:
                    s = _indet_factor(v, exp)
                factor_strs[(i, exp)] = s
            factors.append(s)
        mono = "*".join(factors)
        # sign and size from the integer parts, with no Fraction arithmetic
        num, den = c.numerator, c.denominator
        negative = num < 0
        if negative:
            num = -num
        size = str(num) if den == 1 else f"{num}/{den}"
        if not mono:
            chunk = size
        elif num == 1 and den == 1:
            chunk = mono
        else:
            chunk = f"{size}*{mono}"
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(chunk)
    return "".join(pieces)


def print_ratfunc(r):
    ns = r.num.to_str()
    if r.den.is_constant() and r.den.constant_value() == 1:
        return ns
    ds = r.den.to_str()
    if len(r.num.terms) > 1 or _needs_parens(ns):
        ns = f"({ns})"
    if len(r.den.terms) > 1 or "*" in ds or "^" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _needs_parens(s):
    return "+" in s or " - " in s or s.startswith("-") or "*" in s or "/" in s
