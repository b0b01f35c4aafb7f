"""Canonical text forms for the expression grammar.

parse(print(x)) == x for every value the printer accepts; the printers sort
terms by the descending term order of the body, so output is stable.

A differential polynomial is printed by one kernel, print_integer_terms,
from integer terms over one denominator: each coefficient is put in lowest
terms by a gcd, so the text is the one its Fraction would give.
print_diffpoly is its DiffPoly face; the reduce command feeds it a
certificate's packed parts, unpacked with no Fraction built.
"""

from __future__ import annotations

from math import gcd
from operator import getitem

from .diffring import CoeffGen, indet_name
from .multipoly import GREVLEX, integer_terms, sorted_exponents


def _indet_factor(v, exp):
    base = indet_name(v)
    if exp == 1:
        return base
    if any(v.theta):
        return f"({base})^{exp}"
    return f"{base}^{exp}"


def _coeff_factor(v, exp):
    return f"t{v.index}" if exp == 1 else f"t{v.index}^{exp}"


class _Factors(dict):
    """exponent -> the text of the variable v to that power, made once."""

    __slots__ = ("v",)

    def __init__(self, v):
        super().__init__({0: ""})
        self.v = v

    def __missing__(self, exp):
        v = self.v
        s = self[exp] = (_coeff_factor if isinstance(v, CoeffGen) else _indet_factor)(v, exp)
        return s


def print_diffpoly(f):
    body = f.body
    return print_integer_terms(body.vars, *integer_terms(body.terms), body.order)


def print_integer_terms(vars, den, terms, order=GREVLEX):
    """The text of the polynomial with coefficients terms[e] / den over the
    signature vars (a differential ring's: algebraic indeterminates, then
    coefficient generators), terms holding no zero entry."""
    if not terms:
        return "0"
    # low-rank factors first, coefficient generators in front; the text
    # of a power 0 is empty, and filter drops it
    factors = [_Factors(v) for v in reversed(vars)]
    pieces = []
    for e in sorted_exponents(terms, order):
        mono = "*".join(filter(None, map(getitem, factors, e[::-1])))
        num = terms[e]
        negative = num < 0
        if negative:
            num = -num
        common = gcd(num, den)
        num //= common
        d = den // common
        size = str(num) if d == 1 else f"{num}/{d}"
        if not mono:
            chunk = size
        elif num == 1 and d == 1:
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
