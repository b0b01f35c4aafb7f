"""Canonical text forms for the expression grammar.

parse(print(x)) == x for every value the printer accepts; the printers sort
terms grevlex-descending (sorted_exponents), so output is stable.

Every polynomial is printed by one kernel, print_terms, from integer terms
over one denominator: each coefficient is put in lowest terms by a gcd
(none when the denominator is 1), so the text is the one its Fraction
would give.  Its caller hands it a factor table per column (FactorTable: a
name, and whether a power of it is bracketed), its terms keyed in the
order the columns are written in, and the order of the terms.  A
differential polynomial (print_integer_terms, and print_diffpoly its
DiffPoly face; the reduce command feeds it a certificate's packed parts,
unpacked straight into written order with no Fraction built) is written
lowest rank first, coefficient generators in front, with a derivative's
powers bracketed: (d1*u1)^2.  A MultiPoly
(MultiPoly.to_str) is written in signature order with plain powers, so a
frame polynomial reads d1*u1^2; a derivative chain is one atom of the
grammar, so both read back the same.
"""

from math import gcd
from operator import getitem

from .multipoly import integer_terms

class FactorTable(dict):
    """exponent -> the text of the variable name to that power, made once;
    with bracket set, a power puts the name in parentheses."""

    __slots__ = ("name", "bracket")

    def __init__(self, name, bracket):
        self.name = name
        self.bracket = bracket
        self[0] = ""
        self[1] = name

    def __missing__(self, exp):
        s = self[exp] = f"({self.name})^{exp}" if self.bracket else f"{self.name}^{exp}"
        return s


def print_diffpoly(f):
    body = f.body
    den, terms = integer_terms(body.terms)
    return print_integer_terms(body.vars[::-1], den, {e[::-1]: c for e, c in terms.items()})


def print_integer_terms(vars, den, terms):
    """The text of the differential polynomial with coefficients
    terms[e] / den over vars in written order: a differential ring's
    signature reversed, coefficient generators first, then algebraic
    indeterminates lowest rank first; terms hold no zero entry.  A name
    with a '*' in it is a derivative, d1*u1.

    The terms are written grevlex-descending over the signature: by degree,
    largest first, then by the written exponent tuple, smallest first."""
    factors = []
    for v in vars:
        name = repr(v)
        factors.append(FactorTable(name, "*" in name))
    exponents = sorted(terms)
    exponents.sort(key=sum, reverse=True)
    return print_terms(factors, den, terms, exponents)


def print_terms(factors, den, terms, exponents):
    """The text of the polynomial with coefficients terms[e] / den, terms
    holding no zero entry, written term by term in the order of the list
    exponents (its keys): factors[i] is the FactorTable of column i, and
    each monomial writes its columns in that order."""
    if not terms:
        return "0"
    pieces = []
    for e in exponents:
        # the text of a power 0 is empty, and filter drops it
        mono = "*".join(filter(None, map(getitem, factors, e)))
        num = terms[e]
        negative = num < 0
        if negative:
            num = -num
        if den == 1:
            d = 1
        else:
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
