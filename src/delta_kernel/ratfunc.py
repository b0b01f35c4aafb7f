"""Rational functions over Q in lowest terms with a monic denominator.

The numerator and denominator are MultiPolys over one signature.  The
gcd is divided out on construction and the denominator made monic under
grevlex, the order every MultiPoly's leading term is taken in, so each
rational function has one representative and equality is structural.

Text (to_str) is the numerator over the denominator, each bracketed when
it has several terms; a denominator of one term in several variables is
bracketed too, so that the text reads back: (t1 + 1)/(t1*t2^2).  A
derivative chain is one variable, so its denominator stays bare: 5/3/d1*u1.
printer.print_ratfunc brackets by its own rules, x1^4/(x2^2); pinned
output uses both, so neither rule can take the other's place.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, SignatureMismatchError, poly_gcd


class RatFunc:
    """num/den with gcd(num, den) = 1 and den monic under grevlex."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if num.vars != den.vars:
            raise SignatureMismatchError("numerator and denominator signatures differ")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            if num.is_zero():
                den = MultiPoly.const(num.vars, 1)
            else:
                g = poly_gcd(num, den)
                if g.total_degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lc = den.leading()[1]
                if lc != 1:
                    num = num.scale(1 / lc)
                    den = den.scale(1 / lc)
        self.num = num
        self.den = den

    # ---------- constructors ----------

    @classmethod
    def from_const(cls, vars, c):
        return cls(MultiPoly.const(vars, c), reduce=False)

    @classmethod
    def var(cls, vars, v):
        return cls(MultiPoly.var(vars, v), reduce=False)

    # ---------- predicates ----------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    # ---------- coercion ----------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_const(self.num.vars, other)
        if isinstance(other, MultiPoly):
            return RatFunc(other, reduce=False)
        return None

    # ---------- arithmetic ----------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n, reduce=False)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    # ---------- calculus ----------

    def derivative(self, i=0):
        """Quotient-rule derivative with respect to variable index i."""
        n, d = self.num, self.den
        return RatFunc(n.partial(i) * d - n * d.partial(i), d * d)

    # ---------- equality & printing ----------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def to_str(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.to_str()
        ns = self.num.to_str()
        ds = self.den.to_str()
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1 or len(self.den.support_indices()) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"
