"""Prolongation of differential systems into directed towers of algebraic
varieties, the affine solve for top-order coordinates, and extraction of the
variety-with-affine-subbundle data at the computed level bound.

Frames list every algebraic indeterminate up to a given order in canonical
rank order.  Prolonged ideals collect all derivatives of the defining
polynomials that fit inside a frame; their honest geometric counterpart is
the saturation by the separants, realized through a single Rabinowitsch
variable.  At levels above every defining order, each non-basis top-order
coordinate is a degree-one consequence of exactly one derived polynomial,
which yields the affine fiber model and, at level bound + 1, the fiberwise
affine subbundle of the tangent spaces.
"""

from .diffring import AlgIndet, AutoreducedSet, derived
from .groebner import GREVLEX, buchberger, ideal_dimension, saturate
from .initialsets import leaders_to_exponents, prolongation_bound
from .multipoly import MultiPoly, coefficients, exponents_upto
from .ratfunc import RatFunc


def nabla_frame(m, n, t):
    """Algebraic indeterminates of order <= t in increasing canonical rank."""
    if t < 0:
        raise ValueError("negative prolongation level")
    frame = [
        AlgIndet(r, j) for j in range(1, n + 1) for r in exponents_upto(m, t)
    ]
    frame.sort(key=lambda v: v.rank_key())
    return tuple(frame)


def _frame_sig(frame):
    """Polynomial signature for a frame: highest rank first, so leading terms
    of derived polynomials sit on their leaders."""
    return tuple(sorted(frame, key=lambda v: v.rank_key(), reverse=True))


def _require_constant_field(ctx):
    if ctx.coeff_gens and not ctx.is_constant_field():
        raise ValueError(
            "prolongation requires a constant coefficient field "
            "(all derivation actions on the t-generators must be zero)"
        )


def _as_frame_poly(f, frame):
    """Body of a differential polynomial over the frame signature."""
    used = f.body.support_indices()
    for i in used:
        if not isinstance(f.body.vars[i], AlgIndet):
            raise ValueError(
                "prolongation works over rational constants; a coefficient "
                "generator occurs in the system"
            )
    return f.body.restrict(_frame_sig(frame))


class ProlongedIdeal:
    """Level-t generators theta(f), ord(theta f) <= t, over the frame ring.

    The geometric object is the saturation by the separant set.  Its one
    reduced Groebner basis, computed once, is the lex basis that saturation
    returns (grevlex when no separant needs inverting); dimension() and the
    normal forms of the fiber checks read it.
    """

    __slots__ = ("level", "frame", "generators", "provenance", "separants", "_basis")

    def __init__(self, level, frame, generators, provenance, separants, _basis=None):
        self.level = level
        self.frame = frame
        self.generators = generators
        self.provenance = provenance  # (element index, theta) per generator
        self.separants = separants  # nonconstant separants over the frame
        self._basis = _basis  # the GroebnerBasis, once computed

    def groebner_basis(self):
        if self._basis is None:
            if self.separants:
                # one Rabinowitsch elimination against the separants' product
                product = self.separants[0]
                for h in self.separants[1:]:
                    product = product * h
                self._basis = saturate(self.generators, product.primitive())
            else:
                self._basis = buchberger(self.generators, GREVLEX)
        return self._basis

    def dimension(self):
        return ideal_dimension(self.groebner_basis())


def prolong_generators(polys, t):
    """Frame polynomials theta(f) with ord(theta f) <= t for arbitrary
    generator lists (no autoreducedness required)."""
    polys = list(polys)
    ctx = polys[0].ctx
    _require_constant_field(ctx)
    frame = nabla_frame(ctx.m, ctx.n, t)
    gens, provenance = [], []
    memo = {}
    for idx, f in enumerate(polys):
        room = t - f.order()
        if room < 0:
            continue
        for theta in exponents_upto(ctx.m, room):
            g = derived(polys, idx, theta, memo)
            gens.append(_as_frame_poly(g, frame))
            provenance.append((idx, theta))
    return frame, gens, provenance


def prolong_ideal(aset, t):
    """The level-t prolongation of an autoreduced system."""
    if not isinstance(aset, AutoreducedSet):
        aset = AutoreducedSet(aset)
    if t < aset.max_order():
        raise ValueError(f"level {t} is below the maximum defining order {aset.max_order()}")
    frame, gens, provenance = prolong_generators(aset.elements, t)
    separants = []
    for f in aset.elements:
        s = f.separant()
        if not s.is_in_coeff_field():
            sp = _as_frame_poly(s, frame).primitive()
            if sp not in separants:
                separants.append(sp)
    return ProlongedIdeal(
        level=t,
        frame=frame,
        generators=gens,
        provenance=provenance,
        separants=separants,
    )


class AffineExpr:
    """Affine-linear expression c0 + sum(c_b * b) over order-t basis
    coordinates b, with rational-function coefficients in the lower frame."""

    __slots__ = ("const", "linear")

    def __init__(self, const, linear=None):
        self.const = const
        self.linear = dict(linear or {})

    def scaled(self, c):
        return AffineExpr(self.const * c, {b: v * c for b, v in self.linear.items()})

    def plus(self, other):
        linear = dict(self.linear)
        for b, v in other.linear.items():
            cur = linear.get(b)
            linear[b] = v if cur is None else cur + v
        return AffineExpr(self.const + other.const, {b: v for b, v in linear.items() if v})

    def to_str(self):
        bits = []
        if self.const:
            bits.append(self.const.to_str())
        for b in sorted(self.linear, key=lambda v: v.rank_key()):
            v = self.linear[b]
            if v:
                bits.append(f"({v.to_str()})*{b!r}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"AffineExpr({self.to_str()})"


class AffineFiberModel:
    """Order-t coordinates over the level-(t-1) function field.

    Every non-basis order-t coordinate carries exactly one affine expression
    in the order-t basis coordinates; the denominators that appear are
    separant products (recorded per expression before cancellation).
    """

    __slots__ = ("level", "frame_low", "basis_coords", "expressions", "separants_used")

    def __init__(self, level, frame_low, basis_coords, expressions, separants_used):
        self.level = level
        self.frame_low = frame_low  # coordinates of order <= t-1
        self.basis_coords = basis_coords  # order-t coordinates inside B
        self.expressions = expressions  # non-basis order-t AlgIndet -> AffineExpr
        self.separants_used = separants_used  # same keys -> tuple of element indices inverted

    def fiber_dimension(self):
        return len(self.basis_coords)


def affine_fiber(aset, t):
    """Solve every non-basis order-t coordinate affinely over level t-1.

    Walks the order-t coordinates in increasing rank, mirroring the degree
    one structure of derived polynomials: the coordinate is the leader of
    theta(f) with coefficient the separant of f, everything else has lower
    rank and is already solved or basic.
    """
    if not isinstance(aset, AutoreducedSet):
        aset = AutoreducedSet(aset)
    ctx = aset.ctx
    _require_constant_field(ctx)
    if t <= aset.max_order():
        raise ValueError(
            f"affine solve needs a level strictly above the maximum order {aset.max_order()}"
        )
    rep = leaders_to_exponents(aset)
    frame_low = nabla_frame(ctx.m, ctx.n, t - 1)
    low_sig = _frame_sig(frame_low)
    order_t = [v for v in nabla_frame(ctx.m, ctx.n, t) if v.order == t]
    order_t.sort(key=lambda v: v.rank_key())
    basis = tuple(v for v in order_t if rep.contains(v))
    leaders = aset.leaders()
    # the order-t coordinates come first in frame_t, so the coefficients of
    # a polynomial in them are polynomials over low_sig
    frame_t = _frame_sig(nabla_frame(ctx.m, ctx.n, t))
    top = frame_t[: len(order_t)]
    units = [tuple(int(j == i) for j in range(len(top))) for i in range(len(top))]
    expressions = {}
    separants_used = {}
    memo = {}
    for v in order_t:
        if v in basis:
            continue
        # the set holds its elements in increasing rank (the ranking's sort
        # key), so the first one whose leader v derives from ranks lowest
        i = next((i for i, u in enumerate(leaders) if v.is_derivative_of(u)), None)
        if i is None:
            raise ValueError(f"coordinate {v!r} is neither basic nor reducible")
        f = aset.elements[i]
        u = leaders[i]
        theta = tuple(a - b for a, b in zip(v.theta, u.theta))
        g = derived(aset.elements, i, theta, memo)
        sep = f.separant()
        if sep.is_zero():
            raise ZeroDivisionError("identically zero separant: degenerate system")
        sep_rf = RatFunc(sep.body.restrict(low_sig))
        # split g = sep*v + (linear part in other order-t coords) + constant
        parts = coefficients(g.body.restrict(frame_t), len(top))
        if any(sum(e) > 1 for e in parts):
            raise AssertionError("derived polynomial is not degree one at top order")
        const = parts.get((0,) * len(top), MultiPoly.zero(low_sig))
        expr = AffineExpr((-RatFunc(const)) / sep_rf)
        used = [i]
        for w, unit in zip(top, units):
            if w == v or unit not in parts:
                continue
            coef = (-RatFunc(parts[unit])) / sep_rf
            if w in basis:
                expr = expr.plus(AffineExpr(RatFunc(MultiPoly.zero(low_sig)), {w: coef}))
            else:
                expr = expr.plus(expressions[w].scaled(coef))
                used.extend(separants_used[w])
        expressions[v] = expr
        separants_used[v] = tuple(sorted(set(used)))
    return AffineFiberModel(
        level=t,
        frame_low=frame_low,
        basis_coords=basis,
        expressions=expressions,
        separants_used=separants_used,
    )


class DVarietyData:
    """Algebraic variety at the level bound plus the affine subbundle of the
    m-fold tangent bundle read off from the next level."""

    __slots__ = ("level", "variety", "fibers", "fiber_dim", "bound")

    def __init__(self, level, variety, fibers, fiber_dim, bound):
        self.level = level
        self.variety = variety  # ProlongedIdeal
        self.fibers = fibers  # AffineFiberModel
        self.fiber_dim = fiber_dim
        self.bound = bound  # LevelBound breakdown


def extract_dvariety(aset):
    """Variety and affine fiber data at the computed level bound.

    The fiber dimension from initial-set counts must match the Groebner
    oracle's dimension jump; a mismatch signals that the input was not a
    characteristic set and raises.
    """
    if not isinstance(aset, AutoreducedSet):
        aset = AutoreducedSet(aset)
    bound = prolongation_bound(aset)
    level = bound.level
    rep = leaders_to_exponents(aset)
    variety = prolong_ideal(aset, level)
    fibers = affine_fiber(aset, level + 1)
    r_counts = rep.count_up_to(level + 1) - rep.count_up_to(level)
    if r_counts != fibers.fiber_dimension():
        raise ValueError(
            f"fiber rank mismatch: counts give {r_counts}, model has {fibers.fiber_dimension()}"
        )
    upper = prolong_ideal(aset, level + 1)
    jump = upper.dimension() - variety.dimension()
    if jump != r_counts:
        raise ValueError(
            f"non-characteristic input: oracle dimension jump {jump} != {r_counts}"
        )
    return DVarietyData(
        level=level,
        variety=variety,
        fibers=fibers,
        fiber_dim=r_counts,
        bound=bound,
    )
