"""Prolongation of differential systems into directed towers of algebraic
varieties, the affine solve for top-order coordinates, and extraction of the
variety-with-affine-subbundle data at the computed level bound.

Frames list every algebraic indeterminate up to a given order in canonical
rank order.  Prolonged ideals collect all derivatives of the defining
polynomials that fit inside a frame; their honest geometric counterpart is
the saturation by the separants, realized through a single Rabinowitsch
variable.  A ProlongationLadder computes these saturations level by level,
each from the basis of the level below; it owns the frames and the one memo
of derivatives, from which each theta(f) reaches a frame's columns one way
(diffring.sparse_columns).  At levels above every defining order, each
non-basis top-order coordinate is a degree-one consequence of exactly one
derived polynomial, which yields the affine fiber model and, at level
bound + 1, the fiberwise affine subbundle of the tangent spaces.
"""

from functools import reduce
from operator import mul

from .diffring import AlgIndet, AutoreducedSet, _derived_terms, sparse_columns, sparse_terms
from .groebner import GREVLEX, LEX, GroebnerBasis, buchberger_terms, ideal_dimension, order_key
from .initialsets import leaders_to_exponents, prolongation_bound
from .multipoly import (
    MultiPoly,
    exponents_of_degree,
    exponents_upto,
    from_integer_terms,
    split_terms,
)
from .ratfunc import RatFunc


def nabla_frame(m, n, t):
    """Algebraic indeterminates of order <= t in increasing canonical rank."""
    if t < 0:
        raise ValueError("negative prolongation level")
    frame = [
        AlgIndet(r, j) for j in range(1, n + 1) for r in exponents_upto(m, t)
    ]
    frame.sort(key=AlgIndet.rank_key)
    return tuple(frame)


def _frame_sig(frame):
    """Polynomial signature for a frame: highest rank first, so leading terms
    of derived polynomials sit on their leaders.  A frame is in increasing
    rank, so this is its reverse."""
    return frame[::-1]


def _frame_columns(frame, off=0):
    """The column of each frame coordinate, keyed (theta, var) as sparse
    terms are (diffring.sparse_columns): off leading columns, then the
    frame signature."""
    last = off + len(frame) - 1
    return {(v.theta, v.var): last - i for i, v in enumerate(frame)}


def _require_constant_field(ctx):
    if ctx.coeff_gens and not ctx.is_constant_field():
        raise ValueError(
            "prolongation requires a constant coefficient field "
            "(all derivation actions on the t-generators must be zero)"
        )


def _require_frame_poly(f):
    """Raise unless the differential polynomial f is free of coefficient
    generators, so that its body lives on a frame."""
    for i in f.body.support_indices():
        if not isinstance(f.body.vars[i], AlgIndet):
            raise ValueError(
                "prolongation works over rational constants; a coefficient "
                "generator occurs in the system"
            )


def _thetas(orders, m, t, exact=False):
    """(element index, theta) of each theta(f) with ord(theta f) <= t, or
    exactly t when exact, element by element; orders holds each element's
    order."""
    thetas = exponents_of_degree if exact else exponents_upto
    for i, order in enumerate(orders):
        if order <= t:
            for theta in thetas(m, t - order):
                yield i, theta


def _theta_images(polys, orders, frame, t, memo):
    """(generators, provenance): the polynomials theta(f) with
    ord(theta f) <= t over the frame signature, each derived through memo
    (diffring._derived_terms), and (element index, theta) of each."""
    sig = _frame_sig(frame)
    col = _frame_columns(frame)
    provenance = list(_thetas(orders, len(frame[0].theta), t))
    gens = []
    for i, theta in provenance:
        den, terms = _derived_terms(polys, i, theta, memo)
        gens.append(from_integer_terms(sig, sparse_columns(terms, col, len(sig)), den))
    return gens, provenance


def prolong_generators(polys, t):
    """Frame polynomials theta(f) with ord(theta f) <= t for arbitrary
    generator lists (no autoreducedness required)."""
    polys = list(polys)
    ctx = polys[0].ctx
    _require_constant_field(ctx)
    frame = nabla_frame(ctx.m, ctx.n, t)
    orders = [f.order() for f in polys]
    for f, order in zip(polys, orders):
        if order <= t:
            _require_frame_poly(f)
    return (frame, *_theta_images(polys, orders, frame, t, {}))


class ProlongationLadder:
    """The prolonged ideals of one autoreduced system, level by level.

    Let I_t be the ideal of the theta(f) with ord(theta f) <= t, and h the
    product of the nonconstant separants, which is the same at every level.
    Then I_t = I_{t-1} + J_t, where J_t holds the theta(f) of order exactly
    t, so the ideal I_t + <z*h - 1>, z the Rabinowitsch variable, is the
    one of level t - 1 plus J_t.  The ladder keeps the reduced lex basis of
    that extended ideal, z greatest, by level, and starts each level from
    the basis below it: a Groebner basis stays one when the ring gains
    variables and the term order restricts to the old one.  The z-free
    part of a level's basis is the reduced basis of the saturation
    I_t : h^infinity, which buchberger_terms finds from scratch as well: it
    is unique.  With no separant to invert, the basis is the grevlex basis
    of I_t itself.

    Bases are integer term dicts over the columns (z, then the frame
    signature, highest rank first).  The order-t coordinates rank highest,
    so a basis moves up one level by zero columns put after z: under lex
    and under grevlex every leading monomial stays where it was.  Each
    theta(f) is derived once, through one memo (diffring._derived_terms),
    and put on a frame's columns by diffring.sparse_columns: the bases,
    the generators of level() and affine_fiber all read it so.  The
    generator lists are built only for the levels read through level().
    Every level asked for must be at least bottom, the highest defining
    order; below it each method raises ValueError.
    """

    __slots__ = ("aset", "bottom", "order", "_orders", "_memo", "_frames", "_separants", "_bases")

    def __init__(self, aset):
        if not isinstance(aset, AutoreducedSet):
            aset = AutoreducedSet(aset)
        ctx = aset.ctx
        _require_constant_field(ctx)
        for f in aset.elements:
            _require_frame_poly(f)
        self.aset = aset
        self._orders = [f.order() for f in aset.elements]
        self.bottom = max(self._orders)
        self._memo = {}
        self._frames = []  # the frames of levels bottom, bottom + 1, ...
        sig = _frame_sig(self.frame(self.bottom))
        separants = []
        for f in aset.elements:
            s = f.separant()
            if not s.is_in_coeff_field():
                sp = s.body.restrict(sig).primitive()
                if sp not in separants:
                    separants.append(sp)
        self._separants = separants  # over the bottom level's signature
        self.order = LEX if separants else GREVLEX
        self._bases = {}  # level -> (basis, leads) of its extended ideal

    def frame(self, t):
        """nabla_frame at level t: the one below it and then the order-t
        coordinates, which rank above it."""
        if t < self.bottom:
            raise ValueError(f"level {t} is below the maximum defining order {self.bottom}")
        frames = self._frames
        m, n = self.aset.ctx.m, self.aset.ctx.n
        if not frames:
            frames.append(nabla_frame(m, n, self.bottom))
        while len(frames) <= t - self.bottom:
            s = self.bottom + len(frames)
            top = [AlgIndet(r, j) for j in range(1, n + 1) for r in exponents_of_degree(m, s)]
            frames.append(frames[-1] + tuple(sorted(top, key=AlgIndet.rank_key)))
        return frames[t - self.bottom]

    def level(self, t):
        """The ProlongedIdeal of level t, with its generators; its basis is
        computed when read."""
        frame = self.frame(t)
        sig = _frame_sig(frame)
        gens, provenance = _theta_images(self.aset.elements, self._orders, frame, t, self._memo)
        separants = [s.restrict(sig) for s in self._separants]
        return ProlongedIdeal(t, frame, gens, provenance, separants, self)

    def saturated(self, t):
        """(basis, leads): the reduced basis of level t's saturated ideal,
        over the columns of the frame signature.  Under lex with z greatest,
        an element is z-free exactly when its leading monomial is."""
        basis, leads = self._extended(t)
        if self.order == LEX:
            keep = [i for i, le in enumerate(leads) if not le[0]]
            basis = [{e[1:]: c for e, c in basis[i].items()} for i in keep]
            leads = [leads[i][1:] for i in keep]
        return basis, leads

    def dimension(self, t):
        """Staircase dimension of level t's saturated ideal."""
        return ideal_dimension(self.saturated(t)[1], len(self.frame(t)))

    def _extended(self, t):
        """(basis, leads) of level t's extended ideal, walking up from the
        highest level computed."""
        bases = self._bases
        if t not in bases:
            self.frame(t)  # raises below the bottom level
            key = order_key(self.order)
            off = int(self.order == LEX)
            s = max(bases, default=self.bottom - 1)
            basis, leads = bases.get(s, ((), ()))
            while s < t:
                s += 1
                frame = self.frame(s)
                width = len(frame) + off
                # columns: z (when saturating), then the frame highest rank
                # first; all the theta(f) at the bottom level, J_s above it
                col = _frame_columns(frame, off)
                gens = []
                for i, theta in _thetas(self._orders, self.aset.ctx.m, s, s > self.bottom):
                    _, terms = _derived_terms(self.aset.elements, i, theta, self._memo)
                    gens.append(sparse_columns(terms, col, width))
                if s > self.bottom:
                    pad = (0,) * (len(frame) - len(self.frame(s - 1)))
                    basis = [{e[:off] + pad + e[off:]: c for e, c in g.items()} for g in basis]
                    leads = [le[:off] + pad + le[off:] for le in leads]
                elif off:
                    gens.append(self._rabinowitsch(col, width))
                basis, leads = buchberger_terms(
                    gens, [max(g, key=key) for g in gens], self.order, (basis, leads)
                )
                bases[s] = basis, leads
        return bases[t]

    def _rabinowitsch(self, col, width):
        """z*h - 1 over the bottom level's columns, h the separant product."""
        _, terms = sparse_terms(reduce(mul, self._separants).primitive())
        out = {(1,) + e[1:]: c for e, c in sparse_columns(terms, col, width).items()}
        out[(0,) * width] = -1
        return out


class ProlongedIdeal:
    """Level t of a ProlongationLadder: the generators theta(f),
    ord(theta f) <= t, over the frame ring.

    The geometric object is the saturation by the separant set.  Its one
    reduced Groebner basis is the lex basis the ladder reads off the
    extended ideal (grevlex when no separant needs inverting); dimension()
    and the normal forms of the fiber checks read it.
    """

    __slots__ = ("level", "frame", "generators", "provenance", "separants", "_ladder", "_basis")

    def __init__(self, level, frame, generators, provenance, separants, ladder):
        self.level = level
        self.frame = frame
        self.generators = generators
        self.provenance = provenance  # (element index, theta) per generator
        self.separants = separants  # nonconstant separants over the frame
        self._ladder = ladder
        self._basis = None  # the GroebnerBasis, once built

    def groebner_basis(self):
        if self._basis is None:
            sig = _frame_sig(self.frame)
            basis, leads = self._ladder.saturated(self.level)
            monic = (from_integer_terms(sig, g, g[le]) for g, le in zip(basis, leads))
            self._basis = GroebnerBasis(tuple(monic), self._ladder.order, sig)
        return self._basis

    def dimension(self):
        return self._ladder.dimension(self.level)


def prolong_ideal(aset, t):
    """The level-t prolongation of an autoreduced system: level t of its
    ProlongationLadder."""
    return ProlongationLadder(aset).level(t)


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


def affine_fiber(ladder, t):
    """Solve every non-basis order-t coordinate affinely over level t-1 of
    the ProlongationLadder ladder, so t must lie above its bottom level.

    Walks the order-t coordinates in increasing rank, mirroring the degree
    one structure of derived polynomials: the coordinate is the leader of
    theta(f) with coefficient the separant of f, everything else has lower
    rank and is already solved or basic.  The order-t coordinates are the
    ones the ladder's level-t frame appends to level t-1's, and each
    theta(f) is read from the ladder's memo onto the level-t frame's
    columns, so no theta(f) the ladder derived is derived again.
    """
    aset = ladder.aset
    frame_low = ladder.frame(t - 1)
    frame = ladder.frame(t)
    order_t = frame[len(frame_low) :]
    rep = leaders_to_exponents(aset)
    basis = tuple(v for v in order_t if rep.contains(v))
    leaders = aset.leaders()
    # the order-t coordinates, highest rank first, lead the level-t frame
    # signature, so the coefficients of a polynomial in them are
    # polynomials over low_sig
    low_sig = _frame_sig(frame_low)
    top = order_t[::-1]
    k = len(top)
    col = _frame_columns(frame)
    units = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    expressions = {}
    separants_used = {}
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
        den, terms = _derived_terms(aset.elements, i, theta, ladder._memo)
        sep = f.separant()
        if sep.is_zero():
            raise ZeroDivisionError("identically zero separant: degenerate system")
        sep_rf = RatFunc(sep.body.restrict(low_sig))
        # split g = sep*v + (linear part in other order-t coords) + constant
        parts = split_terms(sparse_columns(terms, col, len(frame)), k)
        if any(sum(e) > 1 for e in parts):
            raise AssertionError("derived polynomial is not degree one at top order")
        const = from_integer_terms(low_sig, parts.get((0,) * k, {}), den)
        expr = AffineExpr((-RatFunc(const)) / sep_rf)
        used = [i]
        for w, unit in zip(top, units):
            if w == v or unit not in parts:
                continue
            coef = (-RatFunc(from_integer_terms(low_sig, parts[unit], den))) / sep_rf
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
    ladder = ProlongationLadder(aset)
    aset = ladder.aset
    bound = prolongation_bound(aset)
    level = bound.level
    rep = leaders_to_exponents(aset)
    variety = ladder.level(level)
    fibers = affine_fiber(ladder, level + 1)
    r_counts = rep.count_up_to(level + 1) - rep.count_up_to(level)
    if r_counts != fibers.fiber_dimension():
        raise ValueError(
            f"fiber rank mismatch: counts give {r_counts}, model has {fibers.fiber_dimension()}"
        )
    jump = ladder.dimension(level + 1) - variety.dimension()
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
