import importlib.util
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from delta_kernel.diffring import AlgIndet, AutoreducedSet, DiffContext
from delta_kernel.groebner import GREVLEX, buchberger, ideal_dimension, normal_form, saturate
from delta_kernel.initialsets import leaders_to_exponents, prolongation_bound
from delta_kernel.multipoly import MultiPoly
from delta_kernel.parser import parse_system
from delta_kernel.prolongation import (
    AffineExpr,
    ProlongationLadder,
    _frame_sig,
    affine_fiber,
    extract_dvariety,
    nabla_frame,
    prolong_generators,
    prolong_ideal,
)
from delta_kernel.ratfunc import RatFunc

from conftest import default_seed


def fiber_residuals(aset, model):
    """Exact check of the affine solve against the prolonged ideal.

    Substitutes the fiber expressions into every level-t generator and
    reduces modulo the Groebner basis of the saturated level-(t-1) ideal
    (ProlongedIdeal.groebner_basis, lifted to the level-t frame); returns
    the list of remainders (all zero when the model is consistent).
    """
    t = model.level
    ctx = aset.ctx
    pid = prolong_ideal(aset, t)
    gb_low = prolong_ideal(aset, t - 1).groebner_basis()
    ext = _frame_sig(nabla_frame(ctx.m, ctx.n, t))
    # a basis over the lower frame stays one over the level-t frame: the
    # term order on ext restricts to gb_low's order on the lower coordinates
    lifted = [g.restrict(ext) for g in gb_low]
    residuals = []
    for gen in pid.generators:
        top = [
            v
            for i, v in enumerate(gen.vars)
            if isinstance(v, AlgIndet) and v.order == t and gen.degree_in(i) > 0
        ]
        if not top:
            continue
        total = RatFunc(MultiPoly.zero(ext))
        for e, c in gen.terms.items():
            factor = RatFunc.from_const(ext, c)
            for i, x in enumerate(e):
                if not x:
                    continue
                v = gen.vars[i]
                if isinstance(v, AlgIndet) and v.order == t and v not in model.basis_coords:
                    val = _expr_as_ratfunc(model.expressions[v], ext)
                else:
                    val = RatFunc.var(ext, v)
                factor = factor * val ** x
            total = total + factor
        residuals.append(normal_form(total.num, lifted, gb_low.order))
    return residuals


def _expr_as_ratfunc(expr, ext):
    total = RatFunc(MultiPoly.zero(ext))
    if expr.const:
        total = total + RatFunc(expr.const.num.restrict(ext), expr.const.den.restrict(ext))
    for b, coef in expr.linear.items():
        if coef:
            total = total + RatFunc(coef.num.restrict(ext), coef.den.restrict(ext)) * RatFunc.var(ext, b)
    return total


def tangent_section(data):
    """Affine expression of each tangent coordinate (coordinate, k) of the
    DVarietyData data.

    For a frame coordinate x of order <= level and a derivation k the
    tangent value is the coordinate one step further: a known frame
    coordinate, a free fiber parameter, or a solved fiber expression.
    """
    ext = _frame_sig(data.fibers.frame_low)
    out = {}
    for x in data.variety.frame:
        for k in range(1, len(x.theta) + 1):
            target = x.derive(k)
            if target.order <= data.level:
                out[(x, k)] = AffineExpr(RatFunc.var(ext, target))
            elif target in data.fibers.basis_coords:
                out[(x, k)] = AffineExpr(
                    RatFunc(MultiPoly.zero(ext)),
                    {target: RatFunc.from_const(ext, 1)},
                )
            else:
                out[(x, k)] = data.fibers.expressions[target]
    return out


def is_dconstant_on_fibers(f, data):
    """D-constant test against prolongation fiber data (any fiber dimension).

    f is a rational function of the level-bound frame coordinates.  Its
    differential is pushed along the tangent section: for each derivation
    the result is an affine expression in the free fiber parameters, and f
    is a D-constant exactly when every coefficient of every such expression
    vanishes modulo the saturated variety ideal.
    """
    ext = _frame_sig(data.variety.frame)
    gb = data.variety.groebner_basis()
    if normal_form(f.den, gb).is_zero():
        raise ZeroDivisionError("denominator vanishes identically on the variety")
    section = tangent_section(data)
    m = len(data.variety.frame[0].theta)
    partials = [f.derivative(i) for i in range(len(ext))]
    for k in range(1, m + 1):
        total = AffineExpr(RatFunc(MultiPoly.zero(ext)))
        for x, df in zip(ext, partials):
            if not df.is_zero():
                total = total.plus(section[(x, k)].scaled(df))
        for value in [total.const, *total.linear.values()]:
            if not value.is_zero() and not normal_form(value.num, gb).is_zero():
                return False
    return True


def corpus():
    ctx1 = DiffContext(1, 1)
    u = ctx1.u()
    ctx2 = DiffContext(2, 1)
    w = ctx2.u()
    return [
        AutoreducedSet([ctx1.d(1, u) - u]),
        AutoreducedSet([ctx1.d(1, u) ** 2 - u]),
        AutoreducedSet([ctx2.d(2, w) - ctx2.d(1, w, 2)]),
        AutoreducedSet([ctx2.d(1, w, 2) - w, ctx2.d(2, w, 2) - w]),
    ]


class TestFrames:
    def test_ordinary_frame(self):
        assert nabla_frame(1, 1, 2) == (
            AlgIndet((0,), 1),
            AlgIndet((1,), 1),
            AlgIndet((2,), 1),
        )

    def test_two_derivation_frame_order(self):
        assert nabla_frame(2, 1, 1) == (
            AlgIndet((0, 0), 1),
            AlgIndet((1, 0), 1),
            AlgIndet((0, 1), 1),
        )

    def test_frame_size(self):
        assert len(nabla_frame(2, 2, 2)) == 12  # 2 * C(4, 2)

    def test_frame_is_rank_sorted(self):
        frame = nabla_frame(3, 2, 2)
        keys = [v.rank_key() for v in frame]
        assert keys == sorted(keys)


class TestProlongIdeal:
    def test_linear_ordinary(self):
        pid = prolong_ideal(corpus()[0], 2)
        assert [g.to_str() for g in pid.generators] == [
            "d1*u1 - u1",
            "d1^2*u1 - d1*u1",
        ]
        assert pid.dimension() == 1

    def test_evolution_only_identity_theta(self):
        pid = prolong_ideal(corpus()[2], 2)
        assert len(pid.generators) == 1
        assert pid.dimension() == 5

    def test_saturated_quadratic(self):
        pid = prolong_ideal(corpus()[1], 2)
        assert len(pid.generators) == 2
        assert pid.dimension() == 1
        assert [s.to_str() for s in pid.separants] == ["d1*u1"]

    def test_level_below_order_rejected(self):
        with pytest.raises(ValueError):
            prolong_ideal(corpus()[2], 1)

    def test_saturation_by_several_separants(self):
        # two nonconstant separants, d1*u1 and d1*u2: one elimination
        # against their product, and the saturated dimension still equals
        # the initial-set count
        ctx = DiffContext(1, 2)
        u1, u2 = ctx.u(1), ctx.u(2)
        aset = AutoreducedSet([ctx.d(1, u1) ** 2 - u2, ctx.d(1, u2) ** 2 - u1])
        rep = leaders_to_exponents(aset)
        for t in (1, 2, 3):
            pid = prolong_ideal(aset, t)
            assert [s.to_str() for s in pid.separants] == ["d1*u1", "d1*u2"]
            assert pid.dimension() == rep.count_up_to(t) == 2

    def test_oracle_equivalence_with_counts(self):
        # saturated staircase dimension equals the initial-set count, every level
        for aset in corpus():
            rep = leaders_to_exponents(aset)
            level = prolongation_bound(aset).level
            for t in range(aset.max_order(), level + 3):
                assert prolong_ideal(aset, t).dimension() == rep.count_up_to(t)


class TestAffineFiber:
    def test_linear_ordinary(self):
        model = affine_fiber(ProlongationLadder(corpus()[0]), 2)
        expr = model.expressions[AlgIndet((2,), 1)]
        assert not expr.linear
        assert expr.const.num.to_str() == "d1*u1"
        assert model.basis_coords == ()

    def test_quadratic_cancels_separant(self):
        model = affine_fiber(ProlongationLadder(corpus()[1]), 2)
        expr = model.expressions[AlgIndet((2,), 1)]
        assert not expr.linear
        assert expr.const.is_constant()
        assert expr.const.constant_value() == Fraction(1, 2)
        assert model.separants_used[AlgIndet((2,), 1)] == (0,)

    def test_evolution_substitution_chain(self):
        model = affine_fiber(ProlongationLadder(corpus()[2]), 3)
        expr = model.expressions[AlgIndet((2, 1), 1)]
        assert not expr.linear
        assert expr.const.num.to_str() == "d2^2*u1"

    def test_level_must_exceed_order(self):
        with pytest.raises(ValueError):
            affine_fiber(ProlongationLadder(corpus()[2]), 2)

    def test_residuals_vanish(self):
        for aset in corpus():
            t = aset.max_order() + 1
            model = affine_fiber(ProlongationLadder(aset), t)
            assert all(r.is_zero() for r in fiber_residuals(aset, model))

    def test_two_dependent_variables(self):
        # coupled pair u1' = u2, u2' = u1
        ctx = DiffContext(1, 2)
        u1, u2 = ctx.u(1), ctx.u(2)
        aset = AutoreducedSet([ctx.d(1, u1) - u2, ctx.d(1, u2) - u1])
        pid = prolong_ideal(aset, 2)
        assert pid.dimension() == 2
        model = affine_fiber(ProlongationLadder(aset), 2)
        assert model.basis_coords == ()
        expr1 = model.expressions[AlgIndet((2,), 1)]
        expr2 = model.expressions[AlgIndet((2,), 2)]
        assert expr1.const.num.to_str() == "d1*u2"
        assert expr2.const.num.to_str() == "d1*u1"
        assert all(r.is_zero() for r in fiber_residuals(aset, model))
        data = extract_dvariety(aset)
        assert data.level == 1 and data.fiber_dim == 0

    def test_fiber_dimension_matches_counts(self):
        for aset in corpus():
            rep = leaders_to_exponents(aset)
            t = aset.max_order() + 1
            model = affine_fiber(ProlongationLadder(aset), t)
            assert model.fiber_dimension() == rep.count_up_to(t) - rep.count_up_to(t - 1)


class TestExtract:
    def test_linear_ordinary(self):
        data = extract_dvariety(corpus()[0])
        assert data.level == 1 and data.fiber_dim == 0
        section = tangent_section(data)
        u0, u1 = AlgIndet((0,), 1), AlgIndet((1,), 1)
        assert section[(u0, 1)].const.num.to_str() == "d1*u1"
        assert section[(u1, 1)].const.num.to_str() == "d1*u1"

    def test_quadratic_section_value(self):
        data = extract_dvariety(corpus()[1])
        assert data.level == 1 and data.fiber_dim == 0
        section = tangent_section(data)
        u1 = AlgIndet((1,), 1)
        assert section[(u1, 1)].const.constant_value() == Fraction(1, 2)

    def test_evolution_fiber_dimension(self):
        data = extract_dvariety(corpus()[2])
        assert data.level == 2 and data.fiber_dim == 2  # |B_3| - |B_2| = 7 - 5

    def test_wave_pair(self):
        data = extract_dvariety(corpus()[3])
        assert data.level == 2 and data.fiber_dim == 0

    @pytest.mark.parametrize("name, derivations", [("sqrt.dk", 1), ("burgers.dk", 2)])
    def test_each_theta_derived_once(self, monkeypatch, name, derivations):
        # the affine fiber reads the ladder's derivation memo, so the
        # order-(l+1) theta(f) it shares with the ladder is derived once
        # (twice each when the fiber kept a memo of its own)
        import delta_kernel.diffring as diffring

        calls = []
        derive_terms = diffring.derive_terms

        def counting(*args):
            calls.append(args[2])
            return derive_terms(*args)

        monkeypatch.setattr(diffring, "derive_terms", counting)
        (aset,) = _problem_sets((GOLDEN / name).read_text()).values()
        extract_dvariety(aset)
        assert len(calls) == derivations


class TestFiberwiseDConstants:
    def test_log_derivative_integral(self):
        data = extract_dvariety(corpus()[0])
        ext = _frame_sig(data.variety.frame)
        u0 = MultiPoly.var(ext, AlgIndet((0,), 1))
        u1 = MultiPoly.var(ext, AlgIndet((1,), 1))
        assert is_dconstant_on_fibers(RatFunc(u1, u0), data)
        assert not is_dconstant_on_fibers(RatFunc(u0), data)
        assert is_dconstant_on_fibers(RatFunc.from_const(ext, 7), data)

    def test_positive_fiber_dimension(self):
        data = extract_dvariety(corpus()[2])
        ext = _frame_sig(data.variety.frame)
        coord = MultiPoly.var(ext, AlgIndet((2, 0), 1))
        assert not is_dconstant_on_fibers(RatFunc(coord), data)
        assert is_dconstant_on_fibers(RatFunc.from_const(ext, 3), data)


class TestNonCharacteristicInput:
    def test_incoherent_pair_raises(self):
        # d1 u = u together with d2 u = u^2 is autoreduced but incoherent:
        # cross derivatives force u^2 into the ideal, the oracle sees the
        # dimension collapse, and extraction refuses
        ctx = DiffContext(2, 1)
        u = ctx.u()
        aset = AutoreducedSet([ctx.d(1, u) - u, ctx.d(2, u) - u * u])
        with pytest.raises(ValueError):
            extract_dvariety(aset)
        # the fiber data itself is still produced, one level above the bound
        assert prolongation_bound(aset).level == 1
        assert affine_fiber(ProlongationLadder(aset), 2).level == 2


class TestDeterminedByLevel:
    def test_equal_prolongations_stay_equal(self):
        # one subvariety of the evolution system under two generator
        # presentations: equality at the bound level persists one level up
        ctx = DiffContext(2, 1)
        u = ctx.u()
        pres_a = [ctx.d(1, u) - u, ctx.d(2, u) - u]
        pres_b = [ctx.d(1, u) - u, ctx.d(2, u) - ctx.d(1, u)]
        level = 2
        for t in (level, level + 1):
            _, gens_a, _ = prolong_generators(pres_a, t)
            _, gens_b, _ = prolong_generators(pres_b, t)
            gb_a = buchberger(gens_a)
            gb_b = buchberger(gens_b)
            assert set(gb_a.generators) == set(gb_b.generators)

    def test_distinct_at_level_differ(self):
        ctx = DiffContext(2, 1)
        u = ctx.u()
        pres_a = [ctx.d(1, u) - u, ctx.d(2, u) - u]
        pres_c = [ctx.d(1, u) - u, ctx.d(2, u) - 2 * u]
        _, gens_a, _ = prolong_generators(pres_a, 2)
        _, gens_c, _ = prolong_generators(pres_c, 2)
        assert set(buchberger(gens_a).generators) != set(buchberger(gens_c).generators)


def _seeded_towers():
    rng = random.Random(default_seed() + 21)
    c = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(3)]
    ctx1 = DiffContext(1, 1)
    u = ctx1.u()
    ctx2 = DiffContext(2, 1)
    w = ctx2.u()
    return [
        (AutoreducedSet([ctx1.d(1, u) ** 2 - c[0] * u]), range(1, 9)),
        (AutoreducedSet([ctx1.d(1, u) ** 3 - c[1] * u]), range(1, 7)),
        (AutoreducedSet([ctx2.d(2, w) ** 2 - c[2] * ctx2.d(1, w)]), range(1, 4)),
    ]


class TestOneBasis:
    def test_dimension_from_lex_basis_matches_grevlex(self):
        from delta_kernel.groebner import GREVLEX, LEX, ideal_dimension

        for aset, levels in _seeded_towers():
            for t in levels:
                pid = prolong_ideal(aset, t)
                basis = pid.groebner_basis()
                assert basis.order == LEX and pid.separants
                assert pid.dimension() == ideal_dimension(buchberger(list(basis), GREVLEX))

    def test_one_groebner_run_per_level(self, monkeypatch):
        import delta_kernel.prolongation as prolongation
        from delta_kernel.groebner import GREVLEX, LEX, buchberger_terms

        runs = []

        def counting(gens, leads, order, known=((), ())):
            runs.append(order)
            return buchberger_terms(gens, leads, order, known)

        monkeypatch.setattr(prolongation, "buchberger_terms", counting)
        # (d1 u)^2 - u has a nonconstant separant, d1 u - u none; each walks
        # up from level 1, one Groebner run per level
        for aset, order in ((corpus()[1], LEX), (corpus()[0], GREVLEX)):
            runs.clear()
            pid = prolong_ideal(aset, 3)
            dim = pid.dimension()
            basis = pid.groebner_basis()
            assert pid.dimension() == dim and pid.groebner_basis() is basis
            assert runs == [order] * 3 and basis.order == order


# ---------- the ladder against from-scratch saturation ----------

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
GOLDEN = Path(__file__).parent / "data" / "prolong_golden"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _from_scratch(pid):
    """The oracle: level pid's reduced basis from its own generators in one
    run, the saturation by the separants' product when there are any."""
    if not pid.separants:
        return buchberger(pid.generators, GREVLEX)
    h = pid.separants[0]
    for s in pid.separants[1:]:
        h = h * s
    return saturate(pid.generators, h.primitive())


def _check_ladder(aset, top):
    """Every level from the defining order to top, walked up one ladder,
    equals the from-scratch basis; returns the number of levels."""
    ladder = ProlongationLadder(aset)
    for t in range(ladder.bottom, top + 1):
        pid = ladder.level(t)
        basis = pid.groebner_basis()
        assert basis == _from_scratch(pid), (aset, t)
        assert pid.dimension() == ideal_dimension(basis)
    return top + 1 - ladder.bottom


def _problem_sets(text):
    problem = parse_system(text)
    return {name: AutoreducedSet(gens) for name, gens in problem.sets.items()}


def _workload_levels(jobs):
    """file -> the highest level that a prolong, dimfn or extract-dvariety
    job of the workload reads."""
    top = {}
    for job in jobs:
        argv, check = job["argv"], job["check"]
        if check["kind"] == "prolong":
            t = check["t"]
        elif check["kind"] == "dimfn":
            t = check["max_t"]
        elif check["kind"] == "extract":
            t = check["level"] + 1
        else:
            continue
        top[argv[1]] = max(top.get(argv[1], 0), t)
    return top


class TestLadder:
    def test_corpus_levels_match_from_scratch(self):
        ctx = DiffContext(1, 2)
        u1, u2 = ctx.u(1), ctx.u(2)
        pair = AutoreducedSet([ctx.d(1, u1) ** 2 - u2, ctx.d(1, u2) ** 2 - u1])
        # elements of orders 1 and 2: the bottom level holds derivatives of
        # the lower one, and each J_t derives the two by different amounts
        mixed = AutoreducedSet([ctx.d(1, u1) ** 2 - u2, ctx.d(1, u2, 2) - u1])
        ctx2 = DiffContext(2, 2)
        w1, w2 = ctx2.u(1), ctx2.u(2)
        mixed2 = AutoreducedSet([ctx2.d(1, w1) - w2, ctx2.d(2, w2, 2) ** 2 - w1])
        levels = _check_ladder(mixed, 5) + _check_ladder(mixed2, 4)
        for aset in corpus():
            levels += _check_ladder(aset, prolongation_bound(aset).level + 2)
        for aset, tops in _seeded_towers():
            levels += _check_ladder(aset, max(tops))
        levels += _check_ladder(pair, 3)
        for name in ("sqrt.dk", "sqrt2.dk", "burgers.dk", "pair.dk"):
            for aset in _problem_sets((GOLDEN / name).read_text()).values():
                levels += _check_ladder(aset, prolongation_bound(aset).level + 1)
        assert levels >= 40

    @pytest.mark.parametrize("seed", range(12))
    def test_workload_levels_match_from_scratch(self, seed):
        files, jobs = _bench_workloads().build("prolong-search", seed)
        tops = _workload_levels(jobs)
        assert sorted(tops) == ["burgers.dk", "cbrt.dk", "heat.dk", "sqrt.dk", "wave.dk"]
        for name, top in tops.items():
            (aset,) = _problem_sets(files[name]).values()
            assert _check_ladder(aset, top) >= 2

    def test_levels_read_in_any_order(self, monkeypatch):
        # a level below the highest one reached is read back, not recomputed
        import delta_kernel.prolongation as prolongation

        runs = []
        buchberger_terms = prolongation.buchberger_terms

        def counting(*args):
            runs.append(args)
            return buchberger_terms(*args)

        monkeypatch.setattr(prolongation, "buchberger_terms", counting)
        aset = _seeded_towers()[0][0]
        ladder = ProlongationLadder(aset)
        high = ladder.level(6).groebner_basis()
        assert len(runs) == 6
        low = ladder.level(3).groebner_basis()
        assert len(runs) == 6
        assert low == _from_scratch(ladder.level(3))
        assert high == ProlongationLadder(aset).level(6).groebner_basis()

    def test_dimfn_work_guard(self, monkeypatch):
        """dimfn sqrt.dk --max-t 15 walks levels 1..15: one Groebner run per
        level and 86 S-polynomials in all, where saturating each level from
        scratch formed 18,035."""
        import delta_kernel.groebner as groebner
        import delta_kernel.prolongation as prolongation
        from delta_kernel.cli import main

        runs, pairs = [], []
        buchberger_terms, s_poly = groebner.buchberger_terms, groebner._s_poly

        def counting_runs(*args):
            runs.append(args)
            return buchberger_terms(*args)

        def counting_pairs(*args):
            pairs.append(args)
            return s_poly(*args)

        monkeypatch.setattr(prolongation, "buchberger_terms", counting_runs)
        monkeypatch.setattr(groebner, "_s_poly", counting_pairs)
        out = io.StringIO()
        argv = ["--json", "dimfn", str(GOLDEN / "sqrt.dk"), "--set", "S", "--max-t", "15"]
        assert main(argv, stdout=out) == 0
        assert json.loads(out.getvalue())["results"]["oracle_agrees"]
        assert len(runs) == 15
        assert 0 < len(pairs) <= 100

    def test_levels_below_the_bottom_rejected(self):
        # a level read below the defining order raises, also after higher
        # frames were built: frame(0) used to index back from the top one
        problem = parse_system("m=1 n=1 coeffs=Q\npoly f = (d1*u1)^2 - 3*u1\nset S = f\n")
        ladder = ProlongationLadder(problem.sets["S"])
        assert ladder.bottom == 1 and len(ladder.frame(3)) == 4
        for read in (ladder.frame, ladder.level, ladder.dimension, ladder.saturated):
            with pytest.raises(ValueError, match="level 0 is below the maximum defining order 1"):
                read(0)
        assert ladder.frame(1) == nabla_frame(1, 1, 1) and ladder.dimension(3) == 1

    def test_commands_build_no_diffpoly_of_a_derivative(self, monkeypatch):
        """prolong --t, dimfn and extract-dvariety put each theta(f) on
        the frame's columns straight from its sparse terms: none of them
        builds a DiffPoly of one through sparse_poly."""
        import delta_kernel.diffring as diffring
        from delta_kernel.cli import main

        built = []
        sparse_poly = diffring.sparse_poly

        def counting(*args):
            built.append(args)
            return sparse_poly(*args)

        monkeypatch.setattr(diffring, "sparse_poly", counting)
        path = str(GOLDEN / "burgers.dk")
        for argv in (
            ["prolong", path, "--set", "S", "--t", "4"],
            ["dimfn", path, "--set", "S", "--max-t", "4"],
            ["extract-dvariety", path, "--set", "S"],
        ):
            out = io.StringIO()
            assert main(["--json", *argv], stdout=out) == 0
            assert json.loads(out.getvalue())["command"] == argv[0]
        assert built == []
