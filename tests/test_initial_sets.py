import random
from fractions import Fraction

from delta_kernel.diffring import AlgIndet, AutoreducedSet, DiffContext
from delta_kernel.groebner import buchberger
from delta_kernel.initialsets import (
    InitialSetRep,
    dimension_function,
    leaders_to_exponents,
    prolongation_bound,
)
from delta_kernel.multipoly import MultiPoly

from conftest import default_seed


def downward_closed_without(rep, p):
    """Reference: whether B minus {p} is still downward closed, for p in B.

    Removing p breaks downward closure exactly when some point of B sits
    strictly above p, and a minimal such witness is p plus a unit step.
    """
    assert rep.contains(p), "point not in B"
    return all(not rep.contains(p.derive(k)) for k in range(1, rep.m + 1))


def wave_rep():
    return InitialSetRep(2, 1, [AlgIndet((2, 0), 1), AlgIndet((0, 2), 1)])


class TestLeadersToExponents:
    def test_two_leaders(self):
        ctx = DiffContext(2, 1)
        u = ctx.u()
        aset = AutoreducedSet([ctx.d(1, u, 2) - u, ctx.d(2, u, 2) - u])
        rep = leaders_to_exponents(aset)
        assert rep.E == frozenset({AlgIndet((2, 0), 1), AlgIndet((0, 2), 1)})

    def test_leader_of_evolution_equation(self):
        ctx = DiffContext(2, 1)
        u = ctx.u()
        aset = AutoreducedSet([ctx.d(2, u) - ctx.d(1, u, 2)])
        rep = leaders_to_exponents(aset)
        assert rep.E == frozenset({AlgIndet((2, 0), 1)})

    def test_order_zero_leader_empties_b(self):
        ctx = DiffContext(2, 1)
        aset = AutoreducedSet([ctx.u() - 1])
        rep = leaders_to_exponents(aset)
        assert rep.count_up_to(5) == 0


class TestMembership:
    def test_inside(self):
        assert wave_rep().contains(AlgIndet((1, 1), 1))

    def test_above_a_generator(self):
        assert not wave_rep().contains(AlgIndet((2, 5), 1))

    def test_empty_e_contains_everything(self):
        rep = InitialSetRep(2, 1, [])
        assert rep.contains(AlgIndet((9, 9), 1))


class TestCounts:
    def test_wave_counts(self):
        rep = wave_rep()
        assert [rep.count_up_to(t) for t in range(4)] == [1, 3, 4, 4]

    def test_evolution_counts(self):
        rep = InitialSetRep(2, 1, [AlgIndet((2, 0), 1)])
        assert [rep.count_up_to(t) for t in range(4)] == [1, 3, 5, 7]

    def test_free_counts(self):
        rep = InitialSetRep(1, 1, [])
        assert [rep.count_up_to(t) for t in range(5)] == [1, 2, 3, 4, 5]

    def test_counts_match_standard_monomials(self):
        # standard monomials of the leading-exponent monomial ideal, degree <= t
        rng = random.Random(default_seed())
        for _ in range(10):
            m = rng.randint(1, 3)
            pts = [
                AlgIndet(tuple(rng.randint(0, 3) for _ in range(m)), 1)
                for _ in range(rng.randint(1, 3))
            ]
            rep = InitialSetRep(m, 1, pts)
            sig = tuple(f"z{i}" for i in range(m))
            gens = [MultiPoly.monomial(sig, p.theta) for p in pts]
            gb = buchberger(gens)
            leads = [g.leading()[0] for g in gb.generators]
            def simplex(mm, tt):
                if mm == 1:
                    for x in range(tt + 1):
                        yield (x,)
                    return
                for x in range(tt + 1):
                    for rest in simplex(mm - 1, tt - x):
                        yield (x,) + rest

            for t in range(5):
                count = sum(
                    1
                    for e in simplex(m, t)
                    if not any(all(a <= b for a, b in zip(le, e)) for le in leads)
                )
                assert count == rep.count_up_to(t)


class TestRemovable:
    def test_wave_removable(self):
        assert wave_rep().removable_points() == [AlgIndet((1, 1), 1)]

    def test_evolution_has_none(self):
        rep = InitialSetRep(2, 1, [AlgIndet((2, 0), 1)])
        assert rep.removable_points() == []

    def test_single_generator_one_variable(self):
        rep = InitialSetRep(1, 1, [AlgIndet((1,), 1)])
        assert rep.removable_points() == [AlgIndet((0,), 1)]

    def test_removal_preserves_downward_closure(self):
        rep = wave_rep()
        for p in rep.removable_points():
            assert downward_closed_without(rep, p)
        assert not downward_closed_without(rep, AlgIndet((1, 0), 1))

    def test_matches_bruteforce_random(self):
        rng = random.Random(default_seed() + 7)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(1, 2)
            pts = [
                AlgIndet(tuple(rng.randint(0, 4) for _ in range(m)), rng.randint(1, n))
                for _ in range(rng.randint(1, 4))
            ]
            rep = InitialSetRep(m, n, pts)
            assert rep.removable_points() == rep.removable_points_bruteforce()

    def test_downward_closure_random(self):
        rng = random.Random(default_seed() + 8)
        for _ in range(40):
            m = rng.randint(1, 3)
            pts = [
                AlgIndet(tuple(rng.randint(0, 3) for _ in range(m)), 1)
                for _ in range(rng.randint(1, 3))
            ]
            rep = InitialSetRep(m, 1, pts)
            p = AlgIndet(tuple(rng.randint(0, 5) for _ in range(m)), 1)
            if rep.contains(p):
                q = AlgIndet(tuple(rng.randint(0, x) for x in p.theta), 1)
                assert rep.contains(q)

    def test_closure_equivalence_random(self):
        # removable points, and only they, can be deleted from B
        rng = random.Random(default_seed() + 9)
        for _ in range(25):
            m = rng.randint(1, 2)
            pts = [
                AlgIndet(tuple(rng.randint(1, 3) for _ in range(m)), 1)
                for _ in range(rng.randint(1, 3))
            ]
            rep = InitialSetRep(m, 1, pts)
            removable = set(rep.removable_points())
            for r in removable:
                assert downward_closed_without(rep, r)
            for _ in range(10):
                p = AlgIndet(tuple(rng.randint(0, 4) for _ in range(m)), 1)
                if rep.contains(p) and p not in removable:
                    assert not downward_closed_without(rep, p)


class TestDimensionFunction:
    def test_eventual_polynomial_detection(self):
        rep = InitialSetRep(2, 1, [AlgIndet((2, 0), 1)])
        df = dimension_function(rep, 8)
        assert df.values == [1, 3, 5, 7, 9, 11, 13, 15, 17]
        assert df.polynomial == [Fraction(1), Fraction(2)]  # 2t + 1
        assert df.stable_from == 0

    def test_flat_tail(self):
        df = dimension_function(wave_rep(), 6)
        assert df.values[2:] == [4] * 5
        assert df.polynomial == [Fraction(4)]
        assert df.stable_from == 2


class TestBound:
    def test_corpus_values(self):
        ctx1 = DiffContext(1, 1)
        u = ctx1.u()
        ctx2 = DiffContext(2, 1)
        w = ctx2.u()
        corpus = [
            AutoreducedSet([ctx1.d(1, u) - u]),
            AutoreducedSet([ctx1.d(1, u) ** 2 - u]),
            AutoreducedSet([ctx2.d(2, w) - ctx2.d(1, w, 2)]),
            AutoreducedSet([ctx2.d(1, w, 2) - w, ctx2.d(2, w, 2) - w]),
        ]
        expected = [
            (1, 1, 0, [AlgIndet((0,), 1)]),
            (1, 1, 0, [AlgIndet((0,), 1)]),
            (2, 2, 0, []),
            (2, 2, 2, [AlgIndet((1, 1), 1)]),
        ]
        for aset, (level, l1, l2, removable) in zip(corpus, expected):
            b = prolongation_bound(aset)
            assert (b.level, b.from_orders, b.from_removable, b.removable) == (
                level,
                l1,
                l2,
                removable,
            )
