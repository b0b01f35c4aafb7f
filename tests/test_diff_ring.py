import pytest

from delta_kernel.diffring import (
    AlgIndet,
    AutoreducedSet,
    CoeffGen,
    DiffContext,
    apply_derivation,
    is_autoreduced,
    poly_rank_compare,
    rank_compare,
    ritt_reduce,
    set_rank_compare,
)

from conftest import is_partially_reduced, random_autoreduced, random_diffpoly


class TestRanking:
    def test_order_dominates(self):
        assert rank_compare(AlgIndet((0, 0), 2), AlgIndet((1, 0), 1)) < 0

    def test_same_order_reversed_lex(self):
        # keys (1,1,0,1) < (1,1,1,0)
        assert rank_compare(AlgIndet((1, 0), 1), AlgIndet((0, 1), 1)) < 0

    def test_variable_index_before_exponents(self):
        assert rank_compare(AlgIndet((0, 1), 1), AlgIndet((1, 0), 2)) < 0

    def test_total_order_has_unique_minimum(self, rng):
        ctx = DiffContext(2, 2)
        for _ in range(20):
            vs = set()
            while len(vs) < 4:
                theta = (rng.randint(0, 2), rng.randint(0, 2))
                vs.add(AlgIndet(theta, rng.randint(1, 2)))
            vs = list(vs)
            mins = [v for v in vs if all(rank_compare(v, w) <= 0 for w in vs)]
            assert len(mins) == 1


class TestAlgIndetValue:
    """AlgIndet caches its hash and rank key, so it must stay immutable."""

    def test_immutable(self):
        v = AlgIndet((1, 2), 1)
        for name, value in [("theta", (0, 0)), ("var", 2), ("order", 5), ("_hash", 0), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        with pytest.raises(AttributeError):
            del v.theta
        assert (v.theta, v.var, v.order) == ((1, 2), 1, 3)

    def test_equality_and_hash_on_theta_and_var(self):
        v = AlgIndet((1, 2), 1)
        assert v == AlgIndet((1, 2), 1) and hash(v) == hash(AlgIndet((1, 2), 1))
        assert hash(v) == hash(((1, 2), 1))
        assert v != AlgIndet((2, 1), 1) and v != AlgIndet((1, 2), 2)
        assert v != ((1, 2), 1) and v != "d1*d2^2*u1"
        assert len({v, AlgIndet((1, 2), 1), AlgIndet((1, 2), 2)}) == 2

    def test_rank_key(self, rng):
        for _ in range(50):
            theta = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
            v = AlgIndet(theta, rng.randint(1, 3))
            assert v.rank_key() == (sum(theta), v.var, *reversed(theta))
            assert v.order == sum(theta)

    def test_pickle_round_trip(self):
        import pickle

        v = AlgIndet((0, 3), 2)
        w = pickle.loads(pickle.dumps(v))
        assert w == v and hash(w) == hash(v) and w.rank_key() == v.rank_key()


class TestCoeffGenValue:
    def test_immutable(self):
        t = CoeffGen(2)
        for name, value in [("index", 3), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        with pytest.raises(AttributeError):
            del t.index
        assert t.index == 2 and repr(t) == "t2"

    def test_equality_and_hash_on_index(self):
        t = CoeffGen(2)
        assert t == CoeffGen(2) and hash(t) == hash(CoeffGen(2))
        assert t != CoeffGen(1) and t != (2,) and t != 2 and t != AlgIndet((2,), 1)
        assert len({t, CoeffGen(2), CoeffGen(1)}) == 2

    def test_pickle_round_trip(self):
        import pickle

        t = CoeffGen(4)
        assert pickle.loads(pickle.dumps(t)) == t


class TestLeaderSeparantInitial:
    def setup_method(self):
        self.ctx = DiffContext(2, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)
        self.d2u = self.ctx.d(2, self.u)
        self.d11u = self.ctx.d(1, self.d1u)

    def test_order_two_beats_order_one(self):
        f = self.d2u - self.d11u
        assert f.leader() == AlgIndet((2, 0), 1)
        assert f.order() == 2 and f.leading_degree() == 1

    def test_leading_degree(self):
        f = self.d1u * self.d1u + self.u
        assert f.leader() == AlgIndet((1, 0), 1)
        assert f.leading_degree() == 2

    def test_u_is_its_own_leader(self):
        assert self.u.leader() == AlgIndet((0, 0), 1)
        assert self.u.leading_degree() == 1

    def test_separant_power_rule(self):
        f = self.d1u * self.d1u + self.u
        assert f.separant() == 2 * self.d1u

    def test_separant_linear(self):
        f = self.d2u - self.d11u
        assert f.separant() == self.ctx.const(-1)

    def test_separant_and_initial(self):
        f = self.u * self.d1u ** 3 + self.d1u
        assert f.separant() == 3 * self.u * self.d1u * self.d1u + 1
        assert f.initial() == self.u

    def test_constant_has_no_leader(self):
        with pytest.raises(ValueError):
            self.ctx.const(3).leader()


class TestUnusedIndeterminates:
    """A body's signature may carry indeterminates that do not occur; no
    observable of the polynomial may depend on them."""

    def setup_method(self):
        self.ctx = DiffContext(2, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)
        self.d2u = self.ctx.d(2, self.u)

    def test_cancelled_higher_indeterminate(self):
        a = self.u * self.d1u ** 2 + self.u
        f = (a + self.d2u) - self.d2u
        assert len(f.body.vars) > len(a.body.vars)
        assert f == a and a == f
        assert hash(f) == hash(a)
        assert f.to_str() == a.to_str()
        assert f.indets() == a.indets()
        assert f.leader() == a.leader() == AlgIndet((1, 0), 1)
        for v in (AlgIndet((0, 0), 1), AlgIndet((1, 0), 1), AlgIndet((0, 1), 1)):
            assert f.degree_in(v) == a.degree_in(v)
        assert f.initial() == a.initial() == self.u
        assert f.separant() == a.separant()
        assert f != a + self.d2u

    def test_cancelled_down_to_a_constant(self):
        f = (self.d2u + 3) - self.d2u
        assert f.is_in_coeff_field()
        assert f == 3 and hash(f) == hash(self.ctx.const(3))
        with pytest.raises(ValueError):
            f.leader()

    def test_int_subclasses_act_as_scalars(self):
        # _pair tests for the DiffPoly class first; bool, an int subclass,
        # still takes the scalar path
        a = self.u * self.d1u + 2
        assert a + True == True + a == a + 1
        assert a * True == a and a - True == a - 1

    def test_ring_laws_random(self, rng):
        for _ in range(30):
            ctx = DiffContext(rng.randint(1, 2), rng.randint(1, 2))
            a, b, c = (
                random_diffpoly(rng, ctx, max_order=2, max_degree=2, max_terms=3)
                for _ in range(3)
            )
            assert a * (b + c) == a * b + a * c
            back = (a + b) - b
            assert back == a and hash(back) == hash(a)
            for k in range(1, ctx.m + 1):
                da, db = apply_derivation(a, k), apply_derivation(b, k)
                assert apply_derivation(a * b, k) == da * b + a * db


class TestDerivation:
    def setup_method(self):
        self.ctx = DiffContext(2, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)

    def test_leibniz_example(self):
        f = self.d1u * self.d1u - self.u
        d11u = self.ctx.d(1, self.d1u)
        assert apply_derivation(f, 1) == 2 * self.d1u * d11u - self.d1u

    def test_commutativity_example(self):
        f = self.u * self.d1u
        assert apply_derivation(apply_derivation(f, 2), 1) == apply_derivation(
            apply_derivation(f, 1), 2
        )

    def test_top_linear_with_separant_coefficient(self):
        f = self.ctx.d(2, self.u) - self.ctx.d(1, self.u, 2)
        df = apply_derivation(f, 2)
        top = AlgIndet((2, 1), 1)
        assert df.degree_in(top) == 1
        assert df.coeff_of_power(top, 1) == f.separant()

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            apply_derivation(self.u, 3)

    def test_coefficient_action(self):
        from delta_kernel.multipoly import MultiPoly
        from delta_kernel.diffring import CoeffGen

        gens = (CoeffGen(1),)
        one = MultiPoly.const(gens, 1)
        ctx = DiffContext(1, 1, coeff_gens=1, actions={(1, 1): one})
        f = ctx.t(1) * ctx.u()
        df = apply_derivation(f, 1)
        assert df == ctx.u() + ctx.t(1) * ctx.d(1, ctx.u())


class TestRankOrders:
    def setup_method(self):
        self.ctx = DiffContext(2, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)
        self.d2u = self.ctx.d(2, self.u)

    def test_degree_breaks_leader_tie(self):
        f = self.d1u * self.d1u + self.u
        g = self.d1u + self.u
        assert poly_rank_compare(g, f) < 0

    def test_rank_equal_extension_is_lower(self):
        a = [self.d1u - self.u]
        b = [self.d1u - self.u, self.d2u]
        assert set_rank_compare(b, a) < 0
        assert set_rank_compare(a, b) > 0

    def test_singleton_comparison(self):
        assert set_rank_compare([self.u], [self.d1u]) < 0

    def test_constants_rank_lowest(self):
        assert poly_rank_compare(self.ctx.const(5), self.u) < 0


class TestAutoreduced:
    def setup_method(self):
        self.ctx = DiffContext(2, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)
        self.d2u = self.ctx.d(2, self.u)

    def test_good_pair(self):
        ok, witness = is_autoreduced([self.d1u - self.u, self.d2u - self.u])
        assert ok and witness is None

    def test_proper_derivative_violation(self):
        bad = self.ctx.d(1, self.d1u)
        ok, witness = is_autoreduced([self.d1u - self.u, bad])
        assert not ok
        assert "proper derivative" in witness[2]

    def test_singleton(self):
        ok, _ = is_autoreduced([self.d1u * self.d1u - self.u])
        assert ok

    def test_degree_violation(self):
        f = self.d1u * self.d1u + self.u
        g = self.d1u + self.u  # leader d1u occurs in f with degree 2 >= ... swap roles
        ok, witness = is_autoreduced([g, f])
        assert not ok
        assert "degree" in witness[2]

    def test_sorted_storage(self):
        a = AutoreducedSet([self.d2u - self.u, self.d1u - self.u])
        assert a.elements[0].leader() == AlgIndet((1, 0), 1)


class TestRittReduce:
    def setup_method(self):
        self.ctx = DiffContext(1, 1)
        self.u = self.ctx.u()
        self.d1u = self.ctx.d(1, self.u)
        self.d11u = self.ctx.d(1, self.d1u)

    def test_hand_example(self):
        f = self.d1u * self.d1u - self.u
        res = ritt_reduce(self.d11u, AutoreducedSet([f]))
        assert res.remainder == self.d1u
        assert res.sep_powers == {0: 1}
        assert not res.init_powers
        assert res.verify()
        # (2*d1u) * d1^2u = 1 * d1(f) + d1u
        assert res.multiplier() == 2 * self.d1u
        assert len(res.steps) == 1 and res.steps[0].theta == (1,)
        assert res.steps[0].quotient == self.ctx.const(1)

    def test_already_reduced(self):
        f = self.d1u * self.d1u - self.u
        res = ritt_reduce(self.u + 1, AutoreducedSet([f]))
        assert res.remainder == self.u + 1
        assert not res.steps

    def test_member_reduces_to_zero(self):
        f = self.d1u * self.d1u - self.u
        res = ritt_reduce(f, AutoreducedSet([f]))
        assert res.remainder.is_zero()
        assert res.verify()

    def test_random_certificates(self, rng):
        for trial in range(40):
            m = rng.randint(1, 2)
            n = rng.randint(1, 2)
            ctx = DiffContext(m, n)
            aset = random_autoreduced(rng, ctx)
            g = random_diffpoly(rng, ctx, max_order=2, max_degree=2, max_terms=3)
            res = ritt_reduce(g, aset)
            assert res.verify()
            assert is_partially_reduced(res.remainder, aset)
