import os
import random
from fractions import Fraction

import pytest

from delta_kernel.diffring import AlgIndet, DiffContext, DiffPoly
from delta_kernel.multipoly import MultiPoly


def default_seed():
    return int(os.environ.get("DELTA_KERNEL_SEED", "20260808"))


@pytest.fixture
def rng():
    return random.Random(default_seed())


def random_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def mul_vec(m, v):
    """The product of the ExactMatrix m with the column vector v."""
    return [sum((x * y for x, y in zip(row, v)), m.one - m.one) for row in m.entries]


def is_unit_ideal(gb):
    """Whether the Groebner basis gb holds a nonzero constant."""
    return any(g.is_constant() and not g.is_zero() for g in gb.generators)


def evaluate(p, point):
    """The MultiPoly p at a full point given as {var id: Fraction}."""
    total = Fraction(0)
    vals = [point.get(v) for v in p.vars]
    for e, c in p.terms.items():
        acc = c
        for x, val in zip(e, vals):
            if x:
                if val is None:
                    raise ValueError("evaluation point misses a used variable")
                acc *= val**x
        total += acc
    return total


def random_multipoly(rng, sig, max_degree=3, max_terms=4, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        e = [0] * len(sig)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            e[rng.randrange(len(sig))] += 1
        c = random_fraction(rng)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return MultiPoly(sig, {e: c for e, c in terms.items() if c})


def random_indet(rng, ctx, max_order=3):
    theta = [0] * ctx.m
    for _ in range(rng.randint(0, max_order)):
        theta[rng.randrange(ctx.m)] += 1
    return AlgIndet(tuple(theta), rng.randint(1, ctx.n))


def random_diffpoly(rng, ctx, max_order=3, max_degree=3, max_terms=4, allow_constant=True):
    total = ctx.const(0)
    nterms = rng.randint(1, max_terms)
    for _ in range(nterms):
        c = random_fraction(rng)
        if not c:
            continue
        term = ctx.const(c)
        for _ in range(rng.randint(0 if allow_constant else 1, max_degree)):
            v = random_indet(rng, ctx, max_order)
            term = term * ctx.indet(v.theta, v.var)
        total = total + term
    return total


def random_autoreduced(rng, ctx, max_members=2, max_order=2, max_degree=2):
    """A small random autoreduced set, built greedily from random candidates."""
    from delta_kernel.diffring import AutoreducedSet, is_autoreduced

    candidates = []
    for _ in range(max_members * 4):
        lead = random_indet(rng, ctx, max_order)
        d = rng.randint(1, max_degree)
        f = ctx.indet(lead.theta, lead.var) ** d
        tail = random_diffpoly(rng, ctx, max_order=max_order, max_degree=max_degree, max_terms=2)
        # keep the intended leader on top: add only strictly lower-rank tails
        if not tail.is_in_coeff_field():
            if tail.leader().rank_key() >= lead.rank_key():
                tail = ctx.const(random_fraction(rng))
        f = f + tail
        if f.is_in_coeff_field() or f.leader() != lead:
            continue
        candidates.append(f)
    chosen = []
    for f in sorted(candidates, key=lambda p: (p.leader().rank_key(), p.leading_degree())):
        trial = chosen + [f]
        if is_autoreduced(trial)[0]:
            chosen = trial
        if len(chosen) == max_members:
            break
    if not chosen:
        chosen = [ctx.u(1) - ctx.const(1)]
    return AutoreducedSet(chosen)
