import random
from fractions import Fraction
from itertools import combinations

import pytest

from delta_kernel.groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    buchberger,
    buchberger_terms,
    ideal_dimension,
    independent_variable_set,
    normal_form,
    order_key,
    s_polynomial,
    saturate,
)
from delta_kernel.multipoly import (
    MultiPoly,
    exponents_upto,
    from_integer_terms,
    integer_terms,
    poly_gcd,
)
from delta_kernel.ratfunc import RatFunc
from delta_kernel.solve import sampled_rational_solutions

from conftest import default_seed, evaluate, is_unit_ideal, random_multipoly

SIG = ("x", "y")
X = MultiPoly.var(SIG, "x")
Y = MultiPoly.var(SIG, "y")


def _leading(p, order):
    """(exponent, coefficient) of the leading term of p under the order."""
    e = max(p.terms, key=order_key(order))
    return e, p.terms[e]


def _monic(p, order):
    """p divided by its leading coefficient under the order."""
    return p.scale(1 / _leading(p, order)[1]) if p.terms else p


def test_basis_is_an_immutable_value():
    gb = buchberger([X * X - Y, X * Y - 1], GREVLEX)
    same = GroebnerBasis(tuple(gb.generators), gb.order, gb.vars)
    assert gb == same and hash(gb) == hash(same)
    assert gb != GroebnerBasis(gb.generators, LEX, gb.vars)
    assert gb != GroebnerBasis(gb.generators[1:], gb.order, gb.vars)
    assert gb != (gb.generators, gb.order, gb.vars) and gb != gb.generators
    assert GroebnerBasis((), GREVLEX).vars == ()
    for name, value in [("generators", ()), ("order", LEX), ("vars", ()), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(gb, name, value)
    with pytest.raises(AttributeError):
        del gb.order
    assert gb == same


def test_buchberger_lex_example():
    gb = buchberger([X * Y - 1, Y * Y - 1], LEX)
    assert {g.to_str() for g in gb.generators} == {"x - y", "y^2 - 1"}


def test_lex_basis_element_behaves_as_its_polynomial():
    # x + 1/2*y^2 from a lex run against the same polynomial built directly:
    # equal polynomials, so equal monic forms, gcds, quotients and text
    (g,) = buchberger([2 * X + Y * Y], LEX).generators
    p = X + Y * Y * Fraction(1, 2)
    assert g == p
    assert g.monic() == p.monic() and g.monic().to_str() == "y^2 + 2*x"
    assert poly_gcd(g * g, g) == poly_gcd(p * p, p)
    one = MultiPoly.const(SIG, 1)
    assert RatFunc(one, g) == RatFunc(one, p)
    assert RatFunc(one, g).to_str() == RatFunc(one, p).to_str() == "2/(y^2 + 2*x)"
    assert str(g) == str(p)


def test_buchberger_principal_monomial():
    gb = buchberger([X])
    assert [g.to_str() for g in gb.generators] == ["x"]


def test_buchberger_unit_ideal():
    gb = buchberger([X, X + 1])
    assert [g.to_str() for g in gb.generators] == ["1"]
    assert is_unit_ideal(gb)


def test_normal_form_membership():
    gb = buchberger([X * Y - 1, Y * Y - 1], LEX)
    assert normal_form(X * X - 1, gb).is_zero()


def test_normal_form_trivial_cases():
    gb = buchberger([Y])
    assert normal_form(MultiPoly.zero(SIG), gb).is_zero()
    assert normal_form(X, gb) == X


def _bruteforce_independent_set(supports, nvars):
    """Scan of all variable subsets, largest first and lexicographically
    within a size; reference for the branch-and-bound staircase search."""
    for size in range(nvars, -1, -1):
        for sub in combinations(range(nvars), size):
            if not any(s <= set(sub) for s in supports):
                return set(sub)
    return set()


def test_ideal_dimension_examples():
    assert ideal_dimension(buchberger([X * Y - 1])) == 1
    assert ideal_dimension(buchberger([X, X + 1])) == -1


def test_unit_and_zero_ideal_staircase():
    unit = buchberger([X, X + 1])
    assert ideal_dimension(unit) == -1
    assert independent_variable_set(unit) == set()
    zero = buchberger([MultiPoly.zero(SIG)])
    assert zero.generators == ()
    assert ideal_dimension(zero) == 2
    assert independent_variable_set(zero) == {0, 1}


def test_independent_set_matches_bruteforce_on_random_supports():
    rng = random.Random(default_seed() + 4)
    for _ in range(400):
        nvars = rng.randint(1, 12)
        sig = tuple(f"v{i}" for i in range(nvars))
        leads = set()
        for _ in range(rng.randint(1, 8)):
            width = rng.randint(1, min(nvars, 4))
            e = [0] * nvars
            for i in rng.sample(range(nvars), width):
                e[i] = rng.randint(1, 2)
            leads.add(tuple(e))
        # monomials generate a monomial ideal and are a Groebner basis of it
        gb = GroebnerBasis(tuple(MultiPoly.monomial(sig, e) for e in leads), GREVLEX, sig)
        supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
        want = _bruteforce_independent_set(supports, nvars)
        assert independent_variable_set(gb) == want
        assert ideal_dimension(gb) == len(want)


def test_reduced_basis_properties():
    rng = random.Random(default_seed())
    for _ in range(12):
        gens = [random_multipoly(rng, SIG) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        # every S-polynomial reduces to zero
        for i in range(len(gb.generators)):
            for j in range(i + 1, len(gb.generators)):
                s = s_polynomial(gb.generators[i], gb.generators[j], gb.order)
                assert normal_form(s, gb).is_zero()
        # each generator is monic, no term divisible by another's leading term
        for i, g in enumerate(gb.generators):
            assert g.leading()[1] == 1
            for j, h in enumerate(gb.generators):
                if i == j:
                    continue
                le = h.leading()[0]
                for e in g.terms:
                    assert not all(a <= b for a, b in zip(le, e))


def test_membership_of_products():
    rng = random.Random(default_seed() + 1)
    for _ in range(10):
        gens = [random_multipoly(rng, SIG) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        p = random_multipoly(rng, SIG)
        for g in gens:
            assert normal_form(p * g, gb).is_zero()


def test_generator_order_invariance():
    rng = random.Random(default_seed() + 2)
    for _ in range(8):
        gens = [random_multipoly(rng, SIG) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        gb1 = buchberger(list(gens))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb2 = buchberger(shuffled)
        assert set(gb1.generators) == set(gb2.generators)


def test_dimension_matches_bruteforce():
    rng = random.Random(default_seed() + 3)
    sig = ("a", "b", "c", "d")
    for _ in range(10):
        gens = [random_multipoly(rng, sig, max_degree=2, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        got = ideal_dimension(gb)
        if is_unit_ideal(gb):
            assert got == -1
            continue
        leads = [g.leading()[0] for g in gb.generators]
        supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
        want = _bruteforce_independent_set(supports, len(sig))
        assert got == len(want)
        assert independent_variable_set(gb) == want


def test_saturation():
    assert [g.to_str() for g in saturate([X * Y], X)] == ["y"]
    # saturation by a constant changes nothing
    sat = saturate([X * Y - 1], MultiPoly.const(SIG, 2))
    assert sat.generators == (X * Y - 1,)


def test_saturation_matches_sympy():
    """saturate's basis is sympy's reduced lex basis of <gens, w*h - 1>
    (w greatest) with the generators involving w dropped."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 15)
    sig = ("x", "y", "z")
    syms = sympy.symbols(sig)
    w = sympy.Symbol("w")
    proper = 0
    for _ in range(12):
        h = random_multipoly(rng, sig, max_degree=2, max_terms=2, allow_zero=False)
        if h.is_constant():
            continue
        # multiples of h make the saturation differ from the ideal
        gens = [
            random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False) * h ** rng.randint(0, 1)
            for _ in range(rng.randint(1, 2))
        ]
        sat = saturate(gens, h)
        assert sat.order == LEX and sat.vars == sig
        theirs = sympy.groebner(
            [_to_sympy(sympy, syms, g) for g in gens] + [w * _to_sympy(sympy, syms, h) - 1],
            w, *syms, order="lex", domain="QQ",
        ).exprs
        want = {_monic(_from_sympy(sympy, syms, g, sig), LEX) for g in theirs if not g.has(w)}
        assert len(sat) == len(want) and set(sat.generators) == want
        assert all(_leading(g, LEX)[1] == 1 for g in sat)
        leads = [_leading(g, LEX)[0] for g in sat]
        assert leads == sorted(leads)
        proper += not set(sat.generators) <= set(buchberger(gens, LEX).generators)
    assert proper >= 3


def _interreduce(basis, order):
    """Reduced basis, smallest leading monomial first, of a Groebner basis
    given as MultiPolys: keep the generators whose leading monomial no kept
    one divides, then reduce each by the others and make it monic.  No other
    kept leading monomial divides a kept one's, so every term but the
    leading one ends outside the leading ideal, whatever the reduction path;
    that makes the result the unique reduced basis."""
    key = order_key(order)
    kept = []
    for g in sorted((g for g in basis if not g.is_zero()), key=lambda g: key(_leading(g, order)[0])):
        le = _leading(g, order)[0]
        if not any(all(a <= b for a, b in zip(_leading(h, order)[0], le)) for h in kept):
            kept.append(g)
    return [
        _monic(normal_form(g, kept[:i] + kept[i + 1 :], order), order) for i, g in enumerate(kept)
    ]


def _buchberger_no_criteria(gens, order):
    """Textbook Buchberger without pair-skipping criteria; test oracle."""
    key = order_key(order)
    basis = [_monic(g, order) for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = min(pairs, key=lambda p: key(tuple(map(
            max, _leading(basis[p[0]], order)[0], _leading(basis[p[1]], order)[0]
        ))))
        pairs.remove((i, j))
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        basis.append(_monic(r, order))
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    return GroebnerBasis(tuple(_interreduce(basis, order)), order, gens[0].vars)


def test_criteria_match_plain_buchberger():
    rng = random.Random(default_seed() + 9)
    sig = ("x", "y", "z")
    for _ in range(15):
        gens = [random_multipoly(rng, sig, max_degree=2, max_terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        for order in (GREVLEX, LEX):
            fast = buchberger(list(gens), order)
            slow = _buchberger_no_criteria(list(gens), order)
            assert set(fast.generators) == set(slow.generators)


def _tie_heavy_system(rng, sig):
    """Three to five generators of two or three terms, each term a squarefree
    monomial of degree <= 2: leading monomials share variables, so many
    pairs share an lcm."""
    monos = [e for e in exponents_upto(len(sig), 2) if max(e) <= 1]
    gens = []
    for _ in range(rng.randint(3, 5)):
        chosen = rng.sample(monos, rng.randint(2, 3))
        coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in chosen]
        gens.append(MultiPoly(sig, dict(zip(chosen, coeffs))))
    return gens


def test_tied_lcms_match_plain_buchberger_and_permutations():
    from delta_kernel.groebner import _lcm

    rng = random.Random(default_seed() + 11)
    sig = ("a", "b", "c", "d")
    tied = 0
    for _ in range(15):
        gens = _tie_heavy_system(rng, sig)
        for order in (GREVLEX, LEX):
            key = order_key(order)
            leads = [max(g.terms, key=key) for g in gens]
            lcms = [_lcm(p, q) for p, q in combinations(leads, 2)]
            tied += len(lcms) - len(set(lcms))
            fast = buchberger(list(gens), order)
            slow = _buchberger_no_criteria(list(gens), order)
            assert set(fast.generators) == set(slow.generators)
            for _ in range(2):
                shuffled = list(gens)
                rng.shuffle(shuffled)
                assert buchberger(shuffled, order).generators == fast.generators
    # the systems exercise the tie-break: many initial pairs share an lcm
    assert tied >= 30


def _to_sympy(sympy, syms, p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**k for s, k in zip(syms, e))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def _from_sympy(sympy, syms, expr, sig):
    terms = {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expr, *syms).terms() if c}
    return MultiPoly(sig, terms)


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 12)
    sig = ("x", "y", "z")
    syms = sympy.symbols(sig)

    checked = 0
    for _ in range(12):
        gens = [random_multipoly(rng, sig, max_degree=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        for order in (GREVLEX, LEX):
            ours = {_monic(g, order) for g in buchberger(list(gens), order).generators}
            theirs = {
                _monic(_from_sympy(sympy, syms, g, sig), order)
                for g in sympy.groebner(
                    [_to_sympy(sympy, syms, g) for g in gens], *syms, order=order, domain="QQ"
                ).exprs
            }
            assert ours == theirs
            checked += 1
    assert checked >= 16


def _nonzero_fraction(rng):
    return Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]), rng.randint(1, 9))


def test_normal_form_is_the_exact_remainder():
    """Fraction-free reduction must not return a scalar multiple of the
    remainder: on a reduced basis the remainder is unique, so sympy's
    division must give it exactly, also when the divisors and the input are
    non-monic."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 13)
    sig = ("x", "y", "z")
    syms = sympy.symbols(sig)
    nonzero = 0
    for _ in range(20):
        gens = [
            random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False)
            for _ in range(rng.randint(1, 2))
        ]
        for order in (GREVLEX, LEX):
            gb = buchberger(gens, order)
            if is_unit_ideal(gb):
                continue
            scaled = [g.scale(_nonzero_fraction(rng)) for g in gb.generators]
            p = random_multipoly(rng, sig, max_degree=4, max_terms=6, allow_zero=False)
            p = p.scale(_nonzero_fraction(rng))
            _, r = sympy.reduced(
                _to_sympy(sympy, syms, p), [_to_sympy(sympy, syms, g) for g in gb.generators],
                *syms, order=order, domain="QQ",
            )
            want = _from_sympy(sympy, syms, r, sig)
            assert normal_form(p, gb) == want
            assert normal_form(p, scaled, order) == want
            nonzero += not want.is_zero()
    assert nonzero >= 16


def test_buchberger_ignores_generator_scaling():
    rng = random.Random(default_seed() + 14)
    sig = ("x", "y", "z")
    for _ in range(15):
        gens = [random_multipoly(rng, sig, max_degree=2, max_terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        for order in (GREVLEX, LEX):
            scaled = [g.scale(_nonzero_fraction(rng)) for g in gens]
            assert buchberger(scaled, order).generators == buchberger(gens, order).generators


def test_sampled_solutions_reuse_a_given_basis(monkeypatch):
    import delta_kernel.solve as solve

    runs = []

    def counting_buchberger(gens, leads, order):
        runs.append(order)
        return buchberger_terms(gens, leads, order)

    monkeypatch.setattr(solve, "buchberger_terms", counting_buchberger)
    systems = [
        [X * Y - 1, Y * Y - 1],  # zero-dimensional
        [X * Y - Y],  # a line and a point: sampled
        [X, X + 1],  # unit ideal
    ]
    for gens in systems:
        runs.clear()
        want = sampled_rational_solutions(gens, SIG)
        from_gens = len(runs)
        for order, saved in ((GREVLEX, 1), (LEX, 0)):
            runs.clear()
            assert sampled_rational_solutions(buchberger(gens, order), SIG) == want
            assert len(runs) == from_gens - saved
        for point in want[0]:
            assert all(evaluate(g, point) == 0 for g in gens)


def _redundant_inputs(rng, gens, sig):
    """gens with redundant inputs added: a duplicate, a scalar multiple and
    a member of the ideal the others generate, in a shuffled order."""
    out = list(gens)
    out.append(rng.choice(gens))
    out.append(rng.choice(gens).scale(_nonzero_fraction(rng)))
    member = MultiPoly.zero(sig)
    for g in gens:
        member = member + random_multipoly(rng, sig, max_degree=1, max_terms=2) * g
    if not member.is_zero():
        out.append(member)
    rng.shuffle(out)
    return out


def test_redundant_inputs_match_sympy_and_plain_buchberger():
    """Inputs are interreduced before any pair is formed: duplicates,
    scalar multiples, ideal members, an input that is already its reduced
    basis and the unit ideal must give the reduced basis of the ideal."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 16)
    sig = ("x", "y", "z")
    syms = sympy.symbols(sig)
    x, y, z = (MultiPoly.var(sig, v) for v in sig)
    systems = []
    for _ in range(6):
        gens = [
            random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False)
            for _ in range(rng.randint(2, 3))
        ]
        systems.append(_redundant_inputs(rng, gens, sig))
    systems.append([x * y - z, x * y - z, (x * y - z).scale(3), x * x - 1])
    systems.append(_redundant_inputs(rng, [x * x - y, y * y - z, x * z - 1], sig))
    systems.append([x * y - 1, x, x + y])  # the unit ideal
    systems.append(_redundant_inputs(rng, [x - 1, y + 2, z], sig) + [MultiPoly.const(sig, 5)])
    for gens in systems:
        for order in (GREVLEX, LEX):
            ours = buchberger(list(gens), order)
            theirs = {
                _monic(_from_sympy(sympy, syms, g, sig), order)
                for g in sympy.groebner(
                    [_to_sympy(sympy, syms, g) for g in gens], *syms, order=order, domain="QQ"
                ).exprs
            }
            assert set(ours.generators) == theirs
            assert set(_buchberger_no_criteria(list(gens), order).generators) == theirs
            # a reduced basis given as the input comes back unchanged
            again = list(ours.generators)
            rng.shuffle(again)
            assert buchberger(again, order).generators == ours.generators
    assert is_unit_ideal(buchberger(systems[-2], LEX))


def _work_guard_systems():
    """A fixed set of systems, not drawn from the suite's seed: the counts in
    test_pair_criteria_work_guard were recorded on exactly these."""
    rng = random.Random(1515)
    sig = ("x", "y", "z")
    systems = [
        [random_multipoly(rng, sig, max_degree=3, max_terms=4, allow_zero=False) for _ in range(3)]
        for _ in range(12)
    ]
    systems += [_tie_heavy_system(rng, ("a", "b", "c", "d")) for _ in range(8)]
    x, y, z = (MultiPoly.var(sig, v) for v in sig)
    systems.append([x + y + z, x * y + y * z + z * x, x * y * z - 1])  # cyclic-3
    systems.append(  # katsura-3
        [x + 2 * y + 2 * z - 1, x * x + 2 * y * y + 2 * z * z - x, 2 * x * y + 2 * y * z - y]
    )
    return systems


@pytest.mark.parametrize("order, at_most", [(GREVLEX, 173), (LEX, 299)])
def test_pair_criteria_work_guard(order, at_most, monkeypatch):
    """The number of S-polynomials over the fixed systems may not rise above
    the count of the chain-criterion engine (coprime and chain criteria,
    no interreduction of the inputs): 173 under grevlex and 299 under lex.
    The Gebauer-Moeller update with interreduced inputs forms 128 and 205."""
    import delta_kernel.groebner as groebner

    calls = []
    s_poly = groebner._s_poly

    def counting(*args):
        calls.append(args)
        return s_poly(*args)

    monkeypatch.setattr(groebner, "_s_poly", counting)
    for gens in _work_guard_systems():
        buchberger(gens, order)
    assert 0 < len(calls) <= at_most


# ---------- a known reduced basis as the start ----------


def _integer_run(gens, order, known=((), ())):
    """buchberger_terms on the integer term dicts of the MultiPolys gens."""
    key = order_key(order)
    ints = [integer_terms(g.terms)[1] for g in gens]
    return buchberger_terms(ints, [max(t, key=key) for t in ints], order, known)


def _with_known(prefix, rest, order, width=0):
    """The basis of prefix + rest from the reduced basis of prefix, as the
    known argument, plus rest; prefix is over the signature of rest less
    its first width variables, which the known basis gains as zero columns
    in front, the way a prolongation level gains its order-t coordinates."""
    basis, leads = _integer_run(prefix, order)
    pad = (0,) * width
    known = ([{pad + e: c for e, c in g.items()} for g in basis], [pad + le for le in leads])
    basis, leads = _integer_run(rest, order, known)
    sig = rest[0].vars
    return GroebnerBasis(
        tuple(from_integer_terms(sig, g, g[le]) for g, le in zip(basis, leads)), order, sig
    )


def _split_systems(rng, sig):
    """Seeded systems of three or four generators over sig, each split
    into a known prefix and the generators added after it."""
    out = []
    while len(out) < 12:
        gens = [
            random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False)
            for _ in range(rng.randint(3, 4))
        ]
        gens = [g for g in gens if not g.is_constant()]
        if len(gens) >= 2:
            cut = rng.randint(1, len(gens) - 1)
            out.append((gens[:cut], gens[cut:]))
    return out


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_known_basis_matches_from_scratch(order):
    rng = random.Random(default_seed() + 31)
    sig = ("x", "y", "z")
    for prefix, rest in _split_systems(rng, sig):
        assert _with_known(prefix, rest, order) == buchberger(prefix + rest, order)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_known_basis_gains_zero_columns_first(order):
    """A basis over (y, z) stays one over (x, y, z) under both orders, since
    each restricts to the old one; the run from it equals the one from
    scratch on the lifted generators."""
    rng = random.Random(default_seed() + 32)
    sig = ("x", "y", "z")
    for prefix, rest in _split_systems(rng, sig[1:]):
        top = random_multipoly(rng, sig, max_degree=2, max_terms=3, allow_zero=False)
        rest = [g.restrict(sig) for g in rest] + [MultiPoly.var(sig, "x") * top + top]
        lifted = [g.restrict(sig) for g in prefix]
        assert _with_known(prefix, rest, order, width=1) == buchberger(lifted + rest, order)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_new_lead_on_old_variables_reduces_a_known_tail(order):
    """The known basis {y^2 - z} over (y, z) gains x; the new generators
    x - z and x - 2z yield z, whose lead lies on the old variables and
    divides the known tail z, so the known element becomes y^2."""
    sig = ("x", "y", "z")
    x, y, z = (MultiPoly.var(sig, v) for v in sig)
    low = ("y", "z")
    prefix = [MultiPoly.var(low, "y") ** 2 - MultiPoly.var(low, "z")]
    got = _with_known(prefix, [x - z, x - 2 * z], order, width=1)
    assert got == buchberger([y * y - z, x - z, x - 2 * z], order)
    assert set(got.generators) == {x, y * y, z}


def test_known_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(default_seed() + 33)
    sig = ("x", "y", "z")
    syms = sympy.symbols(sig)
    for prefix, rest in _split_systems(rng, sig):
        for order in (GREVLEX, LEX):
            theirs = sympy.groebner(
                [_to_sympy(sympy, syms, g) for g in prefix + rest], *syms, order=order, domain="QQ"
            ).exprs
            want = {_monic(_from_sympy(sympy, syms, g, sig), order) for g in theirs}
            assert set(_with_known(prefix, rest, order).generators) == want
