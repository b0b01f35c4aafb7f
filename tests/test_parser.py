"""The parser's contexts: the names each one accepts and what they mean,
where a misplaced name is reported, and what `action` lines produce."""

import io
from fractions import Fraction

import pytest

from delta_kernel.cli import main
from delta_kernel.diffring import CoeffGen
from delta_kernel.heights import OdePoly
from delta_kernel.multipoly import MultiPoly
from delta_kernel.parser import ParseError, parse_ratfunc_expression, parse_system
from delta_kernel.ratfunc import RatFunc

HALF = Fraction(1, 2)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestAcceptedNames:
    @pytest.mark.parametrize(
        "name, kind, index",
        [("u1", "u", 1), ("u2", "u", 2), ("t", "t", 1), ("t1", "t", 1), ("t2", "t", 2)],
    )
    def test_poly_name(self, name, kind, index):
        prob = parse_system(f"m=1 n=2 coeffs=Q(t1..t2)\npoly f = {name}\n")
        assert prob.polys["f"] == getattr(prob.ctx, kind)(index)

    def test_poly_over_coefficient_generators(self):
        prob = parse_system("m=2 n=2 coeffs=Q(t1..t2)\npoly f = t2*u1 - t*d2*u2/2 + 3\n")
        ctx = prob.ctx
        expected = ctx.t(2) * ctx.u(1) - ctx.t(1) * ctx.indet((0, 1), 2) * HALF + 3
        assert prob.polys["f"] == expected

    def test_dspec_names_in_fields_and_ideal(self):
        prob = parse_system(
            "m=1 n=1 coeffs=Q\n"
            "dspec q {\n n = 2\n m = 1\n d1 x = x\n d1 x2 = x2 - x1/2\n"
            " ideal = x^2 + x2, x1*x2\n}\n"
        )
        spec = prob.dspecs["q"]
        x1, x2 = (MultiPoly.var(spec.sig, v) for v in ("x1", "x2"))
        assert spec.fields == [[x1, x2 - x1.scale(HALF)]]
        assert spec.ideal_gens == [x1**2 + x2, x1 * x2]

    @pytest.mark.parametrize(
        "coeffs, text, sig, expected",
        [
            ("Q", "t*y + t1*x^2 - x", ("t", "x", "y"), [(1, "t", "y"), (1, "t", "x", "x"), (-1, "x")]),
            ("Q(t1)", "y - t*x + t1", ("t1", "x", "y"), [(1, "y"), (-1, "t1", "x"), (1, "t1")]),
            (
                "Q(t1..t2)",
                "t*y1 + t2*y2 - 2*x/3",
                ("t1", "t2", "x", "y1", "y2"),
                [(1, "t1", "y1"), (1, "t2", "y2"), (Fraction(-2, 3), "x")],
            ),
        ],
        ids=["s1-over-Q", "s1-over-Q(t1)", "s2"],
    )
    def test_ode_names(self, coeffs, text, sig, expected):
        prob = parse_system(f"m=1 n=1 coeffs={coeffs}\node E = {text}\n")
        ode = prob.odes["E"]
        total = MultiPoly.zero(sig)
        for coeff, *factors in expected:
            term = MultiPoly.const(sig, coeff)
            for v in factors:
                term = term * MultiPoly.var(sig, v)
            total = total + term
        assert ode.sig == sig
        assert ode.poly == OdePoly(total, tvars=sig[: len(sig) // 2]).poly

    @pytest.mark.parametrize("name", ["t", "t1"])
    def test_height_names(self, name):
        t = RatFunc.var(("t",), "t")
        assert parse_ratfunc_expression(f"{name}^2/({name} + 1)") == t**2 / (t + 1)

    def test_height_names_over_two_variables(self):
        tvars = ("t1", "t2")
        t1, t2 = (RatFunc.var(tvars, v) for v in tvars)
        assert parse_ratfunc_expression("t2/t - t1", tvars) == t2 / t1 - t1

    def test_height_command_reads_t1(self):
        code, out, _ = run(["height", "t1^3/(t - 1)"])
        assert code == 0 and "height" in out


class TestMisplacedNames:
    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("m=1 n=1 coeffs=Q\node E = y - u1\n", 2, 13),
            ("m=1 n=1 coeffs=Q\node E = y - x1\n", 2, 13),
            ("m=1 n=1 coeffs=Q\node E = y1 - x\n", 2, 9),
            ("m=1 n=1 coeffs=Q(t1..t2)\node E = y - x\n", 2, 9),
            ("m=1 n=1 coeffs=Q(t1..t2)\node E = y1 - t3\n", 2, 14),
            ("m=1 n=1 coeffs=Q\node E = d1*u1 - x\n", 2, 9),
            ("m=1 n=1 coeffs=Q\n\npoly f = u1 + x\n", 3, 15),
            ("m=1 n=1 coeffs=Q\npoly f = u\n", 2, 10),
            ("m=1 n=2 coeffs=Q\npoly f = u1*u3\n", 2, 13),
            ("m=1 n=1 coeffs=Q\npoly f = u1 + t\n", 2, 15),
            ("m=1 n=1 coeffs=Q(t1..t2)\npoly f = u1 + t3\n", 2, 15),
            ("m=1 n=1 coeffs=Q\npoly f = y\n", 2, 10),
            ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x1 = x3\n d1 x2 = x1\n}\n", 5, 10),
            ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = d1*u1\n}\n", 5, 10),
            ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = t*x1\n}\n", 5, 10),
            ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal = u1\n}\n", 6, 10),
        ],
        ids=[
            "u1-in-ode",
            "x1-in-ode",
            "y1-in-ode-s1",
            "y-in-ode-s2",
            "t3-in-ode-s2",
            "derivative-in-ode",
            "x-in-poly",
            "bare-u-in-poly",
            "u3-in-poly-n2",
            "t-in-poly-over-Q",
            "t3-in-poly-over-Q(t1..t2)",
            "y-in-poly",
            "x3-in-field-n2",
            "derivative-in-field",
            "t-in-field",
            "u1-in-ideal",
        ],
    )
    def test_names_line_and_column(self, tmp_path, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        path = tmp_path / "bad.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["analyze", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and f"at line {line}, column {col}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, col", [("t2", 1), ("t + u1", 5), ("x", 1), ("d1*u1", 1)])
    def test_height_rejects(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc_expression(text)
        assert exc.value.col == col
        code, _, err = run(["height", text])
        assert code == 2 and "parse error" in err


class TestActions:
    def test_action_lines_give_the_actions(self):
        prob = parse_system(
            "m=2 n=1 coeffs=Q(t1..t2)\n"
            "action d1 t1 = t1^2 + t2/2\n"
            "action d2 t = 3*t\n"
            "action d1 t2 = 1\n"
            "poly f = d1*u1 - t1*u1\n"
        )
        ctx = prob.ctx
        gens = (CoeffGen(1), CoeffGen(2))
        t1, t2 = (MultiPoly.var(gens, g) for g in gens)
        assert ctx.actions == {
            (1, 1): t1**2 + t2.scale(HALF),
            (2, 1): t1.scale(3),
            (1, 2): MultiPoly.const(gens, 1),
        }
        assert ctx.actions.get((1, 1)) == t1**2 + t2.scale(HALF)
        assert ctx.actions.get((2, 2)) is None
        assert ctx.d(1, ctx.t(1)) == ctx.t(1) ** 2 + ctx.t(2) * HALF
        assert not ctx.is_constant_field()

    def test_action_over_one_generator(self):
        prob = parse_system("m=1 n=1 coeffs=Q(t1)\naction d1 t = 2\npoly f = u1\n")
        gens = (CoeffGen(1),)
        assert prob.ctx.actions == {(1, 1): MultiPoly.const(gens, 2)}

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = 1/t1\n", 2, 17),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = t1^2/t1\n", 2, 20),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = t1/0\n", 2, 18),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = u1\n", 2, 16),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = t3\n", 2, 16),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = x\n", 2, 16),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t3 = 1\n", 2, 11),
            ("m=1 n=1 coeffs=Q(t1..t2)\naction d2 t1 = 1\n", 2, 8),
            ("m=1 n=1 coeffs=Q\naction d1 t1 = 1\n", 2, 11),
            ("m=1 n=1 coeffs=Q(t1)\naction d1 u1 = 1\n", 2, 11),
        ],
        ids=[
            "divides-by-t1",
            "divides-by-t1-exactly",
            "divides-by-zero",
            "u1",
            "t3",
            "x",
            "undeclared-generator",
            "derivation-outside-m",
            "no-generators",
            "not-a-generator",
        ],
    )
    def test_bad_action_lines(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "text",
    [
        "m=1 n=2 coeffs=Q(t1..t2)\npoly f = u02*t02 - t01\n",
        "m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x01 = x02\n d1 x2 = x01\n}\n",
        "m=1 n=1 coeffs=Q(t1..t2)\naction d1 t01 = t02\node E = y1 - t01*y2\n",
    ],
    ids=["poly", "dspec", "action-and-ode"],
)
def test_indices_read_as_integers(text):
    same = parse_system(text.replace("0", ""))
    prob = parse_system(text)
    assert (prob.polys, prob.ctx) == (same.polys, same.ctx)
    assert [s.fields for s in prob.dspecs.values()] == [s.fields for s in same.dspecs.values()]
    assert [e.poly for e in prob.odes.values()] == [e.poly for e in same.odes.values()]


class TestNewRejections:
    @pytest.mark.parametrize("clauses", ["n = 0\n m = 1\n", "n = 1\n m = 0\n"], ids=["n0", "m0"])
    @pytest.mark.parametrize("command", ["darboux", "integrals"])
    def test_dspec_without_variables_or_derivations(self, tmp_path, clauses, command):
        text = f"m=1 n=1 coeffs=Q\n\ndspec q {{\n {clauses}}}\n"
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert exc.value.line == 3
        assert "need at least one derivation and one variable" in exc.value.message
        path = tmp_path / "empty.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["--json", command, str(path), "--dspec", "q", "--deg", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and "Traceback" not in err

    def test_noncommuting_dspec_names_the_nocommute_clause(self, tmp_path):
        fields = "n = 2\n m = 2\n d1 x1 = x2\n d1 x2 = 0\n d2 x1 = 0\n d2 x2 = x1\n"
        text = f"m=1 n=1 coeffs=Q\ndspec p {{\n {fields}}}\n"
        path = tmp_path / "noncommuting.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["darboux", str(path), "--dspec", "p", "--deg", "1"])
        assert (code, out) == (2, "")
        assert err == (
            "parse error: derivations 1 and 2 do not commute on x1 "
            "(add a nocommute clause to waive) at line 2, column 7\n"
        )
        # the clause the message names is the waiver
        waived = parse_system(f"m=1 n=1 coeffs=Q\ndspec p {{\n {fields} nocommute\n}}\n")
        assert waived.dspecs["p"].commuting_witness() == (0, 1, 0)

    @pytest.mark.parametrize("header", ["m=0 n=1", "m=2 n=0"], ids=["m0", "n0"])
    def test_header_without_variables_or_derivations(self, tmp_path, header):
        # a parse error at the header's line, not a precondition failure (exit 3)
        text = f"\n\n{header} coeffs=Q\npoly f = 1\n"
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert (exc.value.line, exc.value.col) == (3, 1)
        assert exc.value.message == "need at least one derivation and one variable"
        path = tmp_path / "empty.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["analyze", str(path)])
        assert (code, out) == (2, "")
        message = "need at least one derivation and one variable at line 3, column 1"
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("coeffs", ["Q(t1..t0)", "Q(t1..t00)"])
    def test_no_coefficient_generators_in_a_range(self, coeffs):
        with pytest.raises(ParseError) as exc:
            parse_system(f"m=1 n=1 coeffs={coeffs}\npoly f = u1 + t1\n")
        assert exc.value.line == 1
        assert exc.value.message == f"bad coefficient field {coeffs!r}"

    @pytest.mark.parametrize(
        "members, col, message",
        [
            ("f g", 11, "expected ',' between set members"),
            ("f,,", 11, "empty member in set"),
            ("f, , g", 12, "empty member in set"),
            (", f", 9, "empty member in set"),
            ("f,", 10, "empty member in set"),
            (",", 9, "empty member in set"),
            ("f, g,", 13, "empty member in set"),
            ("f, 1", 12, "set members are names of polynomials"),
            ("f, h", 12, "unknown polynomial 'h'"),
        ],
        ids=[
            "no-comma", "double-comma", "empty-middle", "leading", "trailing",
            "lone-comma", "trailing-after-two", "non-name", "unknown",
        ],
    )
    def test_set_members_follow_their_grammar(self, tmp_path, members, col, message):
        # set := 'set' NAME '=' NAME (',' NAME)*, an error at the offending token
        text = f"m=1 n=1 coeffs=Q\npoly f = u1\npoly g = d1*u1\nset L = {members}\n"
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (4, col, message)
        path = tmp_path / "set.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["analyze", str(path)])
        assert (code, out) == (2, "")
        assert err == f"parse error: {message} at line 4, column {col}\n"

    @pytest.mark.parametrize("members", ["f", "f, g", "f ,g", "g,f"])
    def test_set_members_separated_by_commas(self, members):
        prob = parse_system(f"m=1 n=1 coeffs=Q\npoly f = u1\npoly g = d1*u1\nset L = {members}\n")
        names = [m.strip() for m in members.split(",")]
        assert prob.sets["L"] == [prob.polys[n] for n in names]

    def test_t0_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t0.dk"
        path.write_text("m=1 n=1 coeffs=Q(t1)\npoly f = u1 + t0\n", encoding="utf-8")
        code, _, err = run(["analyze", str(path)])
        assert code == 2 and "at line 2, column 15" in err
