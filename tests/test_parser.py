"""The parser's contexts: the names each one accepts and what they mean,
where a misplaced name is reported, and what `action` lines produce."""

import io
from fractions import Fraction
from functools import partial

import pytest

from delta_kernel.cli import main
from delta_kernel.diffring import CoeffGen, DiffContext
from delta_kernel.heights import OdePoly
from delta_kernel.multipoly import MultiPoly
from delta_kernel.parser import (
    ParseError,
    parse_diff_expression,
    parse_ratfunc_expression,
    parse_system,
)
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


# Every ParseError site, pinned as (text, message, line, column): a column of
# None is an expression cut short, reported at the line its statement (or
# dspec clause) starts on.  Statements are checked in the order of the file,
# after the header and after every action line, so the first error wins.
PARSE_ERRORS = [
    # tokenize
    ("m=1 n=1 coeffs=Q\npoly f = u1 $ 2\n", "unexpected character '$'", 2, 13),
    ("m=1 n=1 coeffs=Q\n\tpoly f = u1 # ok\npoly g = @\n", "unexpected character '@'", 3, 10),
    # expect: a token of the wrong kind, in the header, a statement or an expression
    ("m 1 n=1 coeffs=Q\n", "expected '=', found '1'", 1, 3),
    ("m=1 n=1\n", "expected 'name', found '\\n'", 1, 8),
    ("m=1 n=1 coeffs=Q\npoly f u1\n", "expected '=', found 'u1'", 2, 8),
    ("m=1 n=1 coeffs=Q\npoly = u1\n", "expected 'name', found '='", 2, 6),
    ("m=1 n=1 coeffs=Q\npoly f = (u1 + 1\n", "expected ')', found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\npoly f = u1^x\n", "expected 'number', found 'x'", 2, 13),
    ("m=1 n=1 coeffs=Q\npoly f = u1^\n", "expected 'number', found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\npoly f = d1 u1\n", "expected '*', found 'u1'", 2, 13),
    ("m=1 n=1 coeffs=Q\npoly f = d1^*u1\n", "expected 'number', found '*'", 2, 13),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = (x1\n}\n", "expected ')', found 'eof'", 5, None),
    # atoms, derivative chains, names and division
    ("m=1 n=1 coeffs=Q\npoly f = u1 + *\n", "expected an expression, found '*'", 2, 15),
    ("m=1 n=1 coeffs=Q\npoly f = u1 +\n", "expected an expression, found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\npoly f =\n", "expected an expression, found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\node E = y -\n", "expected an expression, found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = t2 *\n", "expected an expression, found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal = x1 +\n}\n", "expected an expression, found 'eof'", 6, None),
    ("m=1 n=1 coeffs=Q\npoly f = d2*u1\n", "derivation index 2 exceeds m=1", 2, 10),
    ("m=1 n=1 coeffs=Q\npoly f = u1 + d1*d1^2*d3*u1\n", "derivation index 3 exceeds m=1", 2, 15),
    ("m=1 n=1 coeffs=Q\npoly f = d1*u2\n", "variable index 2 exceeds n=1", 2, 10),
    ("m=1 n=1 coeffs=Q\npoly f = d1*x\n", "a derivative chain must end in u<j>, found 'x'", 2, 13),
    ("m=1 n=1 coeffs=Q\npoly f = d1*2\n", "a derivative chain must end in u<j>, found '2'", 2, 13),
    ("m=1 n=1 coeffs=Q\npoly f = d1*\n", "a derivative chain must end in u<j>, found 'eof'", 2, None),
    ("m=1 n=1 coeffs=Q\npoly f = u1 + v\n", "unknown symbol 'v' in a differential polynomial (names: u1)", 2, 15),
    ("m=1 n=1 coeffs=Q\npoly f = u1/u1\n", "division by a nonconstant expression is not allowed here", 2, 12),
    ("m=1 n=1 coeffs=Q\npoly f = u1/0\n", "division by zero", 2, 12),
    ("m=1 n=1 coeffs=Q\npoly f = u1/(1 - 1)\n", "division by zero", 2, 12),
    ("m=1 n=1 coeffs=Q\node E = y/(2*x - x*2)\n", "division by zero", 2, 10),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1/(3-3)\n}\n", "division by zero", 5, 12),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1/x1\n}\n", "division by a nonconstant expression is not allowed here", 5, 12),
    ("m=1 n=1 coeffs=Q\node E = y/x\n", "division by a nonconstant expression is not allowed here", 2, 10),
    # the header and the ring it declares
    ("n=1 m=1 coeffs=Q\n", "header must declare m=<int>", 1, 1),
    ("m=1 m=1 coeffs=Q\n", "header must declare n=<int>", 1, 5),
    ("m=1 n=1 field=Q\n", "header must declare coeffs=Q or coeffs=Q(t1..ts)", 1, 9),
    ("m=1 n=1 coeffs=R\n", "bad coefficient field 'R'", 1, 9),
    ("m=1 n=1 coeffs=Q(t2)\n", "bad coefficient field 'Q(t2)'", 1, 9),
    ("m=1 n=1 coeffs=Q(t1..t2\n", "bad coefficient field 'Q(t1..t2'", 1, 9),
    ("m=0 n=1 coeffs=Q\n", "need at least one derivation and one variable", 1, 1),
    # action lines
    ("m=1 n=1 coeffs=Q(t1..t2)\naction x1 t1 = 1\n", "action needs d<k> with 1 <= k <= m=1", 2, 8),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d3 t1 = 1\n", "action needs d<k> with 1 <= k <= m=1", 2, 8),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t3 = 1\n", "action needs a declared t<i>, found 't3'", 2, 11),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 1\n", "expected '=', found '1'", 2, 14),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t1 = t2\naction d1 t1 = 1\n", "repeated action d1 t1", 3, 8),
    ("m=1 n=1 coeffs=Q(t1..t2)\naction d1 t = t2\naction d1 t01 = 1\n", "repeated action d1 t1", 3, 8),
    # statements and sets
    ("m=1 n=1 coeffs=Q\npoly f = u1\npoly f = u1\n", "duplicate name 'f'", 3, 6),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset f = f\n", "duplicate name 'f'", 3, 5),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset L = f f\n", "expected ',' between set members", 3, 11),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset L = f,,f\n", "empty member in set", 3, 11),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset L = f, 2\n", "set members are names of polynomials", 3, 12),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset L = g\n", "unknown polynomial 'g'", 3, 9),
    ("m=1 n=1 coeffs=Q\npoly f = u1\nset L =\n", "empty set", 3, 5),
    ("m=1 n=1 coeffs=Q\node E = 0\n", "the defining polynomial must be nonzero", 2, 5),
    ("m=1 n=1 coeffs=Q\node E = x - x\n", "the defining polynomial must be nonzero", 2, 5),
    ("m=1 n=1 coeffs=Q\nfoo f = 1\n", "unknown statement 'foo' (expected poly, set, dspec, ode, or action)", 2, 1),
    ("m=1 n=1 coeffs=Q\n3 f = 1\n", "expected 'name', found '3'", 2, 1),
    ("m=1 n=1 coeffs=Q\npoly 3 = 1\n", "expected 'name', found '3'", 2, 6),
    # statement heads, dspec blocks and trailing input
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n", "unterminated dspec block", 2, 1),
    ("m=1 n=1 coeffs=Q\ndspec q\n", "expected '{', found '\\n'", 2, 8),
    ("m=1 n=1 coeffs=Q\npoly f = u1 u1\n", "unexpected trailing input 'u1'", 2, 13),
    ("m=1 n=1 coeffs=Q\npoly f = (u1))\n", "unexpected trailing input ')'", 2, 14),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1 x1\n}\n", "unexpected trailing input 'x1'", 5, 13),
    # dspec clauses, fields and ideals
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n 1 = 2\n d1 x1 = x1\n}\n", "bad clause in dspec block", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n n = 1\n d1 x1 = x1\n}\n", "repeated clause n", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n ideal = x1\n ideal = x1\n d1 x1 = x1\n}\n", "repeated clause ideal", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = x\n m = 1\n d1 x1 = x1\n}\n", "expected n=<int>", 3, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1 2\n m = 1\n d1 x1 = x1\n}\n", "expected n=<int>", 3, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m\n d1 x1 = x1\n}\n", "expected m=<int>", 4, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal x1\n}\n", "expected ideal = <poly>, <poly>, ...", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal\n}\n", "expected ideal = <poly>, <poly>, ...", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 x1\n}\n", "expected d<k> x<j> = <poly>", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1\n}\n", "expected d<k> x<j> = <poly>", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 = x1\n}\n", "expected d<k> x<j> = <poly>", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n d1 x = x1\n}\n", "repeated clause d1 x1", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n foo = 1\n}\n", "unknown dspec clause 'foo'", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n nocommute = 3 foo\n d1 x1 = x1\n}\n", "expected nocommute alone", 5, 2),
    ("m=1 n=1 coeffs=Q\ndspec q { n = 1; m = 1; nocommute x1; d1 x1 = x1 }\n", "expected nocommute alone", 2, 25),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n d1 x1 = x1\n}\n", "dspec block must declare n=<int> and m=<int>", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n m = 1\n}\n", "dspec block must declare n=<int> and m=<int>", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n d2 x1 = x1\n}\n", "clause d2 x1 lies outside m=1, n=1", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x1 = x1\n}\n", "dspec is missing d1 x2", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x2 = x1\n}\n", "dspec is missing d1 x1", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal = x1,,x1\n}\n", "empty member in ideal", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal = ,\n}\n", "empty member in ideal", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1\n ideal = x1,\n}\n", "empty member in ideal", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1; m = 1; d1 x1 = x1; ideal = x1 +; }\n", "expected an expression, found 'eof'", 3, None),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 0\n}\n", "need at least one derivation and one variable", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 2\n d1 x1 = x2\n d1 x2 = 0\n d2 x1 = 0\n d2 x2 = x1\n}\n", "derivations 1 and 2 do not commute on x1 (add a nocommute clause to waive)", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = {x1}\n}\n", "expected an expression, found '{'", 5, 10),
    # which error comes first, and positions around blanks and comments
    ("m=1 n=1 coeffs=Q\npoly f = u1 +\nfoo g = 1\n", "unknown statement 'foo' (expected poly, set, dspec, ode, or action)", 3, 1),
    ("m=1 n=1 coeffs=Q\npoly f = u1 +\naction d1 t1 = 1\n", "action needs a declared t<i>, found 't1'", 3, 11),
    ("m=1 n=1 coeffs=Q(t1)\npoly f = u1 +\naction d1 t1 = 1 +\n", "expected an expression, found 'eof'", 3, None),
    ("m=0 n=1 coeffs=Q\nfoo\n", "need at least one derivation and one variable", 1, 1),
    ("m=1 n=1 coeffs=R\npoly f = $\n", "unexpected character '$'", 2, 10),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1 +\n}\npoly f = d3*u1\n", "expected an expression, found 'eof'", 5, None),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1 +\n foo = 1\n}\n", "unknown dspec clause 'foo'", 6, 2),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x1 = x1 +\n}\n", "expected an expression, found 'eof'", 5, None),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 2\n m = 1\n d1 x2 = x1 +\n}\n", "dspec is missing d1 x1", 2, 7),
    ("m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n ideal = x1,\n d1 x1 = x1 +\n}\n", "expected an expression, found 'eof'", 6, None),
    ("m=1 n=1 coeffs=Q\nset L = f\npoly f = u1\n", "unknown polynomial 'f'", 2, 9),
    ("m=1 n=1 coeffs=Q\npoly f = u1\n\n\n  poly g = u1\tu1\n", "unexpected trailing input 'u1'", 5, 15),
    ("m=1 n=1 coeffs=Q\npoly f = u1 # trailing comment\n  # comment\npoly g = u1 + ) # x\n", "expected an expression, found ')'", 4, 15),
    ("# lead\n\n m = 1 n = 1 coeffs = Q ( t1 .. t2 )  # spaced\naction d1 t2 = t3\n", "unknown symbol 't3' in a derivation action (names: t1, t2, t)", 4, 16),
    ("m=1 n=1 coeffs=Q\ndspec q { n = 1; m = 1; d1 x1 = x1 } poly f = u1 +\n", "expected an expression, found 'eof'", 2, None),
    ("\n\n  # comment only\n", "expected 'name', found 'eof'", 4, 1),
    ("", "expected 'name', found 'eof'", 1, 1),
]

# parse_diff_expression over a ring with m=2, n=1, and parse_ratfunc_expression in t
DIFF_EXPRESSION_ERRORS = [
    ("u1 +", "expected an expression, found 'eof'", 1, 5),
    ("u1 $", "unexpected character '$'", 1, 4),
    ("d3*u1", "derivation index 3 exceeds m=2", 1, 1),
    ("u1 u1", "unexpected trailing input 'u1'", 1, 4),
    ("(u1", "expected ')', found 'eof'", 1, 4),
    ("u1/u1", "division by a nonconstant expression is not allowed here", 1, 3),
    ("u1/0", "division by zero", 1, 3),
    ("\nu1 +\n u2", "unknown symbol 'u2' in a differential polynomial (names: u1)", 3, 2),
    ("u1\n/(1-1)", "division by zero", 2, 1),
    ("", "expected an expression, found 'eof'", 1, 1),
    ("x", "unknown symbol 'x' in a differential polynomial (names: u1)", 1, 1),
]

RATFUNC_EXPRESSION_ERRORS = [
    ("1/(t-t)", "division by zero", 1, 2),
    ("t +", "expected an expression, found 'eof'", 1, 4),
    ("t t", "unexpected trailing input 't'", 1, 3),
    ("(t", "expected ')', found 'eof'", 1, 3),
    ("x", "unknown symbol 'x' in a rational function (names: t1, t)", 1, 1),
    ("t^y", "expected 'number', found 'y'", 1, 3),
    ("", "expected an expression, found 'eof'", 1, 1),
    ("2/0", "division by zero", 1, 2),
    ("1/\n(t - t)", "division by zero", 1, 2),
]


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
def test_parse_error_table(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize("text, message, line, col", DIFF_EXPRESSION_ERRORS)
def test_diff_expression_error_table(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_diff_expression(text, DiffContext(2, 1))
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize("text, message, line, col", RATFUNC_EXPRESSION_ERRORS)
def test_ratfunc_expression_error_table(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_ratfunc_expression(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


# ---------- constant folding against direct arithmetic ----------
#
# A tree is ("num", n), ("name", slot), ("neg", a), ("par", a), ("pow", a, k)
# or (op, a, b) for op in add, sub, mul, div; a divisor is constant, though
# it may spell names that cancel.  The oracle evaluates a tree with the
# arithmetic of the values themselves, every number a constant of the
# context and nothing folded.

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYMBOLS = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def _tree(rng, depth, names=True):
    if depth == 0 or rng.random() < 0.25:
        if names and rng.random() < 0.45:
            return ("name", rng.randrange(2))
        return ("num", rng.randint(0, 9))
    op = rng.choice(("add", "sub", "mul", "div", "neg", "pow", "par"))
    if op in ("neg", "par"):
        return (op, _tree(rng, depth - 1, names))
    if op == "pow":
        return (op, _tree(rng, depth - 1, names), rng.randint(0, 3))
    if op == "div":
        return (op, _tree(rng, depth - 1, names), _divisor(rng, depth - 1))
    return (op, _tree(rng, depth - 1, names), _tree(rng, depth - 1, names))


def _divisor(rng, depth):
    constant = _tree(rng, depth, names=False)
    if rng.random() < 0.2:
        cancels = _tree(rng, min(depth, 2))
        return ("add", ("par", ("sub", cancels, cancels)), constant)
    return constant


def _text(tree, names, slashes, out, level=0):
    """Append tree to the string list out with the fewest brackets the
    grammar needs; slashes collects the offset of each '/', in text order."""
    kind = tree[0]
    if kind == "num":
        out.append(str(tree[1]))
        return
    if kind == "name":
        out.append(names[tree[1]])
        return
    if kind == "par":
        out.append("(")
        _text(tree[1], names, slashes, out)
        out.append(")")
        return
    own = _PRECEDENCE[kind]
    bracket = own < level
    if bracket:
        out.append("(")
    if kind == "neg":
        out.append("-")
        _text(tree[1], names, slashes, out, 3)
    elif kind == "pow":
        _text(tree[1], names, slashes, out, 5)
        out.append(f"^{tree[2]}")
    else:
        _text(tree[1], names, slashes, out, own)
        if kind == "div":
            slashes.append(len("".join(out)))
        out.append(_SYMBOLS[kind])
        _text(tree[2], names, slashes, out, own + 1)
    if bracket:
        out.append(")")


class _ZeroDivisor(Exception):
    """Division by zero at the k-th '/' of the text, k = args[0]."""


def _evaluate(tree, names, const, slashes=None):
    """The value of tree; slashes counts the '/' passed in text order."""
    slashes = [0] if slashes is None else slashes
    kind = tree[0]
    if kind == "num":
        return const(tree[1])
    if kind == "name":
        return names[tree[1]]()
    if kind == "par":
        return _evaluate(tree[1], names, const, slashes)
    if kind == "neg":
        return -_evaluate(tree[1], names, const, slashes)
    if kind == "pow":
        return _evaluate(tree[1], names, const, slashes) ** tree[2]
    a = _evaluate(tree[1], names, const, slashes)
    if kind == "div":
        slash = slashes[0]
        slashes[0] += 1
    b = _evaluate(tree[2], names, const, slashes)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    body = getattr(b, "body", b)
    assert body.is_constant()
    if body.is_zero():
        raise _ZeroDivisor(slash)
    return a * (1 / body.constant_value())


def _trees(rng, count=200):
    """count trees: every fourth made of numbers only, every fourth a
    difference of a tree with itself, which cancels to zero."""
    for k in range(count):
        if k % 4 == 0:
            yield _tree(rng, 4, names=False)
        elif k % 4 == 1:
            tree = _tree(rng, 3)
            yield ("sub", tree, ("par", tree))
        else:
            yield _tree(rng, 4)


_FIELD_SIG = ("x1", "x2")
_ODE_SIG = ("t", "x", "y")
_RING = DiffContext(1, 1, coeff_gens=1)

# per context: the file around the expression, the line and prefix of the
# expression, the names of the two slots, the values they and the numbers
# stand for, and the value the file makes of the expression
_CONTEXTS = {
    "dspec": (
        "m=1 n=1 coeffs=Q\ndspec q {{\n n = 2\n m = 1\n d1 x1 = {}\n d1 x2 = 0\n}}\n",
        5,
        " d1 x1 = ",
        ("x1", "x2"),
        [partial(MultiPoly.var, _FIELD_SIG, v) for v in _FIELD_SIG],
        partial(MultiPoly.const, _FIELD_SIG),
        lambda prob: prob.dspecs["q"].fields[0][0],
    ),
    "ode": (
        "m=1 n=1 coeffs=Q\node E = {}\n",
        2,
        "ode E = ",
        ("x", "y"),
        [partial(MultiPoly.var, _ODE_SIG, v) for v in ("x", "y")],
        partial(MultiPoly.const, _ODE_SIG),
        lambda prob: prob.odes["E"].poly,
    ),
    "poly": (
        "m=1 n=1 coeffs=Q(t1)\npoly f = {}\n",
        2,
        "poly f = ",
        ("u1", "t"),
        [partial(_RING.u, 1), partial(_RING.t, 1)],
        _RING.const,
        lambda prob: prob.polys["f"].body,
    ),
}


@pytest.mark.parametrize("context", sorted(_CONTEXTS))
def test_folded_constants_match_direct_arithmetic(rng, context):
    template, line, prefix, names, values, const, read = _CONTEXTS[context]
    zero_divisors = cancelled = 0
    for tree in _trees(rng):
        out, slashes = [], []
        _text(tree, names, slashes, out)
        text = "".join(out)
        try:
            expected = _evaluate(tree, values, const)
        except _ZeroDivisor as exc:
            zero_divisors += 1
            with pytest.raises(ParseError) as caught:
                parse_system(template.format(text))
            col = len(prefix) + slashes[exc.args[0]] + 1
            assert (caught.value.message, caught.value.line, caught.value.col) == (
                "division by zero", line, col,
            ), text
            continue
        body = getattr(expected, "body", expected)
        if context == "ode":
            if body.is_zero():
                cancelled += 1
                with pytest.raises(ParseError, match="the defining polynomial must be nonzero"):
                    parse_system(template.format(text))
                continue
            body = OdePoly(body, tvars=("t",)).poly
        cancelled += body.is_zero()
        got = read(parse_system(template.format(text)))
        assert (got.vars, got.terms) == (body.vars, body.terms), text
    # the draw covers both special cases
    assert zero_divisors and cancelled
