import argparse
import gc
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from delta_kernel import cli, dvariety
from delta_kernel.cli import build_parser, main, validate_report
from delta_kernel.diffring import DiffContext, ReductionResult
from delta_kernel.exterior import LemmaVerdict
from delta_kernel.linalg import ExactMatrix
from delta_kernel.parser import (
    ParseError,
    parse_diff_expression,
    parse_system,
)
from delta_kernel.printer import print_diffpoly

from conftest import random_diffpoly

PROBLEM = """\
m=2 n=1 coeffs=Q
poly f1 = d1^2*u1 - u1
poly f2 = d2^2*u1 - u1
poly g  = d1*d2*u1 + u1^2
set L = f1, f2

dspec rot {
  n = 2
  m = 1
  d1 x1 = -x2
  d1 x2 = x1
}

dspec shear {
  n = 2
  m = 1
  d1 x1 = 1
  d1 x2 = x2
}

ode P = y + x^2
ode Q = y - x
"""


@pytest.fixture
def problem_path(tmp_path):
    path = tmp_path / "problem.dk"
    path.write_text(PROBLEM, encoding="utf-8")
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_header_and_names(self):
        prob = parse_system(PROBLEM)
        assert prob.ctx.m == 2 and prob.ctx.n == 1
        assert prob.names() == ["f1", "f2", "g", "L", "rot", "shear", "P", "Q"]

    def test_direct_construction_example(self):
        ctx = DiffContext(1, 1)
        f = parse_diff_expression("d1^2*u1 - u1", ctx)
        assert f == ctx.d(1, ctx.u(), 2) - ctx.u()

    def test_derivation_index_error_position(self):
        ctx = DiffContext(2, 1)
        with pytest.raises(ParseError) as err:
            parse_diff_expression("d3*u1", ctx)
        assert "derivation index 3 exceeds m=2" in err.value.message
        assert err.value.col == 1

    def test_malformed_exponent(self):
        ctx = DiffContext(1, 1)
        with pytest.raises(ParseError):
            parse_diff_expression("d1^*u1", ctx)

    def test_print_parse_fixed_point(self):
        ctx = DiffContext(1, 1)
        f = parse_diff_expression("(d1*u1)^2 - u1", ctx)
        assert print_diffpoly(f) == "(d1*u1)^2 - u1"

    def test_round_trip_random(self, rng):
        for _ in range(120):
            m = rng.randint(1, 3)
            n = rng.randint(1, 2)
            ctx = DiffContext(m, n)
            f = random_diffpoly(rng, ctx)
            text = print_diffpoly(f)
            assert parse_diff_expression(text, ctx) == f

    def test_duplicate_names_rejected(self):
        bad = "m=1 n=1 coeffs=Q\npoly a = u1\npoly a = u1 + 1\n"
        with pytest.raises(ParseError):
            parse_system(bad)

    def test_unknown_set_member(self):
        bad = "m=1 n=1 coeffs=Q\nset L = nope\n"
        with pytest.raises(ParseError):
            parse_system(bad)


class TestCommands:
    def test_bound_example(self, problem_path):
        code, out, err = run(["--json", "bound", problem_path, "--set", "L"])
        assert code == 0, err
        doc = json.loads(out)
        validate_report(doc)
        assert doc["results"]["l"] == 2
        assert doc["results"]["l1"] == 2
        assert doc["results"]["l2"] == 2
        assert doc["results"]["removable"] == [[1, 1, 1]]
        assert any("characteristic set" in a for a in doc["assumptions"])

    def test_height_example(self):
        code, out, _ = run(["--json", "height", "(t^2+1)/(t-1)"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["height"] == 2

    def test_darboux_example(self, problem_path):
        code, out, _ = run(["--json", "darboux", problem_path, "--dspec", "rot", "--deg", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count"] == 1
        entry = doc["results"]["results"][0]
        assert entry["polynomial"] == "x1^2 + x2^2"
        assert entry["cofactors"] == ["0"]

    def test_analyze(self, problem_path):
        code, out, _ = run(["--json", "analyze", problem_path])
        doc = json.loads(out)
        assert code == 0
        leaders = {p["name"]: p.get("leader") for p in doc["results"]["polynomials"]}
        assert leaders["f1"] == "d1^2*u1"
        sets = {s["name"]: s["autoreduced"] for s in doc["results"]["sets"]}
        assert sets["L"] is True

    def test_dimfn_cross_check(self, problem_path):
        code, out, _ = run(["--json", "dimfn", problem_path, "--set", "L", "--max-t", "4"])
        doc = json.loads(out)
        assert code == 0
        assert [row["count"] for row in doc["results"]["table"]] == [1, 3, 4, 4, 4]
        assert doc["results"]["oracle_agrees"] is True

    def test_prolong(self, problem_path):
        code, out, _ = run(["--json", "prolong", problem_path, "--set", "L", "--t", "3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["saturated_dimension"] == 4

    def test_extract(self, problem_path):
        code, out, _ = run(["--json", "extract-dvariety", problem_path, "--set", "L"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["level"] == 2
        assert doc["results"]["fiber_dimension"] == 0

    def test_integrals(self, problem_path):
        code, out, _ = run(["--json", "integrals", problem_path, "--dspec", "shear", "--deg", "3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["count"] == 0

    def test_reduce_with_certificate(self, problem_path):
        code, out, _ = run(["--json", "reduce", problem_path, "d1^4*u1", "--modulo", "L"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["remainder"] == "u1"
        assert doc["results"]["certificate"]["verified"] is True

    def test_solve_ode(self, problem_path):
        code, out, _ = run(["--json", "solve-ode", problem_path, "--ode", "Q", "--deg", "2"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["observed_bound"] == 0
        assert [s["x"] for s in doc["results"]["solutions"]] == ["0"]

    def test_wedge_check(self):
        code, out, _ = run(["--json", "wedge-check", "--count", "20", "--seed", "7"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["statuses"]["refuted"] == 0
        total = sum(doc["results"]["statuses"].values())
        assert total == 20

    def test_analyze_covers_dspecs_and_odes(self, problem_path):
        code, out, _ = run(["--json", "analyze", problem_path, "--name", "rot"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["dspecs"][0]["commuting"] is True

    def test_experimental_partial_ode(self, tmp_path):
        path = tmp_path / "partial.dk"
        path.write_text(
            "m=1 n=1 coeffs=Q(t1..t2)\node E = y1 - y2\n",
            encoding="utf-8",
        )
        code, out, _ = run(["--json", "solve-ode", str(path), "--ode", "E", "--deg", "1"])
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["experimental"] is True
        assert "t1 + t2" in {s["x"] for s in doc["results"]["solutions"]}

    def test_darboux_nonlinear_warning_surface(self, tmp_path):
        path = tmp_path / "quad.dk"
        path.write_text(
            "m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n d1 x1 = x1^2\n}\n",
            encoding="utf-8",
        )
        code, out, _ = run(["--json", "darboux", str(path), "--dspec", "q", "--deg", "2"])
        doc = json.loads(out)
        assert code == 0
        polys = {r["polynomial"] for r in doc["results"]["results"]}
        assert "x1" in polys


BELOW_ORDER = "is below the maximum defining order 2"


class TestExitCodes:
    def test_usage_error(self):
        code, _, err = run(["no-such-command"])
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize(
        "flags", [["--dim", "0"], ["--dim", "-3"], ["--count", "-2"], ["--dim", "x"]]
    )
    def test_invalid_wedge_check_size(self, flags):
        code, out, err = run(["--json", "wedge-check", *flags])
        assert code == 1 and "usage error" in err and out == ""
        assert flags[0] in err

    def test_negative_dimfn_level(self, problem_path):
        code, out, err = run(["--json", "dimfn", problem_path, "--set", "L", "--max-t", "-1"])
        assert code == 1 and "usage error" in err and out == ""
        assert "--max-t" in err

    def test_dimfn_level_zero(self, problem_path):
        code, out, _ = run(["--json", "dimfn", problem_path, "--set", "L", "--max-t", "0"])
        assert code == 0 and json.loads(out)["results"]["table"] == [{"count": 1, "t": 0}]

    def test_smallest_wedge_check_sizes(self):
        code, out, _ = run(["--json", "wedge-check", "--dim", "1", "--count", "0"])
        results = json.loads(out)["results"]
        assert code == 0 and results["dimension"] == 1 and results["instances"] == 0

    def test_missing_command(self):
        code, _, err = run([])
        assert code == 1

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.dk"
        path.write_text("m=1 n=1 coeffs=Q\npoly f = d9*u1\n", encoding="utf-8")
        code, _, err = run(["analyze", str(path)])
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize(
        "body, line",
        [
            (["d1 x1 = x1", "ideal"], 6),
            (["d1"], 5),
            (["d1 x1"], 5),
            (["d1 x1 = x1", "d2 x1 = x1"], 6),
            (["d1 x1 = x1", "d1 x7 = x1"], 6),
            (["d1 x1 = x1", "d1 x1 = 2*x1"], 6),
            (["d1 x1 ="], 5),
            (["n = 3", "d1 x1 = x1"], 5),
            (["d1 x1 = x1", "m = 1"], 6),
            (["d1 x1 = x1", "ideal = x1", "ideal = x1^2"], 7),
            (["d1 x1 = x1", "ideal = ,"], 6),
            (["d1 x1 = x1", "ideal = x1,,x1^2"], 6),
            (["d1 x1 = x1", "ideal = x1,"], 6),
        ],
        ids=[
            "truncated-ideal",
            "truncated-d",
            "truncated-dx",
            "derivation-outside-m",
            "variable-outside-n",
            "repeated-clause",
            "empty-field",
            "repeated-n",
            "repeated-m",
            "repeated-ideal",
            "ideal-of-a-comma",
            "ideal-with-a-gap",
            "ideal-with-a-trailing-comma",
        ],
    )
    def test_bad_dspec_clause_names_its_line(self, tmp_path, body, line):
        text = "m=1 n=1 coeffs=Q\ndspec q {\n n = 1\n m = 1\n"
        text += "".join(f" {clause}\n" for clause in body) + "}\n"
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert exc.value.line == line
        path = tmp_path / "bad.dk"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["analyze", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and f"at line {line}" in err

    @pytest.mark.parametrize("statement", ["poly f =", "ode E =", "poly f = (u1"])
    def test_expression_cut_short_names_its_line(self, statement):
        with pytest.raises(ParseError) as exc:
            parse_system(f"m=1 n=1 coeffs=Q\n\n{statement}\n")
        assert exc.value.line == 3

    def test_math_precondition_error(self, tmp_path):
        path = tmp_path / "notauto.dk"
        path.write_text(
            "m=1 n=1 coeffs=Q\npoly a = d1*u1 - u1\npoly b = d1^2*u1\nset L = a, b\n",
            encoding="utf-8",
        )
        code, _, err = run(["bound", str(path), "--set", "L"])
        assert code == 3 and "error" in err

    @pytest.mark.parametrize(
        "clauses",
        [
            # the circle: x1^2 + x2^2 is constant on V, not a first integral
            ["n = 2", "d1 x1 = -x2", "d1 x2 = x1", "ideal = x1^2 + x2^2 - 1"],
            # 2 x x' = 1 in (t, x, y): x2^2 - x1 is an integral on V
            ["n = 3", "d1 x1 = 2*x2", "d1 x2 = 2*x2*x3", "d1 x3 = -2*x3^2",
             "ideal = 2*x2*x3 - 1"],
        ],
        ids=["circle", "surface"],
    )
    @pytest.mark.parametrize("command", ["darboux", "integrals"])
    def test_searches_refuse_a_dspec_with_an_ideal(self, tmp_path, clauses, command):
        path = tmp_path / "variety.dk"
        body = "".join(f"  {c}\n" for c in ["m = 1", *clauses])
        path.write_text(f"m=1 n=1 coeffs=Q\ndspec v {{\n{body}}}\n", encoding="utf-8")
        code, out, err = run(["--json", command, str(path), "--dspec", "v", "--deg", "2"])
        assert (code, out) == (3, "")
        assert err == (
            "error: dspec 'v' declares an ideal; Darboux and first-integral "
            "searches run on affine space only\n"
        )

    def test_not_autoreduced_names_indeterminates(self, tmp_path):
        # the violation text names indeterminates as the printer does, the
        # same on every run: in analyze's JSON and in the error of a command
        # that loads the set
        path = tmp_path / "notauto.dk"
        path.write_text(
            "m=1 n=2 coeffs=Q\npoly g = d1^3*u1\n"
            "poly a = d1*u1 - u2\npoly b = d1^2*u1\nset S = a, b\n"
            "poly c = (d1*u1)^2 - u2\npoly e = d1*u1 - 3\nset T = c, e\n",
            encoding="utf-8",
        )
        derivative = "proper derivative d1^2*u1 of leader d1*u1 occurs"
        degree = "leader d1*u1 occurs with degree 2 >= 1"
        code, out, _ = run(["--json", "analyze", str(path)])
        sets = json.loads(out)["results"]["sets"]
        assert code == 0 and [s["violation"] for s in sets] == [derivative, degree]
        for name, text in (("S", derivative), ("T", degree)):
            want = f"error: not autoreduced: {text} (elements 0, 1)\n"
            assert run(["reduce", str(path), "g", "--modulo", name]) == (3, "", want)
            assert run(["bound", str(path), "--set", name]) == (3, "", want)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["darboux", "--dspec", "rot", "--deg", "0"], "degree bound must be at least 1"),
            (["integrals", "--dspec", "rot", "--deg", "0"], "degree bound must be at least 1"),
            (
                ["darboux", "--dspec", "q", "--deg", "2", "--method", "eigen"],
                "eigenproblem path needs every field of degree <= 1",
            ),
        ],
        ids=["darboux-deg-0", "integrals-deg-0", "eigen-on-quadratic"],
    )
    def test_darboux_search_errors(self, tmp_path, argv, message):
        path = tmp_path / "fields.dk"
        path.write_text(
            PROBLEM + "dspec q {\n n = 1\n m = 1\n d1 x1 = x1^2\n}\n", encoding="utf-8"
        )
        command, *flags = argv
        code, out, err = run([command, str(path), *flags])
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-ode", "--ode", "P", "--deg", "-1"], "degree bound must be nonnegative"),
            (["prolong", "--set", "L", "--t", "1"], f"level 1 {BELOW_ORDER}"),
            (["prolong", "--set", "L", "--t", "-1"], f"level -1 {BELOW_ORDER}"),
            # d1 u = u with d2 u = u^2 is autoreduced but incoherent
            (
                ["extract-dvariety", "--set", "I"],
                "non-characteristic input: oracle dimension jump -1 != 0",
            ),
        ],
        ids=["negative-degree", "level-below-order", "negative-level", "incoherent-set"],
    )
    def test_library_precondition_errors(self, tmp_path, argv, message):
        # the libraries' ValueErrors print as the CLI's own checks did
        path = tmp_path / "pre.dk"
        path.write_text(
            PROBLEM + "poly i1 = d1*u1 - u1\npoly i2 = d2*u1 - u1^2\nset I = i1, i2\n",
            encoding="utf-8",
        )
        command, *flags = argv
        assert run([command, str(path), *flags]) == (3, "", f"error: {message}\n")

    def test_missing_file(self):
        code, _, err = run(["analyze", "/nonexistent/path.dk"])
        assert code == 1

    def test_problem_file_is_closed(self, problem_path):
        # a handle left for the garbage collector to close warns when it goes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(["--json", "analyze", problem_path])
            gc.collect()
        assert code == 0
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_certificate_that_fails_to_verify_is_internal(self, problem_path, monkeypatch):
        monkeypatch.setattr(ReductionResult, "verify", lambda self: False)
        code, out, err = run(["reduce", problem_path, "d1^4*u1", "--modulo", "L"])
        assert code == 4 and "internal error" in err and out == ""

    def test_refuted_wedge_instance_is_internal(self, monkeypatch):
        refuted = LemmaVerdict("refuted", "beta ^ gamma = 0 but beta ^ omega != 0")
        monkeypatch.setattr(cli, "factorization_implication_check", lambda *a: refuted)
        code, out, err = run(["wedge-check", "--count", "3", "--seed", "7"])
        assert code == 4 and "internal error" in err and out == ""

    def test_failed_consistency_check_is_internal(self, problem_path, monkeypatch):
        # a derivation matrix that leaves the space trips the eigen path's check
        matrices = dvariety._derivation_matrices

        def leaky(spec, monos):
            (m, rows), *rest = matrices(spec, monos)
            return [(ExactMatrix(m.entries + [[1] * m.cols]), rows), *rest]

        monkeypatch.setattr(dvariety, "_derivation_matrices", leaky)
        code, out, err = run(["darboux", problem_path, "--dspec", "rot", "--deg", "2"])
        assert code == 4 and out == ""
        assert "internal error: degree <= 1 field failed to preserve the space" in err


# each subcommand once with every one of its arguments given; FILE stands
# for the problem file
EVERY_COMMAND = {
    "analyze": (["FILE", "--name", "rot"], {"file": "FILE", "name": "rot"}),
    "bound": (["FILE", "--set", "L"], {"file": "FILE", "set": "L"}),
    "dimfn": (["FILE", "--set", "L", "--max-t", "2"], {"file": "FILE", "set": "L", "max_t": 2}),
    "prolong": (["FILE", "--set", "L", "--t", "2"], {"file": "FILE", "set": "L", "t": 2}),
    "extract-dvariety": (["FILE", "--set", "L"], {"file": "FILE", "set": "L"}),
    "darboux": (
        ["FILE", "--dspec", "rot", "--deg", "1", "--method", "groebner"],
        {"file": "FILE", "dspec": "rot", "deg": 1, "method": "groebner"},
    ),
    "integrals": (
        ["FILE", "--dspec", "rot", "--deg", "1"], {"file": "FILE", "dspec": "rot", "deg": 1}
    ),
    "height": (["1/(t-3)"], {"expr": "1/(t-3)"}),
    "solve-ode": (["FILE", "--ode", "Q", "--deg", "1"], {"file": "FILE", "ode": "Q", "deg": 1}),
    "reduce": (
        ["FILE", "d1^3*u1", "--modulo", "L"], {"file": "FILE", "poly": "d1^3*u1", "modulo": "L"}
    ),
    "wedge-check": (
        ["--dim", "3", "--count", "2", "--seed", "5"], {"dim": 3, "count": 2, "seed": 5}
    ),
}


class TestInputs:
    def test_every_command_is_covered(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(EVERY_COMMAND)

    @pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
    def test_inputs_echo_exactly_the_given_arguments(self, problem_path, command):
        args, inputs = EVERY_COMMAND[command]
        argv = ["--json", command, *(problem_path if a == "FILE" else a for a in args)]
        code, out, err = run(argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["command"] == command
        assert doc["inputs"] == {k: problem_path if v == "FILE" else v for k, v in inputs.items()}

    def test_text_output_echoes_analyze_name(self, problem_path):
        code, out, _ = run(["analyze", problem_path, "--name", "rot"])
        assert code == 0 and "input name: rot\n" in out

    @pytest.mark.parametrize("name", ["", "nope"])
    def test_analyze_name_that_matches_nothing(self, problem_path, name):
        # an empty name is a name like any other: it matches no object
        for argv in (["analyze"], ["--json", "analyze"]):
            code, out, err = run([*argv, problem_path, "--name", name])
            assert (code, out) == (3, "")
            assert err == f"error: nothing named {name!r} to analyze\n"

    def test_unset_options_are_left_out_and_defaults_echoed(self, problem_path, monkeypatch):
        code, out, _ = run(["--json", "analyze", problem_path])
        assert code == 0 and json.loads(out)["inputs"] == {"file": problem_path}
        code, out, _ = run(["--json", "darboux", problem_path, "--dspec", "rot", "--deg", "1"])
        assert json.loads(out)["inputs"]["method"] == "auto"
        monkeypatch.setenv("DELTA_KERNEL_SEED", "9")
        code, out, _ = run(["--json", "wedge-check", "--count", "1"])
        assert json.loads(out)["inputs"] == {"dim": 4, "count": 1, "seed": 9}

    def test_stdin_is_echoed_as_a_name(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(PROBLEM))
        code, out, _ = run(["--json", "bound", "-", "--set", "L"])
        assert code == 0 and json.loads(out)["inputs"] == {"file": "<stdin>", "set": "L"}


class TestDeterminism:
    def test_byte_identical_runs(self, problem_path):
        for argv in (
            ["--json", "bound", problem_path, "--set", "L"],
            ["--json", "darboux", problem_path, "--dspec", "rot", "--deg", "2"],
            ["--json", "wedge-check", "--seed", "11", "--count", "15"],
            ["--json", "solve-ode", problem_path, "--ode", "P", "--deg", "1"],
        ):
            code1, out1, _ = run(argv)
            code2, out2, _ = run(argv)
            assert code1 == code2 == 0
            assert out1 == out2

    def test_back_to_back_calls_match_first_calls(self, problem_path, monkeypatch):
        # main reuses one parser across calls; each call must still print
        # what it prints as the first call of a process
        bound = ["--json", "bound", problem_path, "--set", "L"]
        wedge = ["wedge-check", "--count", "5"]

        def first_call(argv):
            build_parser.cache_clear()
            return run(argv)

        monkeypatch.setenv("DELTA_KERNEL_SEED", "3")
        alone = {"bound": first_call(bound), "wedge": first_call(wedge)}
        assert alone["bound"][0] == alone["wedge"][0] == 0
        assert run(bound) == alone["bound"]
        assert run(["bound", problem_path])[0] == 1
        assert run(wedge) == alone["wedge"]
        # the seed default is read at call time, not when the parser is built
        monkeypatch.setenv("DELTA_KERNEL_SEED", "4")
        reseeded = run(wedge)
        assert "input seed: 4" in reseeded[1]
        assert reseeded == first_call(wedge)

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["analyze", "FILE"], ["parse_seconds", "total_seconds"]),
            (["darboux", "FILE", "--dspec", "rot", "--deg", "1"], ["parse_seconds", "total_seconds"]),
            (["height", "1/(t-3)"], ["total_seconds"]),
            (["wedge-check", "--count", "3"], ["total_seconds"]),
        ],
        ids=["analyze", "darboux", "height", "wedge-check"],
    )
    def test_timings_report_the_parse_of_a_problem_file(self, problem_path, argv, keys):
        argv = [problem_path if a == "FILE" else a for a in argv]
        code, out, _ = run(["--json", "--timings", *argv])
        assert code == 0
        timings = json.loads(out)["timings"]
        assert sorted(timings) == keys
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())
        # without --timings the object stays empty
        code, out, _ = run(["--json", *argv])
        assert code == 0 and json.loads(out)["timings"] == {}

    def test_all_reports_validate(self, problem_path):
        for argv in (
            ["--json", "analyze", problem_path],
            ["--json", "bound", problem_path, "--set", "L"],
            ["--json", "dimfn", problem_path, "--set", "L", "--max-t", "3"],
            ["--json", "height", "1/(t-3)"],
            ["--json", "wedge-check", "--count", "5"],
        ):
            code, out, _ = run(argv)
            assert code == 0
            validate_report(json.loads(out))


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up guard: importing the CLI in a fresh interpreter loads
    neither module, compared against what was loaded before the import so
    that whatever `site` brings in does not count."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import delta_kernel.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    loaded = set(done.stdout.split())
    assert "delta_kernel.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
