"""Batch command-line front end.

One command per invocation; input is a problem file (or '-' for stdin),
output is text on stdout or, with --json, a single JSON document with the
stable top-level shape {command, inputs, results, assumptions, timings}.
Output is deterministic for a fixed input and seed: the timings object is
left empty unless --timings is passed.

Exit codes: 0 success, 1 usage, 2 parse error, 3 mathematical precondition
failure, 4 internal error (an exact self-check or an internal consistency
check failed).
"""

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from .diffring import AutoreducedSet, indet_name, is_autoreduced, ritt_reduce
from .dvariety import darboux_search, first_integral_search
from .exterior import ExtVector, factorization_implication_check, wedge_all
from .heights import height_ratfunc, rational_solution_search
from .initialsets import dimension_function, leaders_to_exponents, prolongation_bound
from .parser import (
    ParseError,
    parse_diff_expression,
    parse_ratfunc_expression,
    parse_system,
)
from .printer import print_diffpoly, print_integer_terms, print_ratfunc
from .prolongation import extract_dvariety, prolong_ideal
from .solve import SAMPLE_VALUES

DEFAULT_SEED = 20260808

CHARSET_ASSUMPTION = (
    "input set assumed to be a characteristic set; primality/coherence not verified"
)

REPORT_KEYS = ("command", "inputs", "results", "assumptions", "timings")


class UsageError(Exception):
    pass


class MathError(Exception):
    pass


class InternalError(Exception):
    """A result that the mathematics guarantees failed its own check: a bug
    in this package, not in the input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def validate_report(doc):
    """Schema check for emitted JSON documents."""
    if not isinstance(doc, dict):
        raise ValueError("report must be an object")
    if tuple(sorted(doc.keys())) != tuple(sorted(REPORT_KEYS)):
        raise ValueError(f"report keys must be exactly {REPORT_KEYS}")
    if not isinstance(doc["command"], str):
        raise ValueError("command must be a string")
    if not isinstance(doc["inputs"], dict):
        raise ValueError("inputs must be an object")
    if not isinstance(doc["results"], dict):
        raise ValueError("results must be an object")
    if not isinstance(doc["assumptions"], list) or not all(
        isinstance(a, str) for a in doc["assumptions"]
    ):
        raise ValueError("assumptions must be a list of strings")
    if not isinstance(doc["timings"], dict):
        raise ValueError("timings must be an object")
    return True


def _report(command, inputs, results, assumptions, timings=None):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "assumptions": list(assumptions),
        "timings": dict(timings or {}),
    }


def _frac(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _need(problem, table, name, what):
    if name not in table:
        raise MathError(f"no {what} named {name!r} in the problem file")
    return table[name]


def _field_on_affine_space(problem, name):
    """The dspec named name, refused when it declares an ideal: the Darboux
    and first-integral searches act on every monomial of Q[x1..xn], not on
    the coordinate ring of V, so on a variety they would miss elements and
    report ones that are constant there."""
    spec = _need(problem, problem.dspecs, name, "dspec")
    if spec.ideal_gens:
        raise MathError(
            f"dspec {name!r} declares an ideal; Darboux and first-integral "
            "searches run on affine space only"
        )
    return spec


def _load_aset(problem, name):
    polys = _need(problem, problem.sets, name, "set")
    try:
        return AutoreducedSet(polys)
    except ValueError as exc:
        raise MathError(str(exc))


# ---------- command implementations ----------


def _cmd_analyze(args, problem):
    results = {"polynomials": [], "sets": [], "dspecs": [], "odes": []}
    names = [args.name] if args.name else None
    for kind, name in problem.order:
        if names and name not in names:
            continue
        if kind == "dspec":
            spec = problem.dspecs[name]
            results["dspecs"].append(
                {
                    "name": name,
                    "ambient_dimension": spec.nvars,
                    "derivations": spec.nder,
                    "commuting": spec.commuting_witness() is None,
                }
            )
            continue
        if kind == "ode":
            ode = problem.odes[name]
            results["odes"].append(
                {
                    "name": name,
                    "text": ode.poly.to_str(),
                    "degree_in_x": ode.degree_in_x(),
                    "experimental": ode.experimental,
                }
            )
            continue
        if kind == "poly":
            f = problem.polys[name]
            entry = {"name": name, "text": print_diffpoly(f)}
            if f.is_in_coeff_field():
                entry["constant"] = True
            else:
                entry.update(
                    {
                        "leader": indet_name(f.leader()),
                        "order": f.order(),
                        "leading_degree": f.leading_degree(),
                        "separant": print_diffpoly(f.separant()),
                        "initial": print_diffpoly(f.initial()),
                    }
                )
            results["polynomials"].append(entry)
        elif kind == "set":
            polys = problem.sets[name]
            ok, witness = is_autoreduced(polys)
            entry = {
                "name": name,
                "elements": [print_diffpoly(p) for p in polys],
                "autoreduced": ok,
            }
            if not ok:
                entry["violation"] = witness[2]
            results["sets"].append(entry)
    if names and not any(results.values()):
        raise MathError(f"nothing named {args.name!r} to analyze")
    return _report("analyze", _inputs(args), results, [CHARSET_ASSUMPTION])


def _cmd_bound(args, problem):
    aset = _load_aset(problem, args.set)
    b = prolongation_bound(aset)
    results = {
        "l": b.level,
        "l1": b.from_orders,
        "l2": b.from_removable,
        "removable": [[*p.theta, p.var] for p in b.removable],
        "note": "level beyond which codimension-one dimension deficits are stable",
    }
    return _report("bound", _inputs(args, set=args.set), results, [CHARSET_ASSUMPTION])


def _cmd_dimfn(args, problem):
    aset = _load_aset(problem, args.set)
    rep = leaders_to_exponents(aset)
    df = dimension_function(rep, args.max_t)
    cross = []
    for t in range(args.max_t + 1):
        if t < aset.max_order():
            cross.append(None)
            continue
        pid = prolong_ideal(aset, t)
        cross.append(pid.dimension())
    agree = all(c is None or c == v for c, v in zip(cross, df.values))
    results = {
        "table": [{"t": t, "count": v} for t, v in enumerate(df.values)],
        "oracle_dimensions": cross,
        "oracle_agrees": agree,
        "eventual_polynomial": (
            [_frac(c) for c in df.polynomial] if df.polynomial else None
        ),
        "stable_from": df.stable_from,
    }
    return _report(
        "dimfn",
        _inputs(args, set=args.set, max_t=args.max_t),
        results,
        [CHARSET_ASSUMPTION],
    )


def _cmd_prolong(args, problem):
    aset = _load_aset(problem, args.set)
    if args.t < aset.max_order():
        raise MathError(
            f"level {args.t} is below the maximum defining order {aset.max_order()}"
        )
    pid = prolong_ideal(aset, args.t)
    results = {
        "level": pid.level,
        "frame": [indet_name(v) for v in pid.frame],
        "generators": [
            {
                "text": g.to_str(),
                "from_element": idx,
                "theta": list(theta),
            }
            for g, (idx, theta) in zip(pid.generators, pid.provenance)
        ],
        "separants": [s.to_str() for s in pid.separants],
        "saturated_dimension": pid.dimension(),
        "note": "dimension of the separant-saturated ideal",
    }
    return _report(
        "prolong",
        _inputs(args, set=args.set, t=args.t),
        results,
        [CHARSET_ASSUMPTION],
    )


def _cmd_extract(args, problem):
    aset = _load_aset(problem, args.set)
    try:
        data = extract_dvariety(aset)
    except ValueError as exc:
        raise MathError(str(exc))
    results = {
        "level": data.level,
        "level_breakdown": {
            "l1": data.bound.from_orders,
            "l2": data.bound.from_removable,
            "removable": [[*p.theta, p.var] for p in data.bound.removable],
        },
        "variety_generators": [g.to_str() for g in data.variety.generators],
        "fiber_dimension": data.fiber_dim,
        "fiber_basis": [indet_name(v) for v in data.fibers.basis_coords],
        "fiber_expressions": {
            indet_name(v): expr.to_str()
            for v, expr in sorted(
                data.fibers.expressions.items(), key=lambda kv: kv[0].rank_key()
            )
        },
        "note": "affine fibers valid off the separant zero locus",
    }
    return _report(
        "extract-dvariety",
        _inputs(args, set=args.set),
        results,
        [CHARSET_ASSUMPTION],
    )


def _cmd_darboux(args, problem):
    spec = _field_on_affine_space(problem, args.dspec)
    found, warnings = darboux_search(spec, args.deg, method=args.method)
    results = {
        "warnings": warnings,
        "degree_bound": args.deg,
        "count": len(found),
        "results": [
            {
                "polynomial": r.polynomial.to_str(),
                "cofactors": [c.to_str() for c in r.cofactors],
                "degree": r.degree,
                "irreducibility": r.irreducibility,
                "irreducible": r.irreducible,
            }
            for r in found
        ],
        "note": "each polynomial satisfies delta_k f = K_k f exactly; counts are per canonical basis element up to the stated degree",
    }
    return _report(
        "darboux",
        _inputs(args, dspec=args.dspec, deg=args.deg, method=args.method),
        results,
        ["multivariate irreducibility not checked; univariate results factored exactly"],
    )


def _cmd_integrals(args, problem):
    spec = _field_on_affine_space(problem, args.dspec)
    found = first_integral_search(spec, args.deg)
    results = {
        "degree_bound": args.deg,
        "count": len(found),
        "results": [print_ratfunc(f) for f in found],
        "note": "nonconstant rational functions killed by every derivation",
    }
    return _report(
        "integrals",
        _inputs(args, dspec=args.dspec, deg=args.deg),
        results,
        ["search is complete for polynomial integrals and Darboux-product ratios up to the degree bound"],
    )


def _cmd_height(args, problem):
    g = parse_ratfunc_expression(args.expr)
    results = {
        "expression": print_ratfunc(g),
        "height": height_ratfunc(g),
        "note": "max(deg numerator, deg denominator) in lowest terms",
    }
    return _report("height", {"expr": args.expr}, results, [])


def _cmd_solve_ode(args, problem):
    ode = _need(problem, problem.odes, args.ode, "ode")
    if args.deg < 0:
        raise MathError("degree bound must be nonnegative")
    rep = rational_solution_search(ode, args.deg)
    results = {
        "degree_bound": rep.degree_bound,
        "observed_bound": rep.observed_bound,
        "solutions": [
            {"x": print_ratfunc(g), "height": h} for g, h in rep.solutions
        ],
        "families_by_shape": {
            f"({a},{b})": c for (a, b), c in sorted(rep.families.items())
        },
        "strata": [
            {
                "p_degree": s.p_degree,
                "q_degree": s.q_degree,
                "coefficient_ideal": s.groebner,
                "dimension": s.dimension,
                "complete": s.exact,
                "free_parameters": s.free_count,
            }
            for s in rep.strata
        ],
        "experimental": rep.experimental,
        "notes": rep.notes,
    }
    assumptions = [
        "rational solutions over Q only; algebraic solutions out of scope",
        f"positive-dimensional solution families sampled on {','.join(map(str, SAMPLE_VALUES))}",
    ]
    if rep.experimental:
        assumptions.append("multivariate coefficient field: experimental pipeline")
    return _report(
        "solve-ode", _inputs(args, ode=args.ode, deg=args.deg), results, assumptions
    )


def _cmd_reduce(args, problem):
    aset = _load_aset(problem, args.modulo)
    if args.poly in problem.polys:
        g = problem.polys[args.poly]
    else:
        g = parse_diff_expression(args.poly, problem.ctx)
    res = ritt_reduce(g, aset)
    ok = res.verify()
    if not ok:
        raise InternalError("certificate failed to re-expand")
    results = {
        "input": print_diffpoly(g),
        "remainder": print_integer_terms(*res.packed_remainder.integer_terms()),
        "certificate": {
            "separant_powers": {str(k): v for k, v in sorted(res.sep_powers.items())},
            "initial_powers": {str(k): v for k, v in sorted(res.init_powers.items())},
            "terms": [
                {
                    "element": s.element,
                    "theta": list(s.theta),
                    "quotient": print_integer_terms(*s.packed_quotient.integer_terms()),
                }
                for s in res.steps
            ],
            "verified": ok,
        },
        "note": "multiplier * input = sum(quotient * derived element) + remainder, exactly",
    }
    return _report(
        "reduce",
        _inputs(args, poly=args.poly, modulo=args.modulo),
        results,
        [CHARSET_ASSUMPTION],
    )


def _cmd_wedge_check(args, problem):
    rng = random.Random(args.seed)
    dim = args.dim
    statuses = {"confirmed": 0, "vacuous": 0, "trivial": 0, "precondition_failed": 0, "refuted": 0}
    examples = []
    for i in range(args.count):
        ell = rng.randint(2, max(2, dim - 1))
        alphas = [_random_vector(rng, dim) for _ in range(ell)]
        # omega: wedge of random combinations inside the span of the alphas
        parts = []
        for _ in range(rng.randint(1, ell)):
            v = ExtVector.zero(dim, 1)
            for a in alphas:
                v = v + a.scaled(rng.randint(-2, 2))
            parts.append(v)
        omega = wedge_all(parts)
        beta = ExtVector.zero(dim, 1)
        for a in alphas:
            beta = beta + a.scaled(rng.randint(-2, 2))
        verdict = factorization_implication_check(alphas, omega, beta)
        statuses[verdict.status] += 1
        if len(examples) < 3:
            examples.append({"instance": i, "status": verdict.status, "detail": verdict.detail})
    if statuses["refuted"]:
        raise InternalError("an implication instance failed; this cannot happen")
    results = {
        "dimension": dim,
        "instances": args.count,
        "statuses": statuses,
        "examples": examples,
        "note": "decomposable form annihilating a frame is divisible by it: instance checks",
    }
    return _report(
        "wedge-check",
        {"dim": dim, "count": args.count, "seed": args.seed},
        results,
        [],
    )


def _random_vector(rng, dim):
    # integer entries: every wedge of the battery multiplies Python ints
    coeffs = {}
    for i in range(1, dim + 1):
        c = rng.randint(-3, 3)
        if c:
            coeffs[(i,)] = c
    return ExtVector(dim, 1, coeffs)


def _inputs(args, **extra):
    out = {}
    if getattr(args, "file", None):
        out["file"] = args.file if args.file != "-" else "<stdin>"
    out.update({k: v for k, v in extra.items() if v is not None})
    return out


# ---------- rendering ----------


def _render_text(doc, out):
    print(f"== {doc['command']} ==", file=out)
    for key, value in sorted(doc["inputs"].items()):
        print(f"input {key}: {value}", file=out)
    _render_value(doc["results"], out, indent=0)
    for a in doc["assumptions"]:
        print(f"assumption: {a}", file=out)


def _render_value(value, out, indent, key=None):
    pad = "  " * indent
    label = f"{key}: " if key else ""
    if isinstance(value, dict):
        if key:
            print(f"{pad}{key}:", file=out)
        for k in sorted(value):
            _render_value(value[k], out, indent + (1 if key else 0), k)
    elif isinstance(value, list):
        if not value:
            print(f"{pad}{label}[]", file=out)
            return
        if all(not isinstance(x, (dict, list)) for x in value):
            print(f"{pad}{label}{', '.join(str(x) for x in value)}", file=out)
            return
        print(f"{pad}{key}:", file=out)
        for x in value:
            _render_value(x, out, indent + 1, "-")
    else:
        print(f"{pad}{label}{value}", file=out)


# ---------- argument wiring ----------


def _int_at_least(low):
    """argparse type: an integer no smaller than low, else a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# built once per process: parsing never mutates the parser, and main runs
# once per job in a long-lived batch process
@functools.cache
def build_parser():
    parser = _Parser(
        prog="delta-kernel",
        description="exact differential-algebra workbench (batch commands)",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument(
        "--timings", action="store_true", help="record wall-clock timings (breaks byte determinism)"
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, needs_file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_file:
            p.add_argument("file", help="problem file, or - for stdin")
        return p

    p = add("analyze", help="leaders, ranks, separants, autoreduced verdicts")
    p.add_argument("--name", help="restrict to one named object")

    p = add("bound", help="prolongation level bound with breakdown")
    p.add_argument("--set", required=True)

    p = add("dimfn", help="dimension-count table with oracle cross-check")
    p.add_argument("--set", required=True)
    p.add_argument("--max-t", type=_int_at_least(0), required=True, dest="max_t")

    p = add("prolong", help="prolonged ideal generators and saturated dimension")
    p.add_argument("--set", required=True)
    p.add_argument("--t", type=int, required=True)

    p = add("extract-dvariety", help="variety plus affine fiber data at the level bound")
    p.add_argument("--set", required=True)

    p = add("darboux", help="Darboux polynomials up to a degree bound")
    p.add_argument("--dspec", required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--method", choices=("auto", "eigen", "groebner"), default="auto")

    p = add("integrals", help="rational first integrals up to a degree bound")
    p.add_argument("--dspec", required=True)
    p.add_argument("--deg", type=int, required=True)

    p = add("height", needs_file=False, help="height of a rational function of t")
    p.add_argument("expr")

    p = add("solve-ode", help="bounded-degree rational solutions and observed height bound")
    p.add_argument("--ode", required=True)
    p.add_argument("--deg", type=int, required=True)

    p = add("reduce", help="partial remainder with an exact certificate")
    p.add_argument("poly", help="polynomial name or inline expression")
    p.add_argument("--modulo", required=True)

    p = add("wedge-check", needs_file=False, help="exterior-algebra lemma instance battery")
    p.add_argument("--dim", type=_int_at_least(1), default=4)
    p.add_argument("--count", type=_int_at_least(0), default=50)
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="instance seed (default: DELTA_KERNEL_SEED or a fixed constant)",
    )
    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "bound": _cmd_bound,
    "dimfn": _cmd_dimfn,
    "prolong": _cmd_prolong,
    "extract-dvariety": _cmd_extract,
    "darboux": _cmd_darboux,
    "integrals": _cmd_integrals,
    "height": _cmd_height,
    "solve-ode": _cmd_solve_ode,
    "reduce": _cmd_reduce,
    "wedge-check": _cmd_wedge_check,
}


def run_command(command, args, problem):
    """Dispatch one parsed command; returns the report document."""
    handler = _HANDLERS[command]
    started = time.monotonic()
    doc = handler(args, problem)
    if getattr(args, "timings", False):
        doc["timings"]["total_seconds"] = round(time.monotonic() - started, 6)
    validate_report(doc)
    return doc


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (try --help)")
        if args.command == "wedge-check" and args.seed is None:
            args.seed = int(os.environ.get("DELTA_KERNEL_SEED", DEFAULT_SEED))
        problem = None
        if getattr(args, "file", None) is not None:
            if args.file == "-":
                text = sys.stdin.read()
            else:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            problem = parse_system(text)
        doc = run_command(args.command, args, problem)
    except UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=stderr)
        return 4
    except (MathError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    except OSError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True), file=stdout)
    else:
        _render_text(doc, stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
