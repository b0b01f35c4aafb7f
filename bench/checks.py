"""Output checks that do not trust the code under test.

Every job's JSON output is compared against facts fixed by the workload
generator (leaders, levels, removable points, expected solution sets) and
re-verified in sympy, which the program does not use:

* prolong / dimfn / extract-dvariety: dimensions against |B_t|, counted here
  from the leader exponents; the fiber dimension against |B_{l+1}| - |B_l|.
* solve-ode: every solution substituted into P(x, x') = 0.
* darboux / integrals: every pair (f, K) checked by sum F_j df/dx_j = K f,
  every integral by sum F_j df/dx_j = 0, and the sets against closed forms.
* reduce: the certificate re-expanded with u_j as functions of x_1..x_m and
  theta applied by sympy.diff; the remainder checked to be reduced.

`check(job, text)` returns None when the output is right, else the reason.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

import sympy
from sympy.polys.rings import ring

T = sympy.Symbol("t")
XS = sympy.symbols("x1 x2")
_LOCALS = {"t": T, "x1": XS[0], "x2": XS[1], "x": sympy.Symbol("x"), "y": sympy.Symbol("y")}


def check(job, text):
    try:
        doc = json.loads(text)
        spec = job["check"]
        return _CHECKS[spec["kind"]](spec, doc["results"], doc)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"check raised {type(exc).__name__}: {exc}"


def _expr(text):
    return sympy.sympify(text.replace("^", "**"), locals=_LOCALS, rational=True)


# ---------- initial-set counting, independent of the program ----------


def _count(spec, t):
    """|B_t|: derivatives of order <= t that are no derivative of a leader."""
    m, total = spec["m"], 0
    for j in range(1, spec["n"] + 1):
        leaders = spec["leaders"].get(str(j), [])
        for alpha in product(range(t + 1), repeat=m):
            if sum(alpha) <= t and not any(all(a >= e for a, e in zip(alpha, lead)) for lead in leaders):
                total += 1
    return total


def _check_prolong(spec, res, doc):
    t = spec["t"]
    frame = spec["n"] * sympy.binomial(t + spec["m"], spec["m"])
    if res["level"] != t or len(res["frame"]) != frame:
        return f"level {res['level']} / frame size {len(res['frame'])}, expected {t} / {frame}"
    want = _count(spec, t)
    if res["saturated_dimension"] != want:
        return f"saturated dimension {res['saturated_dimension']}, |B_{t}| = {want}"
    return None


def _check_extract(spec, res, doc):
    level = spec["level"]
    if res["level"] != level or res["level_breakdown"]["removable"] != spec["removable"]:
        return f"level {res['level']} removable {res['level_breakdown']['removable']}"
    want = _count(spec, level + 1) - _count(spec, level)
    if res["fiber_dimension"] != want or len(res["fiber_basis"]) != want:
        return f"fiber dimension {res['fiber_dimension']}, expected {want}"
    return None


def _check_dimfn(spec, res, doc):
    for t in range(spec["max_t"] + 1):
        want = _count(spec, t)
        if res["table"][t] != {"t": t, "count": want}:
            return f"table row {res['table'][t]}, |B_{t}| = {want}"
        oracle = res["oracle_dimensions"][t]
        if oracle != (None if t < spec["top_order"] else want):
            return f"oracle dimension {oracle} at t={t}, expected {want}"
    if res["oracle_agrees"] is not True:
        return "oracle_agrees is not true"
    return None


# ---------- rational solutions ----------


def _height(expr):
    num, den = sympy.fraction(sympy.cancel(expr))
    return max(sympy.degree(num, T), sympy.degree(den, T))


def _check_solve(spec, res, doc):
    ode = _expr(spec["ode"])
    x, y = _LOCALS["x"], _LOCALS["y"]
    sols = []
    for sol in res["solutions"]:
        g = _expr(sol["x"])
        if sympy.cancel(ode.subs({x: g, y: sympy.diff(g, T)}, simultaneous=True)) != 0:
            return f"{sol['x']} does not solve {spec['ode']} = 0"
        if _height(g) != sol["height"] or sol["height"] > spec["deg"]:
            return f"height of {sol['x']} is {_height(g)}, reported {sol['height']}"
        sols.append(g)
    family, deg = spec["family"], spec["deg"]
    if family == "riccati":
        if res["observed_bound"] != 1 or len(sols) < 2 or any("failed" in n for n in res["notes"]):
            return f"riccati: observed bound {res['observed_bound']}, {len(sols)} solutions"
    elif family == "square":
        if res["observed_bound"] != (2 if deg >= 2 else 0) or len(sols) < (2 if deg >= 2 else 1):
            return f"square: observed bound {res['observed_bound']}, {len(sols)} solutions"
    elif sols != [0]:
        return f"growth: solutions {res['solutions']}, expected only 0"
    return None


# ---------- Darboux polynomials and first integrals ----------


def _lie(fields, f):
    return sum(F * sympy.diff(f, xj) for F, xj in zip(fields, XS))


def _proportional(f, g):
    ratio = sympy.cancel(f / g)
    return ratio != 0 and ratio.is_number


def _check_darboux(spec, res, doc):
    fields = [_expr(s) for s in spec["fields"]]
    found = []
    for r in res["results"]:
        f, k = _expr(r["polynomial"]), _expr(r["cofactors"][0])
        if sympy.expand(_lie(fields, f) - k * f) != 0:
            return f"({r['polynomial']}, {r['cofactors'][0]}) is no Darboux pair"
        found.append((f, k))
    if res["count"] != len(found):
        return "count does not match the result list"
    expected = _expected_darboux(spec)
    if expected is None:
        return None
    if len(found) != len(expected):
        return f"{len(found)} Darboux polynomials, expected {len(expected)}"
    remaining = list(expected)
    for f, k in found:
        match = next((e for e in remaining if _proportional(f, e[0]) and sympy.expand(k - e[1]) == 0), None)
        if match is None:
            return f"unexpected Darboux pair ({f}, {k})"
        remaining.remove(match)
    return None


def _monomials(d):
    return [(i, total - i) for total in range(1, d + 1) for i in range(total, -1, -1)]


def _expected_darboux(spec):
    x1, x2 = XS
    c = [sympy.Rational(v) for v in spec["coeffs"]]
    d = spec["deg"]
    family = spec["family"]
    if family == "rot":
        q = c[1] * x1**2 + c[0] * x2**2
        return [(q**k, 0) for k in range(1, d // 2 + 1)]
    if family == "shear":
        return [(x2**k, k * c[1]) for k in range(1, d + 1)]
    if family == "euler":
        return [(x1**i * x2**j, c[0] * (i + 2 * j)) for i, j in _monomials(d)]
    if family == "lv":
        p, q = c
        return [(x1**i * x2**j, i * (1 - p * x2) + j * (q * x1 - 1)) for i, j in _monomials(d)]
    return None


def _check_integrals(spec, res, doc):
    fields = [_expr(s) for s in spec["fields"]]
    found = [_expr(s) for s in res["results"]]
    for f in found:
        if f.is_number or sympy.cancel(_lie(fields, f)) != 0:
            return f"{f} is no first integral"
    x1, x2 = XS
    c = [sympy.Rational(v) for v in spec["coeffs"]]
    family, half = spec["family"], spec["deg"] // 2
    if family == "rot":
        expected = [(c[1] * x1**2 + c[0] * x2**2) ** k for k in range(1, half + 1)]
    elif family == "euler":
        expected = [(x1**2 / x2) ** k for k in range(1, half + 1)]
    else:
        expected = []
    if len(found) != len(expected) or not all(_proportional(f, e) for f, e in zip(found, expected)):
        return f"integrals {res['results']}, expected {expected}"
    return None


# ---------- Ritt-Kolchin certificates ----------

_INDET = re.compile(r"^((?:d\d+(?:\^\d+)?\*)*)u(\d+)(?:\^(\d+))?$")
_PAREN = re.compile(r"^\(((?:d\d+(?:\^\d+)?\*)*)u(\d+)\)\^(\d+)$")
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")
_DPART = re.compile(r"d(\d+)(?:\^(\d+))?")


def _jet(dparts, var, m):
    theta = [0] * m
    for k, e in _DPART.findall(dparts):
        theta[int(k) - 1] += int(e) if e else 1
    return (int(var), tuple(theta))


def _split_factors(term):
    out, depth, cur = [], 0, ""
    for ch in term:
        if ch == "*" and depth == 0:
            out.append(cur)
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    out.append(cur)
    return out


def parse_printed(text, m):
    """The printer's text of a differential polynomial as {monomial: coeff},
    a monomial being a sorted tuple of ((var, theta), power)."""
    text = text.strip()
    if text == "0":
        return {}
    sign, poly = 1, {}
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for sgn, term in zip(signs, pieces[0::2]):
        coeff, mono = Fraction(sgn), {}
        factors = _split_factors(term)
        i = 0
        while i < len(factors):
            f = factors[i]
            if _NUMBER.match(f):
                coeff *= Fraction(f)
                i += 1
                continue
            match = _PAREN.match(f)
            if match:
                key, power = _jet(match.group(1), match.group(2), m), int(match.group(3))
                i += 1
            else:
                # d-factors run until the u<j> that closes the indeterminate
                j = i
                while not factors[j].startswith("u"):
                    j += 1
                match = _INDET.match("*".join(factors[i:j + 1]))
                if match is None:
                    raise ValueError(f"unreadable factor {'*'.join(factors[i:j + 1])!r}")
                key = _jet(match.group(1), match.group(2), m)
                power = int(match.group(3) or 1)
                i = j + 1
            mono[key] = mono.get(key, 0) + power
        mono = tuple(sorted(mono.items()))
        poly[mono] = poly.get(mono, 0) + coeff
    return {k: v for k, v in poly.items() if v}


def _function_form(spec):
    """x_1..x_m, and names for sympify: u_j as functions of them."""
    xs = sympy.symbols(" ".join(f"x{k}" for k in range(1, spec["m"] + 1)), seq=True)
    local = {f"u{j}": sympy.Function(f"u{j}") for j in range(1, spec["n"] + 1)}
    local.update({str(x): x for x in xs}, Derivative=sympy.Derivative)
    return xs, local


def _to_jets(expr, xs, spec):
    """A sympy expression in u_j(x) and their Derivatives as {monomial: coeff}."""
    subs, names = {}, {}
    for atom in expr.atoms(sympy.Derivative) | expr.atoms(sympy.core.function.AppliedUndef):
        func = atom.expr if isinstance(atom, sympy.Derivative) else atom
        var = int(func.func.__name__[1:])
        theta = [0] * spec["m"]
        if isinstance(atom, sympy.Derivative):
            for x, count in atom.variable_count:
                theta[xs.index(x)] += int(count)
        sym = sympy.Symbol(f"J{var}_{'_'.join(map(str, theta))}")
        subs[atom] = sym
        names[sym] = (var, tuple(theta))
    plain = sympy.expand(expr.xreplace(subs))
    gens = sorted(names, key=str)
    out = {}
    if not gens:
        return {(): Fraction(str(plain))} if plain != 0 else {}
    for monom, coeff in sympy.Poly(plain, *gens).terms():
        key = tuple(sorted((names[g], e) for g, e in zip(gens, monom) if e))
        out[key] = Fraction(int(coeff.p), int(coeff.q))
    return out


def _check_reduce(spec, res, doc):
    m = spec["m"]
    xs, local = _function_form(spec)
    elements = [sympy.sympify(e, locals=local) for e in spec["elements"]]

    def theta_of(f, theta):
        for x, k in zip(xs, theta):
            if k:
                f = sympy.diff(f, x, k)
        return f

    cert = res["certificate"]
    derived = [_to_jets(theta_of(elements[s["element"]], s["theta"]), xs, spec) for s in cert["terms"]]
    base = [_to_jets(e, xs, spec) for e in elements]
    given = parse_printed(res["input"], m)
    target = _to_jets(_target_expr(doc["inputs"]["poly"], xs, local, spec), xs, spec)
    if given != target:
        return "the certificate's input is not the target"
    remainder = parse_printed(res["remainder"], m)
    quotients = [parse_printed(s["quotient"], m) for s in cert["terms"]]

    jets = set()
    for poly in (given, remainder, *quotients, *derived, *base):
        for mono in poly:
            jets.update(key for key, _ in mono)
    jets = sorted(jets)
    index = {key: i for i, key in enumerate(jets)}
    R, *gens = ring([f"J{v}_{'_'.join(map(str, th))}" for v, th in jets] or ["z"], sympy.QQ)

    def to_ring(poly):
        terms = {}
        for mono, coeff in poly.items():
            expo = [0] * len(gens)
            for key, e in mono:
                expo[index[key]] = e
            terms[tuple(expo)] = sympy.QQ(coeff.numerator, coeff.denominator)
        return R.from_dict(terms) if terms else R.zero

    multiplier = R.one
    for i, (var, theta, degree) in enumerate(spec["leaders"]):
        f = to_ring(base[i])
        lead = gens[index[(var, tuple(theta))]]
        separant = f.diff(lead)
        initial = f.coeff_wrt(lead, degree)
        multiplier *= separant ** cert["separant_powers"].get(str(i), 0)
        multiplier *= initial ** cert["initial_powers"].get(str(i), 0)
    rhs = to_ring(remainder)
    for q, d in zip(quotients, derived):
        rhs += to_ring(q) * to_ring(d)
    if multiplier * to_ring(given) != rhs:
        return "certificate does not re-expand"
    for mono in remainder:
        for (var, theta), power in mono:
            for lvar, ltheta, degree in spec["leaders"]:
                if var != lvar:
                    continue
                if tuple(theta) == tuple(ltheta):
                    if power >= degree:
                        return f"remainder has a leader to power {power}"
                elif all(a >= b for a, b in zip(theta, ltheta)):
                    return "remainder has a proper derivative of a leader"
    return None


def _target_expr(text, xs, local, spec):
    """The inline target expression, with u_j and d_k read as sympy."""

    def indet(match):
        dparts, var = match.group(1), match.group(2)
        theta = _jet(dparts, var, spec["m"])[1]
        args = ", ".join(f"{x}, {k}" for x, k in zip(xs, theta) if k)
        call = f"u{var}({', '.join(map(str, xs))})"
        return f"Derivative({call}, {args})" if args else call

    body = re.sub(r"((?:d\d+(?:\^\d+)?\*)*)u(\d+)", indet, text).replace("^", "**")
    return sympy.sympify(body, locals=local, rational=True)


# ---------- ring-reduce side jobs ----------


def _indet_name(var, theta):
    parts = [f"d{k}" if e == 1 else f"d{k}^{e}" for k, e in enumerate(theta, start=1) if e]
    return "*".join(parts + [f"u{var}"])


def _check_analyze(spec, res, doc):
    polys = res["polynomials"]
    if len(polys) != len(spec["leaders"]):
        return f"{len(polys)} polynomials analysed"
    for entry, (var, theta, degree) in zip(polys, spec["leaders"]):
        if (entry["leader"], entry["leading_degree"], entry["order"]) != (
            _indet_name(var, theta), degree, sum(theta)
        ):
            return f"{entry['name']}: leader {entry['leader']}^{entry['leading_degree']}"
    if [s["autoreduced"] for s in res["sets"]] != [True]:
        return "set not reported autoreduced"
    return None


def _check_bound(spec, res, doc):
    if res["l"] != spec["level"] or res["removable"] != spec["removable"]:
        return f"bound {res['l']} removable {res['removable']}"
    return None


def _check_wedge(spec, res, doc):
    statuses = res["statuses"]
    if statuses["refuted"] or sum(statuses.values()) != spec["count"]:
        return f"statuses {statuses}"
    if res["dimension"] != spec["dim"] or res["instances"] != spec["count"]:
        return "wrong dimension or instance count"
    return None


_CHECKS = {
    "prolong": _check_prolong,
    "extract": _check_extract,
    "dimfn": _check_dimfn,
    "solve-ode": _check_solve,
    "darboux": _check_darboux,
    "integrals": _check_integrals,
    "reduce": _check_reduce,
    "analyze": _check_analyze,
    "bound": _check_bound,
    "wedge": _check_wedge,
}
