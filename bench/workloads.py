"""Seeded inputs for the benchmark workloads.

`build(workload, seed)` returns the problem files (name -> text) and the job
list the program sees.  The seed picks nonzero rational coefficients, the
ring-reduce targets, the wedge-check instance seed and the job order.  It never
changes a leader, a separant shape or an initial-set structure, so every job
keeps the structural facts written here by hand; `checks.py` compares the
program's output against them.  Nothing in this module imports the program.

Each job is a dict:
    id      stable name, independent of the seed
    argv    the CLI arguments (without --json, which the worker adds)
    check   what the output must satisfy (kind plus parameters)
    ladder  name of the size ladder the job belongs to, or None
    rung    position on that ladder (the largest rung is the ladder's top)
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("prolong-search", "ring-reduce")

# Small magnitudes keep the cost of a job nearly independent of the seed;
# the exact arithmetic still sees different numbers on every seed.
_MAGNITUDES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
# Where a coefficient's divisors feed a rational-root search, larger
# numerators and denominators multiply the candidates and the cost: the
# growth ODE's rate keeps to 1, 2, 1/2, the Euler field's scale to 1, 1/2
# (a scale of 2 already triples the time of a degree-4 search, 3 makes it
# thirty times slower).
_GROWTH = (Fraction(1), Fraction(2), Fraction(1, 2))
_EULER = (Fraction(1), Fraction(1, 2))
# Ritt-Kolchin certificates multiply out powers of the separants and
# initials, and the Lotka-Volterra search solves a bilinear system, so their
# cost follows the coefficients' heights: keep to 1, 2.
_LOW = (Fraction(1), Fraction(2))


def _positive(rng, magnitudes=_MAGNITUDES):
    return rng.choice(magnitudes)


def _nonzero(rng, magnitudes=_MAGNITUDES):
    return _positive(rng, magnitudes) * rng.choice((1, -1))


def _q(c):
    """A rational as problem-file text, bracketed so it can multiply a term."""
    c = Fraction(c)
    text = str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"
    return f"(-{text})" if c < 0 else f"({text})"


def _job(jobs, jid, argv, check, ladder=None, rung=None):
    jobs.append({"id": jid, "argv": argv, "check": check, "ladder": ladder, "rung": rung})


# ---------- prolong-search: prolongation ladders ----------

# name, m, n, leader exponents per dependent variable, top order, level,
# removable points, ladder of prolongation levels, dimfn max level
_TOWER = (
    ("heat", 2, 1, {1: [(2, 0)]}, 2, 2, [], range(2, 6), 3),
    ("wave", 2, 1, {1: [(2, 0), (0, 2)]}, 2, 2, [[1, 1, 1]], range(2, 5), 3),
    ("sqrt", 1, 1, {1: [(1,)]}, 1, 1, [[0, 1]], range(1, 7), 5),
    ("cbrt", 1, 1, {1: [(1,)]}, 1, 1, [[0, 1]], range(1, 7), 5),
    ("burgers", 2, 1, {1: [(0, 1)]}, 1, 1, [], range(1, 3), 2),
)


def _tower_files(rng):
    c = {name: _nonzero(rng) for name in ("heat", "sqrt", "cbrt", "burgers")}
    a, b = _nonzero(rng), _nonzero(rng)
    files = {
        "heat.dk": f"m=2 n=1 coeffs=Q\npoly h = d2*u1 - {_q(c['heat'])}*d1^2*u1\nset S = h\n",
        "wave.dk": (
            "m=2 n=1 coeffs=Q\n"
            f"poly w1 = d1^2*u1 - {_q(a)}*u1\n"
            f"poly w2 = d2^2*u1 - {_q(b)}*u1\n"
            "set S = w1, w2\n"
        ),
        "sqrt.dk": f"m=1 n=1 coeffs=Q\npoly f = (d1*u1)^2 - {_q(c['sqrt'])}*u1\nset S = f\n",
        "cbrt.dk": f"m=1 n=1 coeffs=Q\npoly f = (d1*u1)^3 - {_q(c['cbrt'])}*u1\nset S = f\n",
        "burgers.dk": f"m=2 n=1 coeffs=Q\npoly f = (d2*u1)^2 - {_q(c['burgers'])}*d1*u1\nset S = f\n",
    }
    return files


def _tower_jobs():
    jobs = []
    for name, m, n, leaders, top, level, removable, ladder, max_t in _TOWER:
        shape = {"m": m, "n": n, "leaders": {str(j): [list(e) for e in es] for j, es in leaders.items()}}
        path = f"{name}.dk"
        for rung, t in enumerate(ladder):
            _job(jobs, f"prolong:{name}:t{t}", ["prolong", path, "--set", "S", "--t", str(t)],
                 {"kind": "prolong", "t": t, **shape}, ladder=name, rung=rung)
        _job(jobs, f"extract:{name}", ["extract-dvariety", path, "--set", "S"],
             {"kind": "extract", "level": level, "removable": removable, **shape})
        _job(jobs, f"dimfn:{name}", ["dimfn", path, "--set", "S", "--max-t", str(max_t)],
             {"kind": "dimfn", "max_t": max_t, "top_order": top, **shape})
    return jobs


# ---------- prolong-search: rational and Darboux searches ----------


def _search_files(rng):
    r, s, e = _nonzero(rng), _nonzero(rng), _nonzero(rng, _GROWTH)
    rot_a, rot_b = _positive(rng), _positive(rng)
    sh_a, sh_b = _nonzero(rng), _nonzero(rng)
    eu = _nonzero(rng, _EULER)
    lv_p, lv_q = _positive(rng, _LOW), _positive(rng, _LOW)
    coeffs = {
        "riccati": r, "square": s, "growth": e,
        "rot": (rot_a, rot_b), "shear": (sh_a, sh_b), "euler": eu, "lv": (lv_p, lv_q),
    }
    text = (
        "m=1 n=1 coeffs=Q\n"
        f"ode riccati = y + {_q(r)}*x^2\n"
        f"ode square = y^2 - {_q(s)}*x\n"
        f"ode growth = y - {_q(e)}*x\n"
        f"dspec rot {{\n  n = 2\n  m = 1\n  d1 x1 = -{_q(rot_a)}*x2\n  d1 x2 = {_q(rot_b)}*x1\n}}\n"
        f"dspec shear {{\n  n = 2\n  m = 1\n  d1 x1 = {_q(sh_a)}\n  d1 x2 = {_q(sh_b)}*x2\n}}\n"
        f"dspec euler {{\n  n = 2\n  m = 1\n  d1 x1 = {_q(eu)}*x1\n  d1 x2 = {_q(2 * eu)}*x2\n}}\n"
        f"dspec lv {{\n  n = 2\n  m = 1\n  d1 x1 = x1 - {_q(lv_p)}*x1*x2\n  d1 x2 = {_q(lv_q)}*x1*x2 - x2\n}}\n"
    )
    return {"search.dk": text}, coeffs


def _search_jobs(coeffs):
    jobs = []

    def frac(c):
        return str(Fraction(c))

    fields = {
        "rot": [f"-{frac(coeffs['rot'][0])}*x2", f"{frac(coeffs['rot'][1])}*x1"],
        "shear": [frac(coeffs["shear"][0]), f"{frac(coeffs['shear'][1])}*x2"],
        "euler": [f"{frac(coeffs['euler'])}*x1", f"{frac(2 * coeffs['euler'])}*x2"],
        "lv": [f"x1 - {frac(coeffs['lv'][0])}*x1*x2", f"{frac(coeffs['lv'][1])}*x1*x2 - x2"],
    }
    odes = {
        "riccati": f"y + {frac(coeffs['riccati'])}*x**2",
        "square": f"y**2 - {frac(coeffs['square'])}*x",
        "growth": f"y - {frac(coeffs['growth'])}*x",
    }
    for name, degrees in (("riccati", range(1, 3)), ("square", range(1, 4)), ("growth", (3,))):
        for rung, d in enumerate(degrees):
            _job(jobs, f"solve-ode:{name}:D{d}", ["solve-ode", "search.dk", "--ode", name, "--deg", str(d)],
                 {"kind": "solve-ode", "ode": odes[name], "family": name, "deg": d},
                 ladder=name, rung=rung)
    # The eigen-path searches start at degree 1: those cheap jobs, whose cost
    # no coefficient moves, put the median job of the workload among them
    # rather than among the few searches whose cost follows the seed.
    for name in ("rot", "shear", "euler"):
        for rung, d in enumerate(range(1, 5)):
            _job(jobs, f"darboux:{name}:d{d}", ["darboux", "search.dk", "--dspec", name, "--deg", str(d)],
                 {"kind": "darboux", "family": name, "deg": d, "fields": fields[name],
                  "coeffs": [frac(c) for c in _flat(coeffs[name])]},
                 ladder=f"darboux-{name}", rung=rung)
            _job(jobs, f"integrals:{name}:d{d}", ["integrals", "search.dk", "--dspec", name, "--deg", str(d)],
                 {"kind": "integrals", "family": name, "deg": d, "fields": fields[name],
                  "coeffs": [frac(c) for c in _flat(coeffs[name])]},
                 ladder=f"integrals-{name}", rung=rung)
    for rung, d in enumerate(range(1, 3)):
        _job(jobs, f"darboux:lv:d{d}", ["darboux", "search.dk", "--dspec", "lv", "--deg", str(d)],
             {"kind": "darboux", "family": "lv", "deg": d, "fields": fields["lv"],
              "coeffs": [frac(c) for c in coeffs["lv"]]},
             ladder="darboux-lv", rung=rung)
    return jobs


def _flat(c):
    return c if isinstance(c, tuple) else (c,)


# ---------- ring-reduce ----------

# Leaders as [dependent variable, theta, leading degree], in the order of the
# elements (increasing rank): the linear pair d1^2 u1, d2^2 u1 and the
# nonlinear set with leaders d1 u1 (degree 2) and d1 u2 (degree 1).
_RING_SETS = {
    "L": {"m": 2, "n": 1, "leaders": [[1, [2, 0], 1], [1, [0, 2], 1]]},
    "N": {"m": 1, "n": 2, "leaders": [[1, [1], 2], [2, [1], 1]]},
}

# Leading monomials of the reduce targets, as (var, theta, power) factors,
# cheapest first.  The leading monomial fixes the cost; the seed picks every
# coefficient and a low-order tail.  The linear targets (20-50 ms each) are
# many enough that the median job of the workload is one of them, not
# whichever job falls in the gap between the cheap and the costly ones.
_LINEAR_SHAPES = (
    [(1, (8, 8), 1), (1, (0, 7), 2)],
    [(1, (9, 11), 1)],
    [(1, (10, 9), 2)],
    [(1, (11, 10), 1), (1, (2, 5), 2)],
    [(1, (12, 12), 2), (1, (3, 0), 1)],
    [(1, (14, 13), 1)],
    [(1, (16, 16), 1)],
)
_NONLINEAR_SHAPES = (
    [(1, (4,), 2), (2, (4,), 2)],
    [(2, (5,), 3)],
    [(1, (6,), 1), (2, (6,), 1)],
    [(1, (5,), 2)],
    [(1, (5,), 2), (2, (5,), 1)],
    [(1, (5,), 1), (2, (5,), 1), (1, (4,), 3)],
)


def _indet_text(var, theta):
    parts = []
    for k, e in enumerate(theta, start=1):
        if e == 1:
            parts.append(f"d{k}")
        elif e > 1:
            parts.append(f"d{k}^{e}")
    parts.append(f"u{var}")
    return "*".join(parts)


def _target(rng, shape, m, n):
    terms = [list(shape)]
    tail = []
    for _ in range(rng.randint(1, 2)):
        var = rng.randint(1, n)
        theta = tuple(rng.randint(0, 1) for _ in range(m))
        tail.append((var, theta, rng.randint(1, 2)))
    terms.append(tail)
    pieces = []
    for mono in terms:
        factors = [f"({_indet_text(v, th)})^{p}" if p > 1 else _indet_text(v, th) for v, th, p in mono]
        pieces.append(f"{_q(_nonzero(rng, _LOW))}*" + "*".join(factors))
    return " + ".join(pieces)


def _ring_files(rng):
    a, b = _nonzero(rng, _LOW), _nonzero(rng, _LOW)
    p, q = _nonzero(rng, _LOW), _nonzero(rng, _LOW)
    files = {
        "linear.dk": (
            "m=2 n=1 coeffs=Q\n"
            f"poly f1 = d1^2*u1 - {_q(a)}*u1\n"
            f"poly f2 = d2^2*u1 - {_q(b)}*u1\n"
            "set L = f1, f2\n"
        ),
        "nonlinear.dk": (
            "m=1 n=2 coeffs=Q\n"
            f"poly f1 = (d1*u1)^2 - {_q(p)}*u2\n"
            f"poly f2 = d1*u2 - {_q(q)}*u1*u2 + 1\n"
            "set N = f1, f2\n"
        ),
    }
    elements = {
        "L": [f"Derivative(u1(x1, x2), x1, 2) - {Fraction(a)}*u1(x1, x2)",
              f"Derivative(u1(x1, x2), x2, 2) - {Fraction(b)}*u1(x1, x2)"],
        "N": [f"Derivative(u1(x1), x1)**2 - {Fraction(p)}*u2(x1)",
              f"Derivative(u2(x1), x1) - {Fraction(q)}*u1(x1)*u2(x1) + 1"],
    }
    return files, elements


def _ring_jobs(rng, elements):
    jobs = []
    for set_name, file, shapes in (("L", "linear.dk", _LINEAR_SHAPES), ("N", "nonlinear.dk", _NONLINEAR_SHAPES)):
        info = _RING_SETS[set_name]
        for i, shape in enumerate(shapes):
            target = _target(rng, shape, info["m"], info["n"])
            _job(jobs, f"reduce:{set_name}:{i}", ["reduce", file, target, "--modulo", set_name],
                 {"kind": "reduce", "elements": elements[set_name], **info},
                 ladder=f"reduce-{set_name}", rung=i)
    wedge_seed = rng.randrange(1, 10**6)
    for rung, dim in enumerate((6, 8)):
        _job(jobs, f"wedge-check:dim{dim}",
             ["wedge-check", "--dim", str(dim), "--count", "40", "--seed", str(wedge_seed + dim)],
             {"kind": "wedge", "dim": dim, "count": 40}, ladder="wedge", rung=rung)
    for set_name, file in (("L", "linear.dk"), ("N", "nonlinear.dk")):
        _job(jobs, f"analyze:{set_name}", ["analyze", file],
             {"kind": "analyze", **_RING_SETS[set_name]})
        _job(jobs, f"bound:{set_name}", ["bound", file, "--set", set_name],
             {"kind": "bound", **_RING_SETS[set_name],
              "level": 2 if set_name == "L" else 1,
              "removable": [[1, 1, 1]] if set_name == "L" else [[0, 1], [0, 2]]})
    return jobs


def build(workload, seed):
    """Problem files and the seeded job list for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "prolong-search":
        files, coeffs = _search_files(rng)
        files.update(_tower_files(rng))
        jobs = _tower_jobs() + _search_jobs(coeffs)
    else:
        files, elements = _ring_files(rng)
        jobs = _ring_jobs(rng, elements)
    rng.shuffle(jobs)
    return files, jobs


def top_rungs(jobs):
    """Ids of the largest job on each ladder."""
    best = {}
    for job in jobs:
        if job["ladder"] is not None:
            cur = best.get(job["ladder"])
            if cur is None or job["rung"] > cur["rung"]:
                best[job["ladder"]] = job
    return sorted(j["id"] for j in best.values())
