"""Pinned --json output of the CLI commands that reach the rational solver,
of the prolongation commands and of the Ritt-Kolchin commands.

The fixtures `data/solver_golden/search.dk`, `data/solver_golden/fields.dk`
and `data/prolong_golden/*.dk` hold the coefficients of the benchmark's
prolong-search problem files for seed 1.  Each solver `.json` file on
`search.dk` is the output recorded before the solver was rewritten around
one lex basis per zero-dimensional system; each `.json` file on `fields.dk`
is the output recorded while the eigen path still solved every cofactor
combination anew and first integrals came from a loop over ordered pairs of
Darboux products; each prolongation `.json` file is the output recorded
while the dimension of a saturated prolonged ideal still came from a
second, grevlex basis.  Any
change to the set or the order of the points found, or to a generator,
dimension or fiber datum printed, shows here as a byte difference.

`solver_golden/solve_ode_riccati_d3.json`, one degree above the benchmark's
Riccati ladder, was recorded while every fiber of a sampled family was still
substituted and solved through MultiPoly and Fraction; many of its fibers
have a pivot that occurs in the basis.

`solver_golden/solve_ode_growth_d5.json` (11,196 sampled points, 1
solution) and `solve_ode_square_d4.json` (1,951 points, 6 solutions) were
recorded while every sampled point was still made a RatFunc before it was
checked against the solutions already found.

`solver_golden/integrals_euler_d8.json` and `darboux_rot_d8.json`, at twice
the degree of the other `fields.dk` jobs, were recorded while the eigen path
took the rational roots of one characteristic polynomial of the whole action
matrix (degree 45) and factored through MultiPoly.

`solver_golden/commuting.dk` holds two commuting derivations on 3-space,
x' = (x1, x2, 2*x3) and x' = (x1, 0, x3), which take the eigen path with
several derivations: `darboux_diag3_d2.json` (9 results) and
`integrals_diag3_d3.json` (the one integral (x1*x2)/x3) were recorded while
that path still decomposed each matrix into eigenspaces and, for several
derivations, solved the matrices stacked with their diagonals shifted.

`solver_golden/groebner.dk` holds a field with two derivations and the
energy field x1' = x2, x2' = -x1^2, whose degree-3 search samples a
cofactor family; `prolong_golden/pair.dk` holds two sets with n = 2,
m = 2, in the first of which fiber expressions substitute one another.
Their `.json` files are the output recorded while each undetermined-
coefficient search still built its ansatz and read its points its own way.

`prolong_golden/sqrt2.dk` holds (d1 u1)^2 - 2 u1, whose prolongation at
t = 10 is one lex saturation in twelve variables.  Its `.json` file is the
output recorded while Buchberger's algorithm still skipped pairs by the
coprime and chain criteria alone, with neither the Gebauer-Moeller update
nor interreduced inputs.

`data/reduce_golden/linear.dk` and `nonlinear.dk` are the benchmark's
ring-reduce problem files for seed 1, with its costliest target on each;
`rational.dk` is the nonlinear set with p = 1/2, q = -2/3, so that every
pseudo-division carries denominators.  Each `.json` file there is the
output recorded while pseudo-division still ran on Fraction coefficients
and wedge-check on Fraction vectors.  `reduce_nonlinear_wide.json` reduces
(d1 u1)^300 u2 on `nonlinear.dk`; its degrees pass 255, so no exponent
fits 8 bits.  It was recorded while the reduction still keyed its terms by
exponent tuples.  `wedge_check_d12.json` was recorded while exterior
vectors still stored their terms under index tuples.
"""

import io
from pathlib import Path

import pytest

from delta_kernel.cli import main

DATA = Path(__file__).parent / "data"

SOLVER_JOBS = {
    "solve_ode_growth_d3": ["solve-ode", "search.dk", "--ode", "growth", "--deg", "3"],
    "solve_ode_growth_d5": ["solve-ode", "search.dk", "--ode", "growth", "--deg", "5"],
    "solve_ode_square_d3": ["solve-ode", "search.dk", "--ode", "square", "--deg", "3"],
    "solve_ode_square_d4": ["solve-ode", "search.dk", "--ode", "square", "--deg", "4"],
    "solve_ode_riccati_d2": ["solve-ode", "search.dk", "--ode", "riccati", "--deg", "2"],
    "solve_ode_riccati_d3": ["solve-ode", "search.dk", "--ode", "riccati", "--deg", "3"],
    "darboux_lv_d2": ["darboux", "search.dk", "--dspec", "lv", "--deg", "2"],
    **{
        f"{cmd}_{field}_d4": [cmd, "fields.dk", "--dspec", field, "--deg", "4"]
        for cmd in ("darboux", "integrals")
        for field in ("rot", "shear", "euler")
    },
    "integrals_euler_d8": ["integrals", "fields.dk", "--dspec", "euler", "--deg", "8"],
    "darboux_rot_d8": ["darboux", "fields.dk", "--dspec", "rot", "--deg", "8"],
    "darboux_diag3_d2": ["darboux", "commuting.dk", "--dspec", "diag3", "--deg", "2"],
    "integrals_diag3_d3": ["integrals", "commuting.dk", "--dspec", "diag3", "--deg", "3"],
    "darboux_groebner_pair_d2": [
        "darboux", "groebner.dk", "--dspec", "pair", "--deg", "2", "--method", "groebner",
    ],
    "darboux_groebner_energy_d3": [
        "darboux", "groebner.dk", "--dspec", "energy", "--deg", "3", "--method", "groebner",
    ],
}

PROLONG_JOBS = {
    "prolong_burgers_t4": ["prolong", "burgers.dk", "--set", "S", "--t", "4"],
    "dimfn_burgers_t4": ["dimfn", "burgers.dk", "--set", "S", "--max-t", "4"],
    "extract_sqrt": ["extract-dvariety", "sqrt.dk", "--set", "S"],
    "extract_burgers": ["extract-dvariety", "burgers.dk", "--set", "S"],
    "extract_pair_S": ["extract-dvariety", "pair.dk", "--set", "S"],
    "extract_pair_T": ["extract-dvariety", "pair.dk", "--set", "T"],
    "prolong_sqrt2_t10": ["prolong", "sqrt2.dk", "--set", "S", "--t", "10"],
}

REDUCE_JOBS = {
    "reduce_linear_L6": [
        "reduce", "linear.dk", "(2)*d1^16*d2^16*u1 + (-2)*(u1)^2*d2*u1", "--modulo", "L",
    ],
    "reduce_nonlinear_N5": [
        "reduce", "nonlinear.dk", "(1)*d1^5*u1*d1^5*u2*(d1^4*u1)^3 + (1)*d1*u2", "--modulo", "N",
    ],
    "reduce_rational": [
        "reduce", "rational.dk", "(1/3)*d1^5*u1*(d1^4*u2)^2 + (-5/7)*d1*u2*u1", "--modulo", "N",
    ],
    "reduce_nonlinear_wide": [
        "reduce", "nonlinear.dk", "(d1*u1)^300*u2 + d1^2*u1", "--modulo", "N",
    ],
    "wedge_check_d8": ["wedge-check", "--dim", "8", "--count", "40", "--seed", "159630"],
    "wedge_check_d12": ["wedge-check", "--dim", "12", "--count", "40", "--seed", "7"],
}


def _check(folder, name, argv, monkeypatch):
    # the report echoes the problem path, so run beside the fixture
    monkeypatch.chdir(folder)
    out, err = io.StringIO(), io.StringIO()
    assert main(["--json", *argv], stdout=out, stderr=err) == 0
    assert out.getvalue().encode("utf-8") == (folder / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SOLVER_JOBS))
def test_solver_output_is_byte_identical(name, monkeypatch):
    _check(DATA / "solver_golden", name, SOLVER_JOBS[name], monkeypatch)


@pytest.mark.parametrize("name", sorted(PROLONG_JOBS))
def test_prolongation_output_is_byte_identical(name, monkeypatch):
    _check(DATA / "prolong_golden", name, PROLONG_JOBS[name], monkeypatch)


@pytest.mark.parametrize("name", sorted(REDUCE_JOBS))
def test_reduction_output_is_byte_identical(name, monkeypatch):
    _check(DATA / "reduce_golden", name, REDUCE_JOBS[name], monkeypatch)
