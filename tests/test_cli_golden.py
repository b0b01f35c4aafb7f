"""Pinned --json output of the CLI commands that reach the rational solver.

The fixture `data/solver_golden/search.dk` holds the coefficients of the
benchmark's prolong-search problem file for seed 1; each `.json` file is
the output recorded before the solver was rewritten around one lex basis
per zero-dimensional system.  Any change to the set or the order of the
points found shows here as a byte difference.
"""

import io
from pathlib import Path

import pytest

from delta_kernel.cli import main

DATA = Path(__file__).parent / "data" / "solver_golden"

JOBS = {
    "solve_ode_growth_d3": ["solve-ode", "search.dk", "--ode", "growth", "--deg", "3"],
    "solve_ode_square_d3": ["solve-ode", "search.dk", "--ode", "square", "--deg", "3"],
    "solve_ode_riccati_d2": ["solve-ode", "search.dk", "--ode", "riccati", "--deg", "2"],
    "darboux_lv_d2": ["darboux", "search.dk", "--dspec", "lv", "--deg", "2"],
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_solver_output_is_byte_identical(name, monkeypatch):
    # the report echoes the problem path, so run beside the fixture
    monkeypatch.chdir(DATA)
    out, err = io.StringIO(), io.StringIO()
    assert main(["--json", *JOBS[name]], stdout=out, stderr=err) == 0
    assert out.getvalue().encode("utf-8") == (DATA / f"{name}.json").read_bytes()
