"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line (visible with ``pytest -s`` or on failure) naming
the criterion, the measured worst residual, its bound, and PASS/FAIL.
Criteria with runtime budgets are timed.
"""

import os
import subprocess
import sys
import time

import numpy as np

from kreinshift.checks import (
    DEFAULT_SEED,
    check_averaging,
    check_chain,
    check_det_route,
    check_example39,
    check_fd_identities,
    check_inverse_identities,
    check_logm_roundtrip,
    check_op_average,
    check_oracle_equivalence,
    check_reconstruction,
    check_trace_formula,
    check_trace_identities,
)

SEED = DEFAULT_SEED


def report(criterion: str, lines, elapsed: float | None = None, budget: float | None = None):
    ok = all(line.ok for line in lines)
    if elapsed is not None and budget is not None:
        ok = ok and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s / budget {budget:.0f}s]" if elapsed is not None else ""
    print(f"\n{status} {criterion}{timing}")
    for line in lines:
        print("   " + line.render())
    assert ok, f"{criterion} failed"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    lines = check_oracle_equivalence(SEED)
    assert lines[0].note.startswith("20 instances, >= 50 points")
    report(
        "criterion 1: operator route equals counting oracle (20 instances, >=50 points)",
        lines,
        time.time() - t0,
        60.0,
    )


def test_criterion_02_trace_formula():
    t0 = time.time()
    lines = check_trace_formula(SEED)
    assert lines[0].note.startswith("10 instances x 10 points")
    report(
        "criterion 2: resolvent trace formula residual < 1e-8 relative",
        lines,
        time.time() - t0,
        10.0,
    )


def test_criterion_03_determinant_route():
    lines = check_det_route(SEED)
    assert lines[0].note.startswith("20 instances")
    report("criterion 3: determinant route equals counting oracle", lines)


def test_criterion_04_operator_logarithm():
    t0 = time.time()
    lines = check_logm_roundtrip(SEED)
    assert lines[0].note.startswith("50 draws")
    report(
        "criterion 4: exp(log T) = T and 0 <= Im log T <= pi (50 dissipative draws)",
        lines,
        time.time() - t0,
        30.0,
    )


def test_criterion_05_inverse_identities():
    lines = check_inverse_identities(SEED)
    assert lines[0].note.startswith("20 draws")
    report("criterion 5: closed-form inverses within 1e-10", lines)


def test_criterion_06_trace_of_perturbation():
    lines = check_trace_identities(SEED)
    assert lines[0].note.startswith("20 instances")
    report("criterion 6: tr(V) equals shift integral; L1 bound holds", lines)


def test_criterion_07_derivative_identities():
    lines = check_fd_identities(SEED)
    assert lines[0].note.startswith("10 instances")
    report("criterion 7: traced-log derivative identities at 5 z-points", lines)


def test_criterion_08_chain_and_monotonicity():
    lines = check_chain(SEED)
    assert lines[0].note.startswith("10 instances")
    report("criterion 8: chain rule and monotonicity", lines)


def test_criterion_09_worked_example():
    lines = check_example39(SEED)
    report("criterion 9: 2x2 counterexample to operator monotonicity", lines)


def test_criterion_10_spectral_averaging():
    t0 = time.time()
    lines = check_averaging(SEED)
    assert lines[0].note.startswith("10 instances")
    report(
        "criterion 10: weak averaging identity (indefinite directions)",
        lines,
        time.time() - t0,
        120.0,
    )


def test_criterion_11_operator_averaging():
    lines = check_op_average(SEED)
    assert lines[0].note.startswith("5 instances")
    report("criterion 11: operator averaging and increment consistency", lines)


def test_criterion_12_herglotz_reconstruction():
    lines = check_reconstruction(SEED)
    assert lines[0].note.startswith("5 draws")
    report("criterion 12: block logarithm rebuilt from the shift operator", lines)


def test_criterion_13_determinism_across_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "kreinshift.cli", "check", "all", "--seed", str(SEED)],
            capture_output=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1]
    status = "PASS" if identical else "FAIL"
    print(f"\n{status} criterion 13: byte-identical check reports at 1 and 2 BLAS threads")
    assert identical


def test_full_profile_invariants_random_instance():
    # belt-and-braces: the profile invariants on one seeded instance
    from kreinshift.generators import random_pair
    from kreinshift.herglotz import HerglotzFamily
    from kreinshift.shift import compute_profile, safe_grid

    rng = np.random.default_rng(SEED + 9001)
    h0, v = random_pair(rng, 5, 7)
    fam = HerglotzFamily.from_potential(h0, v)
    prof = compute_profile(fam, safe_grid(fam, 50), include_det=True)
    assert np.all(np.abs(prof.xi - (prof.xi_plus - prof.xi_minus)) <= 1e-8)
    assert np.all(np.abs(prof.xi - prof.xi_oracle) <= 1e-6)
    assert np.all(np.abs(prof.xi_det - prof.xi_oracle) <= 1e-6)
    assert np.all(prof.converged)
    print("\nPASS profile invariants on a seeded random instance")
