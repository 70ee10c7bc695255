"""Tests of the benchmark's own answer checks and span bookkeeping.

    python3 bench/selftest.py        (from the root of a checkout, ~15 s)

Each test takes a real answer from the program, confirms that the check
passes it, then corrupts one value and confirms that exactly that
operation is counted as failed.
"""

from __future__ import annotations

import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import answers  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import kreinshift  # noqa: E402
from kreinshift import cli, herglotz, oplog, shift  # noqa: E402
from workloads import write_matrix  # noqa: E402


def _pair(seed=5, n=6, r=4):
    return inputs.pair(np.random.default_rng(seed), n, r, "t")


class XiCsv(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        p = _pair()
        cls.truth = answers.Truth(p)
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            write_matrix(d / "h0.json", p.h0)
            write_matrix(d / "v.json", p.v)
            code = cli.main(["xi", "--h0", str(d / "h0.json"), "--v", str(d / "v.json"),
                             "--out", str(d / "xi.csv")])
            cls.text = (d / "xi.csv").read_text(encoding="utf-8")
        if code != 0:
            raise RuntimeError(f"kreinshift xi exited {code}")
        cls.rows = len(cls.text.splitlines()) - 1

    def corrupt(self, row: int, col: int, fn) -> str:
        lines = self.text.splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = fn(cells[col])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_clean_output_passes(self):
        self.assertEqual(answers.check_xi_csv(self.text, self.truth), (self.rows, 0))

    def test_each_checked_column_catches_a_shift_by_one(self):
        for col in range(1, 6):  # xi, xi_plus, xi_minus, xi_oracle, xi_det
            bad = self.corrupt(7, col, lambda c: repr(float(c) + 1.0))
            self.assertEqual(answers.check_xi_csv(bad, self.truth), (self.rows, 1), col)

    def test_operator_eigenvalue_outside_unit_interval(self):
        bad = self.corrupt(3, 6, lambda c: "1.01")
        self.assertEqual(answers.check_xi_csv(bad, self.truth), (self.rows, 1))

    def test_unconverged_and_nonfinite_rows(self):
        self.assertEqual(answers.check_xi_csv(self.corrupt(2, 12, lambda c: "0"), self.truth),
                         (self.rows, 1))
        self.assertEqual(answers.check_xi_csv(self.corrupt(2, 5, lambda c: "nan"), self.truth),
                         (self.rows, 1))

    def test_point_on_an_eigenvalue_is_not_checkable(self):
        eig = repr(float(self.truth.eh[2]))
        self.assertEqual(answers.check_xi_csv(self.corrupt(4, 0, lambda c: eig), self.truth),
                         (self.rows, 1))

    def test_missing_output(self):
        self.assertEqual(answers.check_xi_csv("", self.truth), (1, 1))


class Profile(unittest.TestCase):
    def test_shifted_value_is_one_failure(self):
        p = _pair(6, 8, 5)
        truth = answers.Truth(p)
        fam = herglotz.HerglotzFamily.from_potential(p.h0, p.v)
        prof = shift.compute_profile(fam, shift.auto_grid(fam))
        n = len(prof.grid)
        self.assertEqual(answers.check_profile(prof, truth), (n, 0))
        prof.xi[5] += 1.0
        self.assertEqual(answers.check_profile(prof, truth), (n, 1))
        prof.xi[5] -= 1.0
        prof.xi_op_minus_eigs[9] = prof.xi_op_minus_eigs[9] - 0.01
        self.assertEqual(answers.check_profile(prof, truth), (n, 1))


class Logarithms(unittest.TestCase):
    def test_own_exponential(self):
        a = np.diag([0.3 + 2.0j, -1.0 + 0.5j, 4.0])
        self.assertLess(np.abs(answers.expm(a) - np.diag(np.exp(np.diag(a)))).max(), 1e-12)

    def test_logarithm_perturbed_by_1e_6(self):
        rng = np.random.default_rng(3)
        for im_rank in (0, 2, 5):
            t = inputs.dissipative(rng, 5, im_rank)
            log_t = oplog.logm_dissipative(t)
            self.assertTrue(answers.logm_ok(t, log_t))
            bad = log_t.copy()
            bad[1, 2] += 1e-6
            self.assertFalse(answers.logm_ok(t, bad), im_rank)

    def test_imaginary_part_beyond_pi(self):
        t = -np.eye(3, dtype=complex)  # log = i*pi*I, Im L at the upper edge
        log_t = oplog.logm_dissipative(t)
        self.assertTrue(answers.logm_ok(t, log_t))
        # another logarithm of T, off the branch: exp is unchanged, Im L reaches 3*pi
        other = log_t + 2j * math.pi * np.diag([1.0, 0.0, 0.0])
        self.assertFalse(answers.logm_ok(t, other))

    def test_eps_trace_against_counts(self):
        p = _pair(7, 5, 3)
        truth = answers.Truth(p)
        fam = herglotz.HerglotzFamily.from_potential(p.h0, p.v)
        spectra = np.sort(np.concatenate([truth.e0, truth.ep, truth.eh]))
        gaps = np.diff(spectra)
        i = int(np.argmax(gaps))
        lam = float(spectra[i] + 0.5 * gaps[i])
        for which in herglotz.SignBlock:
            val, rec = herglotz.boundary_log(fam, which, lam, route="eps")
            plus = which is herglotz.SignBlock.PLUS
            self.assertTrue(answers.eps_value_ok(truth, lam, plus, val, rec))
            shifted = val + 1j * math.pi * np.eye(val.shape[0]) / val.shape[0]
            self.assertFalse(answers.eps_value_ok(truth, lam, plus, shifted, rec))


class CheckReport(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "report.txt"
            cls.code = cli.main(["check", "all", "--seed", "3", "--out", str(out)])
            cls.text = out.read_text(encoding="utf-8")
        cls.lines = sum(1 for ln in cls.text.splitlines() if ln.startswith("  "))

    def test_clean_report(self):
        self.assertEqual(answers.check_report(self.text, self.code, 3), (self.lines, 0))

    def test_one_failed_line(self):
        lines = self.text.splitlines()
        i = next(k for k, ln in enumerate(lines) if ln.startswith("  ") and "[" not in ln)
        lines[i] = lines[i].replace(" PASS", " FAIL")
        bad = "\n".join(lines) + "\n"
        self.assertEqual(answers.check_report(bad, self.code, 3), (self.lines, 1))

    def test_missing_suite_wrong_seed_and_exit_code(self):
        cut = self.text.split("suite chain (seed 3)")[0] + "overall: PASS\n"
        att, fail = answers.check_report(cut, 0, 3)
        self.assertGreaterEqual(fail, 1)
        self.assertEqual(answers.check_report(self.text, 0, 4)[1], 1)
        self.assertEqual(answers.check_report(self.text, 1, 3), (self.lines + 1, 1))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        root = ["a", 0.0, 10.0, 1, None, 0]
        kids = [["b", 1.0, 4.0, 2, root, 0], ["b", 3.0, 6.0, 3, root, 0], ["c", 8.0, 9.0, 1, root, 0]]
        agg = spans.aggregate([root] + kids)
        self.assertAlmostEqual(agg["a"]["self_s"], 10.0 - 6.0)
        self.assertAlmostEqual(agg["a"]["child_s"], 3.0 + 3.0 + 1.0)
        self.assertEqual(agg["b"]["calls"], 2)

    def test_install_and_uninstall_restore_every_name(self):
        mods = [kreinshift] + [getattr(kreinshift, m) for m in spans.MODULES]
        before = [dict(vars(m)) for m in mods]
        fam_dict = dict(vars(herglotz.HerglotzFamily))
        tracer = spans.Tracer(kreinshift)
        tracer.install()
        self.assertIsNot(shift.eig_hermitian, before[mods.index(shift)]["eig_hermitian"])
        tracer.uninstall()
        for m, old in zip(mods, before):
            for k, v in old.items():
                self.assertIs(vars(m)[k], v, f"{m.__name__}.{k}")
        self.assertEqual(dict(vars(herglotz.HerglotzFamily)), fam_dict)

    def test_counts_of_a_traced_profile(self):
        p = _pair(8, 6, 4)
        tracer = spans.Tracer(kreinshift)
        tracer.install()
        try:
            fam = herglotz.HerglotzFamily.from_potential(p.h0, p.v)
            prof = shift.compute_profile(fam, shift.auto_grid(fam), include_det=True)
        finally:
            tracer.uninstall()
        agg = spans.aggregate(tracer.take())
        n = len(prof.grid)
        self.assertEqual(agg["herglotz.family"]["calls"], 1)
        self.assertEqual(agg["herglotz.boundary_log_direct"]["calls"], 2 * n)
        self.assertEqual(agg["shift.xi_via_det"]["calls"], n)
        self.assertEqual(agg["oplog.logm"]["calls"], 2 * n)
        self.assertEqual(agg["quadrature.integrate"]["calls"], 4 * n)
        self.assertGreater(agg["quadrature.integrate"]["extra"], 4 * n)


if __name__ == "__main__":
    unittest.main()
