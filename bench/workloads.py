"""The four workloads.

A workload makes its inputs from the seed, times one set-up, and runs one
round: a fixed list of jobs run one after another, each a user-visible call
(one CLI invocation, one ``compute_profile`` call, one logarithm or one
boundary value).  Outputs are kept and checked after the round, outside the
timed part.  ``inprocess=True`` runs the CLI workloads through
``kreinshift.cli.main`` in this process, which is how the traced run sees
their layers; otherwise every CLI job is a fresh interpreter, as a user
would start it.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import answers
import inputs

# The CLI is started as ``python -m kreinshift.cli``: the checkout is not
# installed, so there is no ``kreinshift`` script on PATH.
CLI = [sys.executable, "-m", "kreinshift.cli"]
IMPORT_PROBE = (
    "import time, numpy; t = time.perf_counter(); import kreinshift; "
    "print(time.perf_counter() - t)"
)
JOB_TIMEOUT_S = 120


def child_env(src: Path) -> dict:
    """This process's environment (BLAS already pinned by run.py) with the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, log: Path) -> tuple[int, float, float]:
    """Run a child to completion; returns (exit code, wall seconds, peak RSS
    in MB of that child).  A child still running after JOB_TIMEOUT_S is
    killed, and its exit code says so."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=err, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def write_matrix(path: Path, m: np.ndarray) -> None:
    """The program's matrix-file format, written by the benchmark itself."""
    entries = [[float(x.real), float(x.imag)] for x in np.asarray(m).ravel()]
    path.write_text(json.dumps({"dim": int(m.shape[0]), "entries": entries}), encoding="utf-8")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Common state: seed, output directory, the program's sources."""

    name = ""

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed = seed
        self.out = out
        self.env = child_env(src)
        self.log = out / f"{self.name}-children.log"
        self.peak_rss_mb = 0.0
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def rss_mb(self) -> float:
        return self.peak_rss_mb


class CliWorkload(Workload):
    """set-up: one interpreter start with ``kreinshift.cli`` imported."""

    def setup_once(self) -> float:
        code, wall, _ = spawn([sys.executable, "-c", "import kreinshift.cli"], self.env, self.log)
        if code != 0:
            raise RuntimeError(f"cannot import kreinshift.cli (see {self.log})")
        return wall

    def _job(self, argv, inprocess: bool) -> tuple[int, float]:
        if inprocess:
            from kreinshift import cli

            t0 = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - t0
        code, wall, rss = spawn(CLI + argv, self.env, self.log)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, wall


class InProcessWorkload(Workload):
    """set-up: importing kreinshift (timed in a fresh interpreter, since
    this process imports it only once) plus building the HerglotzFamily
    objects here."""

    def setup_once(self) -> float:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.env, capture_output=True,
            text=True, timeout=JOB_TIMEOUT_S, check=True,
        )
        import_s = float(out.stdout.strip())
        t0 = time.perf_counter()
        self.build()
        return import_s + time.perf_counter() - t0

    def rss_mb(self) -> float:
        return self_peak_rss_mb()


# ----------------------------------------------------------------------

class XiCli(CliWorkload):
    """``kreinshift xi --grid auto`` over pair files: six small pairs (n=8,
    ranks 3 to 7) and two medium ones (n=24 rank 12, n=32 rank 16).  Sizes
    and ranks are fixed; the seed draws the entries."""

    name = "xi-cli"
    sizes = [(8, 3), (8, 4), (8, 5), (8, 6), (8, 7), (8, 5), (24, 12), (32, 16)]

    def prepare(self) -> None:
        self.jobs = []
        for i, (n, r) in enumerate(self.sizes):
            p = inputs.pair(self.rng, n, r, f"pair{i}-n{n}-r{r}")
            h0f, vf = self.out / f"{p.name}-h0.json", self.out / f"{p.name}-v.json"
            write_matrix(h0f, p.h0)
            write_matrix(vf, p.v)
            csv = self.out / f"{p.name}.csv"
            argv = ["xi", "--h0", str(h0f), "--v", str(vf), "--grid", "auto", "--out", str(csv)]
            self.jobs.append((argv, csv, answers.Truth(p)))

    def round(self, inprocess: bool):
        lat, done = [], []
        for argv, csv, truth in self.jobs:
            csv.unlink(missing_ok=True)
            code, wall = self._job(argv, inprocess)
            lat.append(wall)
            done.append((code, csv, truth))
        return lat, lambda: _sum_checks(self._verify(*d) for d in done)

    @staticmethod
    def _verify(code, csv, truth):
        text = csv.read_text(encoding="utf-8") if csv.exists() else ""
        att, fail = answers.check_xi_csv(text, truth)
        return (att, fail) if code == 0 else (att, max(fail, 1))


class CheckAll(CliWorkload):
    """``kreinshift check all --seed S`` with S the benchmark seed."""

    name = "check-all"

    def prepare(self) -> None:
        self.report = self.out / "check-all.txt"
        self.argv = ["check", "all", "--seed", str(self.seed), "--out", str(self.report)]

    def round(self, inprocess: bool):
        self.report.unlink(missing_ok=True)
        code, wall = self._job(self.argv, inprocess)
        text = self.report.read_text(encoding="utf-8") if self.report.exists() else ""
        return [wall], lambda: answers.check_report(text, code, self.seed)


class ProfileLarge(InProcessWorkload):
    """``compute_profile(include_det=False)`` on the auto grid of a high-rank
    pair (n=120, r=60) and a low-rank pair (n=200, r=20); one job per pair,
    grid construction included."""

    name = "profile-large"

    def prepare(self) -> None:
        self.pairs = [
            inputs.pair(self.rng, 120, 60, "high-rank"),
            inputs.pair(self.rng, 200, 20, "low-rank"),
        ]
        self.truths = [answers.Truth(p) for p in self.pairs]

    def build(self) -> None:
        from kreinshift.herglotz import HerglotzFamily

        self.fams = [HerglotzFamily.from_potential(p.h0, p.v) for p in self.pairs]

    def round(self, inprocess: bool = True):
        from kreinshift import shift

        lat, profs = [], []
        for fam in self.fams:
            t0 = time.perf_counter()
            prof = shift.compute_profile(fam, shift.auto_grid(fam), include_det=False)
            lat.append(time.perf_counter() - t0)
            profs.append(prof)
        return lat, lambda: _sum_checks(
            answers.check_profile(p, t) for p, t in zip(profs, self.truths)
        )


class LogmEps(InProcessWorkload):
    """240 dissipative matrices through ``logm_dissipative``: n cycles over
    2..10, and every third matrix has a singular imaginary part (rank cycling
    over 0..n-1).  Then the eps route of ``boundary_log`` on both blocks at
    8 of the gap points that ``safe_grid`` places for each of two small
    pairs (n=4 r=2, n=6 r=4), evenly spaced through the gaps.  Gap points
    closer than 0.5% of the spectral diameter to an eigenvalue are left out:
    at some of them, on some seeds, the eps route raises ConvergenceError
    (a fault of the program, named in CHANGES.md), and a failure that comes
    and goes with the seed cannot be counted steadily.  Sizes and counts are
    fixed; the seed draws the entries."""

    name = "logm-eps"
    n_logm = 240
    eps_pairs = ((4, 2), (6, 4))
    eps_points = 8

    def prepare(self) -> None:
        self.mats = []
        for i in range(self.n_logm):
            n = 2 + i % 9
            im_rank = (i // 3) % n if i % 3 == 0 else n
            self.mats.append(inputs.dissipative(self.rng, n, im_rank))
        self.pairs = [inputs.pair(self.rng, n, r, f"eps-n{n}") for n, r in self.eps_pairs]
        self.truths = [answers.Truth(p) for p in self.pairs]

    def build(self) -> None:
        from kreinshift.herglotz import HerglotzFamily
        from kreinshift.shift import safe_grid

        self.fams = [HerglotzFamily.from_potential(p.h0, p.v) for p in self.pairs]
        self.points = []
        for fam, truth in zip(self.fams, self.truths):
            spectra = truth.spectra
            gaps = [
                float(x) for x in safe_grid(fam, 40)
                if spectra.min() < x < spectra.max()
                and np.min(np.abs(spectra - x)) > 0.005 * truth.scale
            ]
            pick = np.linspace(0, len(gaps) - 1, self.eps_points).round().astype(int)
            self.points.append([gaps[i] for i in pick])

    def round(self, inprocess: bool = True):
        from kreinshift import herglotz, oplog

        lat, logs, bvals = [], [], []
        for t in self.mats:
            t0 = time.perf_counter()
            logs.append(oplog.logm_dissipative(t))
            lat.append(time.perf_counter() - t0)
        blocks = (herglotz.SignBlock.PLUS, herglotz.SignBlock.MINUS)
        for fam, truth, pts in zip(self.fams, self.truths, self.points):
            for lam in pts:
                for which in blocks:
                    t0 = time.perf_counter()
                    val, rec = herglotz.boundary_log(fam, which, lam, route="eps")
                    lat.append(time.perf_counter() - t0)
                    bvals.append((truth, lam, which is herglotz.SignBlock.PLUS, val, rec))

        def verify():
            fail = sum(not answers.logm_ok(t, l) for t, l in zip(self.mats, logs))
            fail += sum(not answers.eps_value_ok(*b) for b in bvals)
            return len(logs) + len(bvals), fail

        return lat, verify


def _sum_checks(pairs) -> tuple[int, int]:
    att = fail = 0
    for a, f in pairs:
        att += a
        fail += f
    return att, fail


WORKLOADS = {w.name: w for w in (XiCli, ProfileLarge, LogmEps, CheckAll)}
