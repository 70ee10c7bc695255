import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kreinshift
from kreinshift import checks, cli
from kreinshift.checks import DEFAULT_SEED, SUITE_NAMES, run_suite
from kreinshift.cli import main
from kreinshift.errors import KreinShiftError, PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite
from kreinshift.herglotz import boundary_log
from kreinshift.io import format_float, read_matrix, write_matrix

SRC = str(Path(kreinshift.__file__).resolve().parent.parent)


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}

    def put(name, m):
        p = tmp_path / f"{name}.json"
        write_matrix(p, np.asarray(m, dtype=complex))
        paths[name] = str(p)

    put("h0_scalar", np.zeros((1, 1)))
    put("v_scalar", np.ones((1, 1)))
    put("v_zero2", np.zeros((2, 2)))
    put("h0_diag2", np.diag([0.0, 1.0]))
    put("t_2i", 2.0 * np.eye(2))
    put("t_c", (2.0 + 1.0j) * np.eye(2))
    put("t_bad", np.array([[-1j]]))
    put("k_one", np.ones((1, 1)))
    put("v39_1", np.array([[1.0, 0.4], [0.4, 1.0]]))
    put("h0_2", np.zeros((2, 2)))
    put("nonherm2", np.array([[0.0, 1.0], [0.0, 0.0]]))
    # its norms overflow, where inf <= inf would pass an unscaled check
    put("nonherm_huge", 1e200 * np.array([[1.0, 1.0], [0.0, 2.0]]))
    put("k_lower2", np.array([[1.0, 0.0], [0.5, 1.0]]))
    put("eye_huge", 1e308 * np.eye(2))
    # finite entries, largest eigenvalue 1.9e308
    put("v_eig_huge", 1e308 * np.array([[1.0, 0.9], [0.9, 1.0]]))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrixFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        tricky = np.array(
            [
                [0.1 + 0.2j, -0.0 + 1e-308j],
                [math.pi - 1e300j, 1.0 / 3.0 + 2.0**-52j],
            ]
        )
        p = tmp_path / "m.json"
        write_matrix(p, tricky)
        assert np.array_equal(read_matrix(p).view(np.float64), tricky.view(np.float64))
        # a file with a label still reads; the label is ignored
        doc = json.loads(p.read_text())
        p.write_text(json.dumps({"label": "tricky", **doc}))
        assert np.array_equal(read_matrix(p).view(np.float64), tricky.view(np.float64))

    def test_parse_failures(self, tmp_path):
        from kreinshift.errors import ParseError

        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(PreconditionError):
            read_matrix(bad)
        short = tmp_path / "short.json"
        short.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
        with pytest.raises(PreconditionError):
            read_matrix(short)
        text = tmp_path / "text.json"
        text.write_text('{"dim": 1, "entries": [["a", 0.0]]}')
        with pytest.raises(PreconditionError, match="pair of numbers"):
            read_matrix(text)
        # JSON booleans are ints to Python, but not numbers in a matrix file
        booldim = tmp_path / "booldim.json"
        booldim.write_text('{"dim": true, "entries": [[1, 0]]}')
        with pytest.raises(ParseError, match="dim must be a positive integer"):
            read_matrix(booldim)
        boolentry = tmp_path / "boolentry.json"
        boolentry.write_text('{"dim": 1, "entries": [[true, false]]}')
        with pytest.raises(ParseError, match="pair of numbers"):
            read_matrix(boolentry)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_refused_with_exit_2(self, tmp_path, capsys, digits):
        # 400 digits overflow a double; 5000 pass Python's limit on the
        # digits of an integer string, which json.loads enforces
        p = tmp_path / "huge.json"
        p.write_text('{"dim": 1, "entries": [[' + "1" * digits + ", 0]]}")
        code, out, err = run_cli(capsys, "logm", "--t", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_format_float_round_trip(self):
        for x in (0.1, -1e-308, 2.0**-52, 1e300, -0.0, 123456789.123456789):
            assert float(format_float(x)) == x or (x == 0 and float(format_float(x)) == 0)


class TestXiCommand:
    def test_rank_one_profile(self, matrix_files, capsys):
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            "--grid=-0.5:1.5:5",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,xi,xi_plus,xi_minus,xi_oracle,xi_det,")
        xis = [float(line.split(",")[1]) for line in lines[1:]]
        assert xis == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_zero_perturbation(self, matrix_files, capsys):
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_diag2"],
            "--v",
            matrix_files["v_zero2"],
            "--grid=auto",
        )
        assert code == 0
        xis = {float(line.split(",")[1]) for line in out.strip().splitlines()[1:]}
        assert xis == {0.0}

    def test_worked_example_fixture(self, matrix_files, capsys):
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_2"],
            "--v",
            matrix_files["v39_1"],
            "--grid=auto",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cols = line.split(",")
            assert abs(float(cols[1]) - float(cols[4])) < 1e-6  # xi vs oracle

    def test_dimension_mismatch_exit_2(self, matrix_files, capsys):
        code, _, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_zero2"],
        )
        assert code == 2
        assert "dimension mismatch" in err

    def test_parse_failure_exit_2(self, matrix_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(
            capsys, "xi", "--h0", str(bad), "--v", matrix_files["v_scalar"]
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["nan:3:3", "0:inf:3", "a:b:3"])
    def test_bad_grid_exit_2(self, matrix_files, capsys, grid):
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            f"--grid={grid}",
        )
        assert code == 2
        assert out == ""
        assert "bad grid specification" in err and "Traceback" not in err

    def test_det_refinement_cap_exit_1(self, tmp_path, capsys, monkeypatch):
        # a point still bisecting at the cap is a math failure naming lambda
        from kreinshift import shift
        from kreinshift.generators import random_indefinite

        rng = np.random.default_rng(104)
        d = np.repeat(rng.uniform(-1.0, 1.0, 6), 5) + 1e-6 * rng.standard_normal(30)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        write_matrix(tmp_path / "h0.json", ((q * d) @ q.T).astype(complex))
        write_matrix(tmp_path / "v.json", 5.0 * random_indefinite(rng, 30, 12))
        monkeypatch.setattr(shift, "DET_MAX_REFINEMENTS", 0)
        code, out, err = run_cli(
            capsys, "xi", "--h0", str(tmp_path / "h0.json"), "--v", str(tmp_path / "v.json")
        )
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "bisections at lambda=" in err

    def test_det_mismatch_exit_1(self, matrix_files, capsys, monkeypatch):
        from kreinshift import shift

        def wrong(fam, lam):
            return shift.xi_counting_oracle(fam, lam) + 0.5

        monkeypatch.setattr(shift, "xi_via_det", wrong)
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            "--grid=0.4:0.6:2",
        )
        assert code == 1
        assert "failure at lambda" in err
        xi_det = [float(line.split(",")[5]) for line in out.strip().splitlines()[1:]]
        assert xi_det == [1.5, 1.5]

    @pytest.mark.parametrize("flag", ["--h0", "--v"])
    def test_non_hermitian_exit_2(self, matrix_files, capsys, flag):
        files = {"--h0": matrix_files["h0_diag2"], "--v": matrix_files["v39_1"]}
        files[flag] = matrix_files["nonherm2"]
        code, out, err = run_cli(
            capsys, "xi", "--h0", files["--h0"], "--v", files["--v"], "--grid=0.4:0.6:2"
        )
        assert code == 2
        assert out == "" and "not Hermitian" in err

    def test_huge_non_hermitian_exit_2(self, matrix_files, capsys):
        h0 = matrix_files["nonherm_huge"]
        code, out, err = run_cli(capsys, "xi", "--h0", h0, "--v", matrix_files["v39_1"])
        assert code == 2
        assert out == "" and err == f"error: base matrix in {h0} is not Hermitian\n"

    def test_overflowing_pair_exit_1_on_one_line(self, matrix_files, capsys):
        # H0 + V is past the double range: one error line and no warning
        huge = matrix_files["eye_huge"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "xi", "--h0", huge, "--v", huge)
        assert code == 1
        assert out == "" and err.startswith("error: H0 + V overflows") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_eigenvalues_exit_1_on_one_line(self, matrix_files, capsys):
        # V is finite, its largest eigenvalue is not: refused, not read as 0
        code, out, err = run_cli(
            capsys, "xi", "--h0", matrix_files["h0_diag2"], "--v", matrix_files["v_eig_huge"]
        )
        assert code == 1
        assert out == ""
        assert err == "error: the Hermitian eigendecomposition has non-finite eigenvalues [inf]\n"

    @pytest.mark.parametrize(
        "h0, v, message",
        [
            # 4 ||K||_F^2, the top of the determinant route's ladder, overflows
            ([[0.0]], [[1.7e308]], "the top height 4 ||K||_F^2 of the determinant route"),
            # numpy's LAPACK does not bring this H0 to convergence
            (
                [[-2.7e-3, 1e146, -6.1e299, -0.88], [1e146, -0.59, 1.0, -1e8],
                 [-6.1e299, 1.0, -2.36, -8.6e-9], [-0.88, -1e8, -8.6e-9, 0.0]],
                np.diag([1.0, 0.0, 0.0, 0.0]),
                "the Hermitian eigendecomposition failed: Eigenvalues did not converge",
            ),
            # finite eigenvalues whose spread is past the double range
            (np.diag([-1e308, 1e308]), np.diag([1.0, 0.0]), "the spectral diameter"),
        ],
        ids=["det-top-height", "eigh-not-converged", "diameter"],
    )
    def test_unrepresentable_pair_exit_1_on_one_line(self, tmp_path, capsys, h0, v, message):
        write_matrix(tmp_path / "h0.json", np.asarray(h0, dtype=complex))
        write_matrix(tmp_path / "v.json", np.asarray(v, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "xi", "--h0", str(tmp_path / "h0.json"), "--v", str(tmp_path / "v.json")
            )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_ladder_floor_past_the_top_exit_0(self, tmp_path, capsys):
        # top / (1e-10 |lam|) underflows to 0 at lam = 1e300: no halving
        write_matrix(tmp_path / "h0.json", np.zeros((1, 1), dtype=complex))
        write_matrix(tmp_path / "v.json", np.array([[1e-300]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "xi", "--h0", str(tmp_path / "h0.json"), "--v", str(tmp_path / "v.json"),
                "--grid=1e300:1e301:2",
            )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["1e+300", "1e+301"]
        assert all(row[5] == row[4] == "0.0" for row in rows)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--rank-tol", "-1", "rank_tol"), ("--rank-tol", "nan", "rank_tol")],
    )
    def test_non_positive_tolerance_exit_2(self, matrix_files, capsys, flag, value, message):
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            "--grid=0.4:0.6:2",
            f"{flag}={value}",
        )
        assert code == 2
        assert out == "" and message in err and "Traceback" not in err

    def test_unopenable_out_file_exit_2(self, matrix_files, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            "--grid=0.4:0.6:2",
            "--out",
            str(dest),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot open output file") and err.count("\n") == 1
        assert not dest.exists()

    def test_out_file(self, matrix_files, tmp_path, capsys):
        dest = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            capsys,
            "xi",
            "--h0",
            matrix_files["h0_scalar"],
            "--v",
            matrix_files["v_scalar"],
            "--grid=0.4:0.6:2",
            "--out",
            str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text().startswith("lambda,")


class TestBlasThreads:
    @staticmethod
    def thread_functions():
        funcs = cli._openblas_thread_functions()
        if funcs is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
        return funcs

    def test_xi_csv_same_bytes_at_one_and_two_threads(self, tmp_path):
        self.thread_functions()
        rng = np.random.default_rng(7)
        write_matrix(tmp_path / "h0.json", random_hermitian(rng, 120))
        write_matrix(tmp_path / "v.json", random_indefinite(rng, 120, 8))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
            proc = subprocess.run(
                [sys.executable, "-m", "kreinshift.cli", "xi", "--grid", "auto",
                 "--h0", str(tmp_path / "h0.json"), "--v", str(tmp_path / "v.json")],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_main_runs_one_thread_and_restores_the_count(self, capsys, monkeypatch):
        set_threads, get_threads = self.thread_functions()
        seen = []

        def command(args, stream):
            seen.append(get_threads())
            if len(seen) == 2:
                raise KreinShiftError("failed on purpose")
            return 0

        monkeypatch.setattr(cli, "_cmd_check", command)
        before = get_threads()
        set_threads(2)
        try:
            assert get_threads() == 2
            assert main(["check", "herglotz"]) == 0
            assert get_threads() == 2
            assert main(["check", "herglotz"]) == 1
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen == [1, 1]
        assert capsys.readouterr().err == "error: failed on purpose\n"


class TestLogmCommand:
    def test_scalar_multiple(self, matrix_files, capsys):
        code, out, _ = run_cli(capsys, "logm", "--t", matrix_files["t_2i"])
        assert code == 0
        lines = out.strip().splitlines()
        vals = {(l.split(",")[0], l.split(",")[1]): float(l.split(",")[2]) for l in lines[1:-1]}
        assert vals[("0", "0")] == pytest.approx(math.log(2.0), abs=1e-12)
        assert vals[("0", "1")] == pytest.approx(0.0, abs=1e-12)
        resid = float(lines[-1].split(",")[1])
        assert resid < 1e-12

    def test_complex_scalar_matches_branch(self, matrix_files, capsys):
        code, out, _ = run_cli(capsys, "logm", "--t", matrix_files["t_c"])
        assert code == 0
        lines = out.strip().splitlines()
        re00 = float(lines[1].split(",")[2])
        im00 = float(lines[1].split(",")[3])
        assert complex(re00, im00) == pytest.approx(
            complex(np.log(abs(2 + 1j)), np.angle(2 + 1j)), abs=1e-10
        )

    def test_non_dissipative_exit_1(self, matrix_files, capsys):
        code, _, err = run_cli(capsys, "logm", "--t", matrix_files["t_bad"])
        assert code == 1
        assert "dissipative" in err and "tolerance" in err

    def test_anti_branch(self, matrix_files, tmp_path, capsys):
        p = tmp_path / "anti.json"
        write_matrix(p, (2.0 - 1.0j) * np.eye(2))
        code, out, _ = run_cli(capsys, "logm", "--t", str(p), "--anti")
        assert code == 0
        resid = float(out.strip().splitlines()[-1].split(",")[1])
        assert resid < 1e-10

    def test_ln_branch_eigen_route(self, matrix_files, capsys):
        code, out, _ = run_cli(capsys, "logm", "--t", matrix_files["t_2i"], "--branch", "ln")
        assert code == 0

    @pytest.mark.parametrize(
        "z, n, message",
        [
            (1e308j, 2, "past the double range"),
            (3e307j, 2, "past the double range"),
            (1e-310j, 1, "past the double range"),
            (5e-324j, 1, "past the double range"),
        ],
    )
    def test_range_ends_exit_1_on_one_line(self, tmp_path, capsys, z, n, message):
        p = tmp_path / "t.json"
        write_matrix(p, z * np.eye(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "logm", "--t", str(p))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dim, entries, branch, message",
        [
            # smax / smin = 1.4e300 / 1.4e-10 overflows
            (
                2, [[1e300, 1e300], [0, 0], [0, 0], [1e-10, 1e-10]], "log",
                "matrix is singular within working precision",
            ),
            # the modulus 1.97e308 of the entry overflows, and so does the norm
            (
                1, [[1e308, 1.7e308]], "log",
                "matrix is past the double range of the quadrature logarithm",
            ),
            (1, [[1e308, 1.7e308]], "ln", "the eigendecomposition has non-finite eigenvalues"),
            # LAPACK's eig returns an infinite eigenvalue
            (
                3,
                [[-1e308, 1], [-1e308, 5e-324], [1e200, 1e-308], [1.7e308, -1e200],
                 [0, 1.7e308], [1, 1], [1e-308, 5e-324], [5e-324, 1e-200], [5e-324, -1e308]],
                "ln",
                "the eigendecomposition has non-finite eigenvalues",
            ),
        ],
        ids=["cond-overflows", "norm-overflows", "ln-nan-eigenvalue", "ln-inf-eigenvalue"],
    )
    def test_overflowing_argument_exit_1_on_one_line(
        self, tmp_path, capsys, dim, entries, branch, message
    ):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"dim": dim, "entries": entries}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "logm", "--t", str(p), "--branch", branch)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("z, branch", [(2e307j, "log"), (1e308j, "ln")])
    def test_near_range_end_exit_0(self, tmp_path, capsys, z, branch):
        # the norms of the round trip are taken scaled by the power of two
        # at T's largest entry, so they do not overflow past about 1e154
        p = tmp_path / "t.json"
        write_matrix(p, z * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "logm", "--t", str(p), "--branch", branch)
        assert code == 0 and err == ""
        assert float(out.strip().splitlines()[-1].split(",")[1]) < 1e-11

    def test_non_finite_ln_residual_exit_1_on_one_line(self, tmp_path, capsys, monkeypatch):
        # an exponential that is not finite leaves a residual that is not
        monkeypatch.setattr(cli, "expm", lambda a: np.full(np.shape(a), np.nan, dtype=complex))
        p = tmp_path / "t.json"
        write_matrix(p, 2j * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "logm", "--t", str(p), "--branch", "ln")
        assert code == 1 and out == ""
        assert err == (
            "error: result is not finite in double precision: "
            "expm-roundtrip-relative-residual nan\n"
        )

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_tolerance_exit_2(self, matrix_files, capsys, value):
        code, out, err = run_cli(capsys, "logm", "--t", matrix_files["t_2i"], f"--rel-tol={value}")
        assert code == 2
        assert out == "" and err.startswith("error:") and "rel_tol" in err


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, name", [("xi", "--rank-tol", "rank_tol"), ("logm", "--rel-tol", "rel_tol")]
)
def test_infinite_tolerance_exit_2(matrix_files, capsys, command, flag, name, value):
    # an infinite rank tolerance would drop all of V, an infinite relative
    # tolerance would accept any quadrature: both are usage errors
    inputs = {
        "xi": ["--h0", matrix_files["h0_diag2"], "--v", matrix_files["v39_1"]],
        "logm": ["--t", matrix_files["t_2i"]],
    }[command]
    code, out, err = run_cli(capsys, command, *inputs, f"{flag}={value}")
    assert code == 2
    assert out == "" and err.splitlines() == [f"error: {name} must be finite and positive"]


@pytest.mark.parametrize(
    "command, flag",
    [("xi", flag) for flag in ("--eps0", "--conv-tol", "--rel-tol")]
    + [("logm", flag) for flag in ("--eps0", "--conv-tol", "--rank-tol")],
)
def test_flags_a_command_does_not_read_are_refused(matrix_files, capsys, command, flag):
    inputs = {
        "xi": ["--h0", matrix_files["h0_scalar"], "--v", matrix_files["v_scalar"]],
        "logm": ["--t", matrix_files["t_2i"]],
    }[command]
    code, out, err = run_cli(capsys, command, *inputs, f"{flag}=1")
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


class TestAverageCommands:
    def test_average(self, matrix_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "average",
            "--h0",
            matrix_files["h0_diag2"],
            "--v",
            matrix_files["v39_1"],
            "--f",
            "poly:0,1",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[2])) < 1e-6

    def test_op_average(self, matrix_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "op-average",
            "--h0",
            matrix_files["h0_scalar"],
            "--k",
            matrix_files["k_one"],
            "--f",
            "poly:0.5,1,2",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[0]) < 1e-6

    def test_op_average_negative_couplings(self, matrix_files, capsys):
        # the shift operators of H0 + s KK* with s < 0 carry the sign of s
        code, out, _ = run_cli(
            capsys,
            "op-average",
            "--h0",
            matrix_files["h0_diag2"],
            "--k",
            matrix_files["k_lower2"],
            "--s-range=-1:-0.2",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[0]) < 1e-4

    @pytest.mark.xfail(
        strict=True,
        reason="the fixed 32-node Gauss-Legendre s-average misses the peak of a "
        "narrow test function: lhs 0.052749 against the exact rhs 0.050133",
    )
    def test_average_narrow_gaussian(self, matrix_files, capsys):
        code, _, _ = run_cli(
            capsys, "average", "--h0", matrix_files["h0_diag2"], "--v", matrix_files["v39_1"],
            "--f", "gauss:1.5,0.02",
        )
        assert code == 0

    @pytest.mark.xfail(
        strict=True,
        reason="the fixed 32-node Gauss-Legendre s-average misses the peak of a "
        "narrow test function: lhs_fro 0.062624 against rhs_fro 0.050132",
    )
    def test_op_average_narrow_gaussian(self, matrix_files, capsys):
        code, _, _ = run_cli(
            capsys, "op-average", "--h0", matrix_files["h0_diag2"], "--k",
            matrix_files["k_lower2"], "--f", "gauss:1.5,0.02",
        )
        assert code == 0

    def test_bad_test_function_exit_2(self, matrix_files, capsys):
        code, _, err = run_cli(
            capsys,
            "average",
            "--h0",
            matrix_files["h0_diag2"],
            "--v",
            matrix_files["v39_1"],
            "--f",
            "fourier:1,2",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--f", "gauss:0,-1"), ("--f", "poly:a"), ("--s-range", "a:1")]
    )
    def test_bad_spec_exit_2(self, matrix_files, capsys, flag, value):
        code, _, err = run_cli(
            capsys,
            "average",
            "--h0",
            matrix_files["h0_diag2"],
            "--v",
            matrix_files["v39_1"],
            f"{flag}={value}",
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--f", spec) for spec in (
            "imres:0,inf", "imres:nan,1", "gauss:0,inf", "gauss:0,nan", "gauss:nan,1",
            "poly:nan", "poly:inf,1",
        )] + [("--s-range", "0:inf"), ("--s-range", "-inf:1")],
    )
    @pytest.mark.parametrize("command, factor", [("average", "v39_1"), ("op-average", "k_lower2")])
    def test_non_finite_spec_exit_2(self, matrix_files, capsys, command, factor, flag, value):
        # a non-finite test function or s-range is malformed input, never a
        # result (imres:0,inf once printed zeros and exited 0)
        option = "--v" if command == "average" else "--k"
        code, out, err = run_cli(
            capsys, command, "--h0", matrix_files["h0_diag2"], option, matrix_files[factor],
            f"{flag}={value}",
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, factor, flag",
        [
            ("average", "v39_1", "--s-range=-1e300:1e300"),
            ("average", "v39_1", "--s-range=0:1e308"),
            ("op-average", "k_lower2", "--f=poly:1e200,1e200,1e200"),
            ("op-average", "k_lower2", "--s-range=0:1e300"),
        ],
    )
    def test_overflow_exit_1(self, matrix_files, capsys, command, factor, flag):
        # finite, well-formed input whose arithmetic overflows is a math
        # failure: one error line, no warning and no row of nan or inf
        option = "--v" if command == "average" else "--k"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, command, "--h0", matrix_files["h0_diag2"], option, matrix_files[factor],
                flag,
            )
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("flag", ["--eps0=-1", "--conv-tol=-5", "--rel-tol=0", "--rank-tol=1"])
    @pytest.mark.parametrize("command, factor", [("average", "--v"), ("op-average", "--k")])
    def test_tolerance_flags_refused(self, matrix_files, capsys, command, factor, flag):
        files = matrix_files
        code, out, err = run_cli(
            capsys, command, "--h0", files["h0_scalar"], factor, files["v_scalar"], flag
        )
        assert code == 2
        assert out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "command, factor, header",
        [("average", "--v", "lhs,rhs,residual"), ("op-average", "--k", "residual,lhs_fro,rhs_fro")],
    )
    def test_out_file(self, matrix_files, tmp_path, capsys, command, factor, header):
        dest = tmp_path / "avg.csv"
        code, out, _ = run_cli(
            capsys,
            command,
            "--h0",
            matrix_files["h0_scalar"],
            factor,
            matrix_files["v_scalar"],
            "--out",
            str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text().startswith(header)


class TestIntegralityLine:
    """``shift function off integers by`` reads pi^(-1) tr Im of the eps-route
    boundary log, which is an integer by the paper's definition."""

    def test_reads_eight_eps_values(self, monkeypatch):
        routes = []

        def spy(fam, which, lam, route="direct"):
            routes.append(route)
            return boundary_log(fam, which, lam, route)

        monkeypatch.setattr(checks, "boundary_log", spy)
        line = checks.check_oracle_equivalence(DEFAULT_SEED)[1]
        assert line.name == "shift function off integers by"
        assert routes == ["eps"] * 8 and "8 values" in line.note
        assert line.ok and line.value < 1e-12

    def test_a_trace_off_the_integers_fails(self, monkeypatch):
        def off(fam, which, lam, route="direct"):
            val, rec = boundary_log(fam, which, lam, route)
            n = val.shape[0]
            return val + (0.25j * math.pi / max(n, 1)) * np.eye(n), rec

        monkeypatch.setattr(checks, "boundary_log", off)
        line = checks.check_oracle_equivalence(DEFAULT_SEED)[1]
        assert not line.ok and line.value == pytest.approx(0.25)


class TestCheckCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "example39")
        assert code == 0
        assert "suite example39" in out and out.strip().endswith("overall: PASS")

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "nonsense")
        assert code == 2
        with pytest.raises(KeyError):
            run_suite("nonsense")

    @pytest.mark.parametrize("argv", [["all", "--seed", "-102"], ["example39", "--seed=-200"]])
    def test_negative_seed_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert "seed must be a non-negative integer" in err
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            run_suite("example39", -1)

    def test_all_is_each_suite_in_order(self, capsys):
        blocks = []
        for name in SUITE_NAMES:
            code, out, _ = run_cli(capsys, "check", name)
            assert code == 0 and out.startswith(f"suite {name} (seed {DEFAULT_SEED})\n")
            blocks.append(out.removesuffix("overall: PASS\n"))
        code, out, _ = run_cli(capsys, "check", "all")
        assert code == 0
        assert out == "".join(blocks) + "overall: PASS\n"

    def test_unopenable_out_file_refused_before_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_suite called before the --out file was opened")

        monkeypatch.setattr(checks, "run_suite", never)
        dest = tmp_path / "missing-dir" / "x.txt"
        code, out, err = run_cli(capsys, "check", "all", "--out", str(dest))
        assert code == 2
        assert out == "" and err.startswith("error: cannot open output file")
        assert not dest.exists()
