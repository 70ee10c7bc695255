"""Command-line surface.

Commands:
  xi          shift-function profile of a pair (H0, V) as CSV
  logm        logarithm of a dissipative (or anti-dissipative) matrix
  check       seeded verification suites
  average     weak-pairing averaging identity for a linear path
  op-average  operator-valued averaging identity for a factor K

Exit codes: 0 success, 1 a mathematical check or convergence failure (a
result that overflows double precision included), 2 a usage or parse error;
README lists the cases.  The parser refuses every malformed argument, a
flag value or a matrix file, on one ``error:`` line with exit 2 before the
``--out`` file is opened; it reads the files after the flags, so a
malformed flag is refused before any file is read.  A dimension mismatch
between two files is refused, with exit 2, after ``--out`` is opened.  Each
command takes only the flags it reads: ``xi`` its ``--rank-tol``, ``logm``
its ``--rel-tol`` (which ``--branch ln`` ignores, as it does ``--anti``).
Every grid is evaluated in one thread, as batched numpy arrays; ``check``
runs its checks on one worker process per usable CPU and reports them in
suite order.  Each command runs numpy's OpenBLAS at one thread and gives
the caller's thread count back after, so its output is the same bytes at
any OPENBLAS_NUM_THREADS and, for ``check``, at any worker count; under a
BLAS without an OpenBLAS thread setter that is not promised.

Each command imports only the layers it runs (``xi`` the family and the
profiles, ``logm`` the logarithm, ``check`` the suites and the process
pool, ``average`` and ``op-average`` the averaging identities); the module
itself imports only what every command shares.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import KreinShiftError, ParseError
from .io import format_float, read_matrix, write_csv
from .matkit import _entry_scale, check_tolerance, expm, frobenius, hermitian_part, is_hermitian

if TYPE_CHECKING:
    from .averaging import TestFunction

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _parse_grid(spec: str) -> np.ndarray | None:
    """The --grid points, or None for ``auto``, resolved by ``_cmd_xi``."""
    if spec.lower() == "auto":
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be min:max:count or auto, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad grid specification {spec!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)) or count < 1 or hi < lo:
        raise ParseError(f"bad grid specification {spec!r}")
    return np.linspace(lo, hi, count)


def _parse_srange(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ParseError(f"s-range must be a:b, got {spec!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad s-range {spec!r}: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParseError(f"s-range bounds must be finite, got {spec!r}")
    if not a < b:
        raise ParseError(f"s-range must be increasing, got {spec!r}")
    return a, b


def _parse_f(spec: str) -> TestFunction:
    from .averaging import TestFunction

    kind, _, payload = spec.partition(":")
    try:
        if kind == "poly":
            return TestFunction.polynomial([float(c) for c in payload.split(",")])
        if kind == "gauss":
            mu, sigma = (float(x) for x in payload.split(","))
            return TestFunction.gaussian(mu, sigma)
        if kind == "imres":
            re, im = (float(x) for x in payload.split(","))
            return TestFunction.resolvent_im(complex(re, im))
    except ValueError as exc:
        raise ParseError(f"cannot parse test function {spec!r}: {exc}") from exc
    raise ParseError(
        f"unknown test function {spec!r} (want poly:c0,c1,... | gauss:mu,sigma | imres:re,im)"
    )


def _load_hermitian(path, what: str) -> np.ndarray:
    m = read_matrix(path)
    if not is_hermitian(m, 1e-10):
        raise ParseError(f"{what} matrix in {path} is not Hermitian")
    return hermitian_part(m)


def _refuse_non_finite(names, values) -> None:
    """Refuse the named values when arithmetic on finite input left one
    that is not finite."""
    bad = [f"{name} {format_float(x)}" for name, x in zip(names, values) if not math.isfinite(x)]
    if bad:
        raise KreinShiftError("result is not finite in double precision: " + ", ".join(bad))


def _write_finite_row(stream, header, row) -> None:
    """Write a one-row CSV, refused when a value is not finite."""
    _refuse_non_finite(header, row)
    write_csv(stream, header, [[format_float(x) for x in row]])


# the OpenBLAS thread setter and getter, by the names its builds export
_OPENBLAS_THREAD_FUNCTIONS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _openblas_thread_functions():
    """The (setter, getter) of the OpenBLAS that numpy loaded, or None.

    They are looked up through the handle of numpy's LAPACK module, since a
    symbol lookup on a library handle also searches the libraries it
    links.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
        set_threads = getattr(lib, set_name, None)
        get_threads = getattr(lib, get_name, None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore the count it
    had.  A BLAS product splits its sums by thread count, so only a fixed
    count gives the same bytes everywhere, and at the sizes the commands
    take more threads only busy-wait.  Without a setter nothing changes."""
    funcs = _openblas_thread_functions()
    if funcs is None:
        yield
        return
    set_threads, get_threads = funcs
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@contextlib.contextmanager
def _output(args):
    """The --out file, or standard output when it is not given."""
    if not args.out:
        yield sys.stdout
        return
    try:
        stream = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open output file {args.out}: {exc.strerror}") from exc
    with stream:
        yield stream


# ----------------------------------------------------------------------


def _cmd_xi(args, stream) -> int:
    from .herglotz import HerglotzFamily
    from .shift import auto_grid, compute_profile

    h0, v = args.h0, args.v
    if h0.shape != v.shape:
        raise ParseError(f"dimension mismatch: H0 is {h0.shape[0]}, V is {v.shape[0]}")
    fam = HerglotzFamily.from_potential(h0, v, args.rank_tol)
    grid = auto_grid(fam) if args.grid is None else args.grid
    profile = compute_profile(fam, grid, include_det=True)

    columns = ("grid", "xi", "xi_plus", "xi_minus", "xi_oracle", "xi_det")
    header = ["lambda", *columns[1:]]
    header += [f"xiop_{block}_{k}" for block in ("plus", "minus") for k in (1, 2, 3)]
    header.append("converged")

    def top3(eigs):
        vals = [format_float(x) for x in eigs[:3]]
        return vals + [""] * (3 - len(vals))

    rows = [
        [format_float(getattr(profile, c)[i]) for c in columns]
        + top3(profile.xi_op_plus_eigs[i])
        + top3(profile.xi_op_minus_eigs[i])
        + ["1" if profile.converged[i] else "0"]
        for i in range(profile.grid.size)
    ]
    write_csv(stream, header, rows)

    # a non-finite value compares false, so it fails the row too
    ok = (np.abs(profile.xi - profile.xi_oracle) < 1e-6) & (
        np.abs(profile.xi_det - profile.xi_oracle) < 1e-6
    )
    bad = profile.grid[~ok]
    if bad.size:
        print(
            "oracle failure at lambda: "
            + ", ".join(format_float(x) for x in bad),
            file=sys.stderr,
        )
        return EXIT_MATH
    return EXIT_OK


def _cmd_logm(args, stream) -> int:
    from .oplog import Branch, logm_antidissipative, logm_dissipative, logm_oracle_diag

    t = args.t
    if args.branch == "ln":
        # principal-branch diagnostic route through the eigendecomposition
        result = logm_oracle_diag(t, Branch.LN)
    elif args.anti:
        result = logm_antidissipative(t, args.rel_tol)
    else:
        result = logm_dissipative(t, args.rel_tol)
    # both norms of T and the residual scaled by the power of two at T's
    # largest entry, exactly, so that they do not overflow past about 1e154
    scale = _entry_scale(t)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = frobenius((expm(result) - t) * scale) / max(frobenius(t * scale), 1e-300)
    _refuse_non_finite(["expm-roundtrip-relative-residual"], [residual])
    header = ["row", "col", "re", "im"]
    rows = [
        [str(i), str(j), format_float(result[i, j].real), format_float(result[i, j].imag)]
        for i in range(result.shape[0])
        for j in range(result.shape[1])
    ]
    write_csv(stream, header, rows)
    stream.write(f"# expm-roundtrip-relative-residual,{format_float(residual)}\n")
    return EXIT_OK


def _cmd_check(args, stream) -> int:
    from . import checks

    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    reports = checks.run_suites(names, seed)
    overall = all(r.ok for r in reports)
    for rep in reports:
        stream.write(rep.render() + "\n")
    stream.write(f"overall: {'PASS' if overall else 'FAIL'}\n")
    return EXIT_OK if overall else EXIT_MATH


def _cmd_average(args, stream) -> int:
    from .averaging import PerturbationPath, averaged_pairing_lhs, averaged_pairing_rhs

    h0, v1 = args.h0, args.v
    if h0.shape != v1.shape:
        raise ParseError(f"dimension mismatch: H0 is {h0.shape[0]}, V is {v1.shape[0]}")
    path = PerturbationPath(np.zeros_like(h0), v1, *args.s_range)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = averaged_pairing_lhs(h0, path, args.f)
        rhs = averaged_pairing_rhs(h0, path, args.f)
    resid = abs(lhs - rhs)
    _write_finite_row(stream, ["lhs", "rhs", "residual"], [lhs, rhs, resid])
    return EXIT_OK if resid < 1e-4 * (1.0 + abs(lhs)) else EXIT_MATH


def _cmd_op_average(args, stream) -> int:
    from .averaging import operator_increment_residual

    h0, k = args.h0, args.k
    if k.shape[0] != h0.shape[0]:
        raise ParseError(f"dimension mismatch: H0 is {h0.shape[0]}, K has {k.shape[0]} rows")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = operator_increment_residual(h0, k, *args.s_range, args.f)
        row = [rep.residual, frobenius(rep.lhs), frobenius(rep.rhs)]
    _write_finite_row(stream, ["residual", "lhs_fro", "rhs_fro"], row)
    return EXIT_OK if rep.residual < 1e-4 else EXIT_MATH


# ----------------------------------------------------------------------


def _suite_name(name: str) -> str:
    """The suite argument of ``check``: a suite name or ``all``.  A type,
    not ``choices``, so that the suites are imported only when ``check`` is
    parsed."""
    from .checks import SUITE_NAMES

    choices = SUITE_NAMES + ("all",)
    if name not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, choices))})"
        )
    return name


def _seed(text: str) -> int:
    """The --seed argument of ``check``: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _arg(parse):
    """The argparse type of ``parse``, refusing by the message of its ValueError."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse prints the usage and exits, and
    reads the matrix files last, so that a malformed or unknown flag is
    refused before any file is read."""

    files = ()  # (action, reader) of each matrix-file argument

    def error(self, message):
        raise ParseError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # arguments left over are refused as unrecognized by parse_args
        for action, read in [] if extras else self.files:
            try:
                setattr(namespace, action.dest, read(getattr(namespace, action.dest)))
            except ValueError as exc:
                self.error(f"argument {action.option_strings[0]}: {exc}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built per call, so that it reads files
    with this module's ``read_matrix`` at that time."""
    ap = _Parser(
        prog="kreinshift",
        description="Spectral shift operators and functions for Hermitian matrix pairs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    test_functions = "poly:c0,c1,... | gauss:mu,sigma | imres:re,im"

    def matrix(p, flag, what=None, help=None):
        read = read_matrix if what is None else lambda path: _load_hermitian(path, what)
        p.files = (*p.files, (p.add_argument(flag, required=True, help=help), read))

    p = sub.add_parser("xi", help="shift-function profile of a pair (H0, V) as CSV")
    matrix(p, "--h0", "base", "matrix file for the base matrix")
    matrix(p, "--v", "perturbation", "matrix file for the perturbation")
    p.add_argument("--grid", type=_arg(_parse_grid), default="auto", help="min:max:count or auto")
    p.add_argument(
        "--rank-tol", dest="rank_tol", type=_arg(lambda x: check_tolerance("rank_tol", float(x))),
        default=1e-12,
        help="eigenvalues of V below this times its norm are dropped from its factorization",
    )
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("logm", help="logarithm of a dissipative matrix as CSV")
    matrix(p, "--t", help="matrix file for the argument")
    p.add_argument(
        "--branch", choices=("log", "ln"), default="log",
        help="log: cut along the negative imaginary axis (integral route); "
        "ln: principal branch via the eigendecomposition route",
    )
    p.add_argument("--anti", action="store_true", help="argument is anti-dissipative")
    p.add_argument(
        "--rel-tol", dest="rel_tol", type=_arg(lambda x: check_tolerance("rel_tol", float(x))),
        default=1e-11, help="relative tolerance of the quadrature logarithm",
    )
    p.set_defaults(func=_cmd_logm)

    p = sub.add_parser("check", help="run seeded verification suites")
    p.add_argument("suite", type=_suite_name, help="a suite name, or all")
    p.add_argument("--seed", type=_seed, default=None, help="a non-negative integer")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("average", help="weak-pairing averaging identity for V(s) = s V")
    matrix(p, "--h0", "base")
    matrix(p, "--v", "path direction", "matrix file for the path direction")
    p.add_argument("--s-range", dest="s_range", type=_arg(_parse_srange), default="0:1", help="a:b")
    p.add_argument("--f", type=_arg(_parse_f), default="poly:0,1", help=test_functions)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("op-average", help="operator averaging identity for a factor K")
    matrix(p, "--h0", "base")
    matrix(p, "--k", help="matrix file for the factor K")
    p.add_argument("--s-range", dest="s_range", type=_arg(_parse_srange), default="0:1", help="a:b")
    p.add_argument("--f", type=_arg(_parse_f), default="poly:0,1")
    p.set_defaults(func=_cmd_op_average)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output here instead of stdout")
    return ap


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # only from --help, once the usage is printed
            return EXIT_OK
        with _one_blas_thread(), _output(args) as stream:
            return args.func(args, stream)
    except KreinShiftError as exc:
        # malformed input is a usage error; violated mathematical bounds
        # and exhausted iterations are math failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParseError) else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
