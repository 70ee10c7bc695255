"""Hashes of the outputs that a change should keep byte for byte.

Run from the repository root (pytest does not collect this file):

    python tests/identity.py [--src DIR] > hashes.txt
    python tests/identity.py compare BASE.txt HEAD.txt NAMED.txt

The first form imports kreinshift from DIR (default: the ``src`` of this
checkout) and prints one line per output, ``<sha256>  <name>``:

* ``check-all/seed-S``: ``kreinshift check all --seed S`` for S in 1729
  and 0-3, exit code included
* ``xi-cli/seed-S/<pair>``: the ``xi --grid auto`` CSV of each job of the
  ``xi-cli`` benchmark workload at seeds 1-3, and ``xi-ci/6x6`` and
  ``xi-ci/120x8`` on the pairs the CI workflow writes
* ``logm/t`` and ``logm/t-anti``: ``logm`` and ``logm --anti`` on the CI
  workflow's ``t.json`` and ``t-anti.json``
* ``average/2x2``, ``op-average/2x2`` and ``op-average/2x2-negative``:
  ``average``, ``op-average`` and ``op-average --s-range=-1:-0.2`` on the
  CI workflow's ``h0d.json``, ``v2.json`` and ``k2.json``
* ``logm-eps/logm/seed-S``: the 240 ``logm_dissipative`` results on the
  inputs of the ``logm-eps`` workload at seeds 1-5
* ``logm-eps/eps/seed-S``: the eps-route values and convergence records at
  the points of the ``logm-eps`` workload at seeds 1-10

Everything runs in this process with OpenBLAS at one thread, the pin the
CLI uses, so the hashes do not depend on OPENBLAS_NUM_THREADS.  The inputs
come from ``bench/inputs.py`` and ``bench/workloads.py`` (never edited
here) and, for the CI pairs, from ``kreinshift.generators`` as the workflow
draws them.  An output that raises is hashed as its exception.

The second form prints every output whose hash differs between two such
listings, and exits 1 when one of them is not named, as a whole word, in
NAMED.txt (for instance the lines a change adds to CHANGES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _guarded(compute) -> str:
    """The digest ``compute`` returns, or the digest of what it raised."""
    try:
        return compute()
    except Exception as exc:  # a refusal is an output too
        return _digest("raised", type(exc).__name__, str(exc))


def _cli_output(argv, out: Path) -> str:
    from kreinshift import cli

    def run():
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(out)])
        return _digest("exit", code, err.getvalue(), out.read_bytes() if out.exists() else b"")

    return _guarded(run)


def _ci_files(tmp: Path) -> None:
    """The matrix files of the CI workflow's thread-count step, and the 2x2
    ones of its exit-code step that the averaging commands read."""
    import numpy as np

    from kreinshift.generators import (
        random_dissipative,
        random_hermitian,
        random_indefinite,
        random_pair,
    )
    from kreinshift.io import write_matrix

    h0, v = random_pair(np.random.default_rng(7), 6, 8)
    write_matrix(tmp / "h0.json", h0)
    write_matrix(tmp / "v.json", v)
    t = random_dissipative(np.random.default_rng(5), 5, allow_flat=False)
    write_matrix(tmp / "t.json", t)
    write_matrix(tmp / "t-anti.json", t.conj().T)
    rng = np.random.default_rng(7)
    write_matrix(tmp / "h0-120.json", random_hermitian(rng, 120))
    write_matrix(tmp / "v-120.json", random_indefinite(rng, 120, 8))
    write_matrix(tmp / "h0d.json", np.diag([0.0, 1.0]))
    write_matrix(tmp / "v2.json", np.array([[1.0, 0.4], [0.4, 1.0]]))
    write_matrix(tmp / "k2.json", np.array([[1.0, 0.0], [0.5, 1.0]]))


def outputs(src: Path, tmp: Path):
    """(name, sha256) of every output, in a fixed order."""
    import workloads

    for seed in (1729, 0, 1, 2, 3):
        yield f"check-all/seed-{seed}", _cli_output(
            ["check", "all", "--seed", str(seed)], tmp / "check.txt"
        )
    for seed in (1, 2, 3):
        job_dir = tmp / f"xi-{seed}"
        job_dir.mkdir()
        wl = workloads.XiCli(seed, src, job_dir)
        wl.prepare()
        for argv, csv, _ in wl.jobs:
            yield f"xi-cli/seed-{seed}/{csv.stem}", _cli_output(argv[:-2], csv)
    _ci_files(tmp)
    for name, h0, v in (("6x6", "h0.json", "v.json"), ("120x8", "h0-120.json", "v-120.json")):
        argv = ["xi", "--h0", str(tmp / h0), "--v", str(tmp / v), "--grid", "auto"]
        yield f"xi-ci/{name}", _cli_output(argv, tmp / "xi.csv")
    yield "logm/t", _cli_output(["logm", "--t", str(tmp / "t.json")], tmp / "logm.csv")
    yield "logm/t-anti", _cli_output(
        ["logm", "--t", str(tmp / "t-anti.json"), "--anti"], tmp / "logm.csv"
    )
    h0d = ["--h0", str(tmp / "h0d.json")]
    k2 = ["--k", str(tmp / "k2.json")]
    yield "average/2x2", _cli_output(
        ["average", *h0d, "--v", str(tmp / "v2.json")], tmp / "average.csv"
    )
    yield "op-average/2x2", _cli_output(["op-average", *h0d, *k2], tmp / "average.csv")
    yield "op-average/2x2-negative", _cli_output(
        ["op-average", *h0d, *k2, "--s-range=-1:-0.2"], tmp / "average.csv"
    )

    from kreinshift import herglotz, oplog

    def logm_eps(seed: int):
        wl = workloads.LogmEps(seed, src, tmp)
        wl.prepare()
        return wl

    for seed in range(1, 6):
        wl = logm_eps(seed)
        yield f"logm-eps/logm/seed-{seed}", _guarded(
            lambda: _digest(*(oplog.logm_dissipative(t).tobytes() for t in wl.mats))
        )
    for seed in range(1, 11):
        wl = logm_eps(seed)

        def eps_values():
            wl.build()
            parts = []
            for fam, pts in zip(wl.fams, wl.points):
                for lam in pts:
                    for which in herglotz.SignBlock:
                        val, rec = herglotz.boundary_log(fam, which, lam, route="eps")
                        parts += [val.tobytes(), rec]
            return _digest(*parts)

        yield f"logm-eps/eps/seed-{seed}", _guarded(eps_values)


def _hash(src: Path) -> None:
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "bench"))
    from kreinshift.cli import _one_blas_thread

    with tempfile.TemporaryDirectory() as tmp, _one_blas_thread():
        for name, digest in outputs(src, Path(tmp)):
            print(f"{digest}  {name}", flush=True)


def _read(path: str) -> dict:
    rows = (line.split() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in rows}


def _compare(base: str, head: str, named: str) -> int:
    before, after = _read(base), _read(head)
    text = Path(named).read_text(encoding="utf-8")
    unnamed = 0
    for name in sorted(set(before) | set(after)):
        if before.get(name) == after.get(name):
            continue
        ok = re.search(rf"(?<![\w/-]){re.escape(name)}(?![\w/-])", text) is not None
        unnamed += not ok
        print(f"{'named' if ok else 'NOT NAMED'}: {name} {before.get(name)} -> {after.get(name)}")
    print(f"{unnamed} moved output(s) not named")
    return 1 if unnamed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command")
    p = sub.add_parser("compare", help="list the outputs that differ between two listings")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("named")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="kreinshift sources to hash")
    args = ap.parse_args(argv)
    if args.command == "compare":
        return _compare(args.base, args.head, args.named)
    _hash(args.src.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
