"""Benchmark of kreinshift: four seeded workloads, checked answers, end-to-end
metrics, and a traced run that gives per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload xi-cli --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Details
(every latency, set-up sample and round) go to ``.bench_out/``, and the
traced run writes its spans there too.  See bench/README.md.
"""

import os

# Pinned before numpy is first imported, here and in every child process:
# BLAS threads only busy-wait at these sizes (r <= 100).  The program's pool
# is pinned to one thread too, so parallel.ordered_map always takes its
# inline loop and its ThreadPoolExecutor never runs here: its GIL-bound
# tasks gain nothing from a second thread, and on a 2-vCPU host the
# hand-offs between two threads made the same job's time vary up to 3x from
# run to run (see bench/README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KREIN_SHIFT_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}

# <span name>.<calls | self_s | child_s>, plus the two EXTRA_COUNTS below and
# trace.overhead_s, which comes last and is not read from spans
PER_LAYER = [
    "herglotz.family.calls",
    "herglotz.family.self_s",
    "herglotz.boundary_log_direct.calls",
    "herglotz.boundary_log_direct.self_s",
    "matkit.eig_hermitian.calls",
    "matkit.eig_hermitian.self_s",
    "shift.grid.self_s",
    "shift.compute_profile.self_s",
    "herglotz.boundary_log_eps.calls",
    "herglotz.boundary_log_eps.self_s",
    "herglotz.eps_steps",
    "oplog.logm.calls",
    "oplog.logm.self_s",
    "quadrature.integrate.calls",
    "quadrature.integrate.self_s",
    "quadrature.panels",
    "shift.xi_via_det.calls",
    "shift.xi_via_det.self_s",
    "shift.counting_oracle.calls",
    "shift.counting_oracle.self_s",
    "parallel.ordered_map.self_s",
    "parallel.ordered_map.child_s",
    "checks.run_suite.self_s",
    "averaging.pairing.self_s",
    "averaging.operator.self_s",
    "io.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
]
# counts summed from span records (eps steps, quadrature panels)
EXTRA_COUNTS = {
    "herglotz.eps_steps": "herglotz.boundary_log_eps",
    "quadrature.panels": "quadrature.integrate",
}
SETUP_REPEATS = 7


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_program(root: Path):
    """Import kreinshift from the checkout's sources, never from elsewhere."""
    src = root / "src"
    if not (src / "kreinshift" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'kreinshift'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import kreinshift

    if Path(kreinshift.__file__).resolve().parent != (src / "kreinshift").resolve():
        raise SystemExit(f"error: imported kreinshift from {kreinshift.__file__}, not {src}")
    return kreinshift, src


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "KREIN_SHIFT_THREADS")},
    }


def quartiles(xs) -> list:
    xs = list(xs)
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


# ----------------------------------------------------------------------

def measure(wl, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set-up repeated, then whole rounds until ``seconds`` of
    timed work are done."""
    wl.setup_once()  # first interpreter start compiles bytecode; not counted
    setups = [wl.setup_once() for _ in range(SETUP_REPEATS)]
    walls, lats = [], []
    att = fail = 0
    while sum(walls) < seconds:
        t0 = time.perf_counter()
        lat, verify = wl.round(inprocess=False)
        walls.append(time.perf_counter() - t0)
        lats += lat
        a, f = verify()
        att, fail = att + a, fail + f
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": (att - fail) / sum(walls),
        "job_p50_s": statistics.median(lats),
        "peak_rss_mb": wl.rss_mb(),
    }
    details = {
        "setup_samples_s": setups,
        "round_walls_s": walls,
        "job_latencies_s": lats,
        "job_quartiles_s": quartiles(lats),
    }
    result = {
        "correct": fail == 0,
        "attempted": att,
        "failed": fail,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
    }
    return result, details


def traced(wl, seconds: float, package, spans_path: Path) -> tuple[dict, dict]:
    """Traced run, all in this process: pairs of one untraced and one traced
    round, until ``seconds`` of timed work are done.  A round of an
    in-process workload rebuilds its families, so their construction is
    traced too."""
    import spans as spans_mod

    tracer = spans_mod.Tracer(package)
    rebuild = hasattr(wl, "build")
    if rebuild:
        wl.build()

    def one_round():
        if rebuild:
            wl.build()
        t0 = time.perf_counter()
        lat, verify = wl.round(inprocess=True)
        return time.perf_counter() - t0, lat, verify

    plain, walls, aggs, kept = [], [], [], []
    plain_lats, traced_lats = [], []
    att = fail = 0
    while sum(plain) + sum(walls) < seconds:
        wall, lat, verify = one_round()
        plain.append(wall)
        plain_lats += lat
        a, f = verify()
        att, fail = att + a, fail + f
        tracer.install()
        try:
            wall, lat, verify = one_round()
        finally:
            tracer.uninstall()
        walls.append(wall)
        traced_lats += lat
        spans = tracer.take()
        kept.append(spans)
        aggs.append(spans_mod.aggregate(spans))
        a, f = verify()
        att, fail = att + a, fail + f
    spans_mod.dump(spans_path, kept)

    per_round = [layer_values(agg) for agg in aggs]
    values, unsteady = {}, []
    for name in PER_LAYER[:-1]:
        series = [r[name] for r in per_round]
        if name.endswith("_s"):
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if len(set(series)) > 1:
                unsteady.append(name)
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    if unsteady:
        print(f"warning: counts differ between traced rounds: {unsteady}", file=sys.stderr)
    result = {
        "correct": fail == 0,
        "attempted": att,
        "failed": fail,
        "metrics": {
            k: {"value": values[k], "unit": "s" if k.endswith("_s") else "1"} for k in PER_LAYER
        },
    }
    details = {
        "untraced_round_walls_s": plain,
        "traced_round_walls_s": walls,
        "untraced_job_quartiles_s": quartiles(plain_lats),
        "traced_job_quartiles_s": quartiles(traced_lats),
        "per_round": per_round,
        "counts_differ_between_rounds": unsteady,
        "spans_file": str(spans_path),
    }
    return result, details


def layer_values(agg: dict) -> dict:
    out = {}
    for name in PER_LAYER[:-1]:
        if name in EXTRA_COUNTS:
            out[name] = agg.get(EXTRA_COUNTS[name], {}).get("extra", 0)
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = agg.get(span, {}).get(stat, 0)
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    root = Path.cwd()
    package, src = load_program(root)
    from workloads import WORKLOADS

    out = root / ".bench_out"
    work = out / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, src, work)
    wl.prepare()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, details = traced(wl, args.seconds, package, out / f"{tag}.spans.jsonl")
    else:
        result, details = measure(wl, args.seconds)
    details.update(args=vars(args), environment=environment(), result=result)
    (out / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
