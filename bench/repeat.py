"""Repeat bench/run.py over several seeds and report how steady it is.

    python3 bench/repeat.py --workloads xi-cli check-all --seeds 1-10

For each workload and end-to-end metric this prints the median of the runs
and the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json, and the share of failed operations.  Every run's result
line is appended to ``.bench_out/repeat.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = Path(".bench_out") / "repeat.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    for wl in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(res)
            with open(log, "a", encoding="utf-8") as fp:
                fp.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        print(f"{wl}: {len(runs)} runs, failed {fail}/{att}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  over a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:34s} median {med:12.6g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound else "") + flag)
    if worst:
        print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
