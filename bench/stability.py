"""Run the benchmark in sets of runs and report how steady each metric is.

    python3 bench/stability.py [--sets 2] [--runs 10] [--workloads classify,poset]

Each set runs every workload ``--runs`` times, one run per seed, taking the
workloads in turn so that a slow spell of the host is shared among them.
For every end-to-end metric of every workload it prints each set's median
and quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median``, and how far each later set's median moved from the
first set's, against the metric's bound in BENCHMARK.json.  It also checks
that the share of failed ops is the same in every set.  The full figures go
to ``bench/out/stability.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = 1000 * (s + 1) + i + 1
                res = run_once(w, seed, spec["run_seconds"])
                if not res["correct"]:
                    raise RuntimeError(f"{w} seed {seed}: wrong output")
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), file=sys.stderr)

    report, steady = {}, True
    for w in workloads:
        report[w] = {}
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[w]
        }
        print(f"\n{w}: failed share {sorted(shares)}")
        steady &= len(shares) == 1
        for name, m in metrics.items():
            sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            first = sets[0]["median"]
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (s["median"] - first) / first for s in sets[1:]]
            ok = all(x <= m["bound"] for x in worse) and (
                name == "setup_s" or all(s["spread"] <= m["bound"] for s in sets))
            steady &= ok
            report[w][name] = {"sets": sets, "worse_than_first": worse, "bound": m["bound"], "ok": ok}
            cells = "  ".join(
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.1%}" for s in sets)
            moved = ", ".join(f"{x:+.1%}" for x in worse)
            print(f"  {name:12} {cells}  worse by {moved} (bound {m['bound']:.0%}) {'ok' if ok else 'NOT OK'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "stability.json").write_text(json.dumps(
        {"runs": args.runs, "seconds": spec["run_seconds"], "report": report, "results": results},
        indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
