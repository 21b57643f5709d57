"""Run one enorbits benchmark workload and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 15 --trace 0

The run imports enorbits from ``src/`` next to this directory and exits 2
without a result when it is not there.  It makes the workload's inputs
from the seed, sets up (imports enorbits, builds the program objects and
runs one untimed warm-up op of each kind) ``SETUP_REPS`` times, then runs
whole rounds of the workload's ops, in an order shuffled by the seed,
until the ops have taken ``--seconds`` in all and at least the workload's
``min_rounds`` are done.  Garbage is collected before each op, outside its
timing.  Every output is checked against ``refs``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics, from a ``Tracer``,
with ``--trace 1``.  The run also writes everything it measured to
``bench/out/run-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import loads  # noqa: E402  (the benchmark's own modules; none imports enorbits)
from tracer import Tracer  # noqa: E402

SETUP_REPS = 5
LAYER_MODULES = ("linalg", "orbits", "gl2", "partitions", "census", "cli")


def import_enorbits():
    """Import the package's layer modules from ``SRC``."""
    eo = SimpleNamespace(
        **{name: importlib.import_module(f"enorbits.{name}") for name in LAYER_MODULES}
    )
    if Path(eo.linalg.__file__).resolve().parent != SRC / "enorbits":
        raise ImportError(f"enorbits was imported from {eo.linalg.__file__}, not {SRC}")
    return eo


def set_up(workload, items, reps):
    """Import, build the program objects and warm up, ``reps`` times.

    Before each repetition after the first, every module the previous one
    imported is dropped from ``sys.modules``, so each repetition imports
    enorbits and its dependencies afresh.  The warm-up outputs are checked
    after the repetition's timing ends.  Returns the last repetition's
    package and ops, the seconds each repetition took, and whether every
    warm-up output passed its check.
    """
    baseline = set(sys.modules)
    seconds, warm_ok = [], True
    for rep in range(reps):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        start = time.perf_counter()
        eo = import_enorbits()
        ops = [workload.build(eo, item) for item in items]
        first_of_kind = {}
        for op in ops:
            first_of_kind.setdefault(op.kind, op)
        warm = [(op, op.call()) for op in first_of_kind.values()]
        seconds.append(time.perf_counter() - start)
        warm_ok &= all(op.check(out) for op, out in warm)
    return eo, ops, seconds, warm_ok


def measure(workload, seed, seconds, trace, setup_reps=SETUP_REPS):
    """One run; returns (result line, full record)."""
    rng = random.Random(seed)
    items = workload.inputs(rng)
    eo, ops, setup_seconds, correct = set_up(workload, items, setup_reps)
    order = list(range(len(ops)))
    rng.shuffle(order)

    tracer = Tracer() if trace else None
    latencies, kinds, per_round = [], [], []
    failed = rounds = 0
    timed = 0.0
    gc.collect()
    if tracer:
        tracer.install(eo)
    try:
        while rounds < workload.min_rounds or timed < seconds:
            for i in order:
                op = ops[i]
                gc.collect()
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # counted, and the run goes on
                    timed += time.perf_counter() - start
                    failed += 1
                    print(f"op {op.kind} failed: {exc!r}", file=sys.stderr)
                    continue
                spent = time.perf_counter() - start
                timed += spent
                latencies.append(spent)
                kinds.append(op.kind)
                if not op.check(out):
                    correct = False
                    print(f"op {op.kind}: wrong output", file=sys.stderr)
            rounds += 1
            if tracer:
                per_round.append(tracer.counts())
    finally:
        if tracer:
            tracer.uninstall()

    done = len(latencies)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[workload.tail_pct - 1]
    end_to_end = {
        "ops_per_s": (done / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "seed": seed,
        "trace": int(bool(tracer)),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_pct": workload.tail_pct,
        "ops_beyond_tail": sum(1 for t in latencies if t > tail),
        "setup_seconds": setup_seconds,
        "kind_median_ms": {
            kind: statistics.median(t for t, k in zip(latencies, kinds) if k == kind) * 1e3
            for kind in sorted(set(kinds))
        },
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    if tracer:
        # counts are per round: every round makes the same calls, so the
        # run's total divided by its rounds repeats exactly across runs
        first = per_round[0]
        deltas = [
            {k: b[k] - a[k] for k in first} for a, b in zip([dict.fromkeys(first, 0)] + per_round, per_round)
        ]
        if any(d != deltas[0] for d in deltas):
            print("warning: call counts differ between rounds", file=sys.stderr)
        layer = {name: {"value": value, "unit": "count"} for name, value in deltas[0].items()}
        for name, spent in tracer.times().items():
            layer[name] = {"value": spent * 1e3 / done, "unit": "ms"}
        metrics = layer
        record["per_layer"] = {name: m["value"] for name, m in layer.items()}
        record["call_graph"] = tracer.call_graph()
    result = {"correct": correct, "attempted": done + failed, "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enorbits" / "__init__.py").is_file():
        print(f"error: no enorbits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = measure(loads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    record = {"workload": args.workload, **record}
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    summary = ", ".join(f"{k} {v:.1f} ms" for k, v in record["kind_median_ms"].items())
    print(
        f"{args.workload} seed {args.seed}: {record['rounds']} rounds of {record['ops_per_round']} ops, "
        f"{record['ops_beyond_tail']} beyond p{record['tail_pct']}; median {summary}; "
        f"setup reps {', '.join(f'{s:.3f}' for s in record['setup_seconds'])} s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
