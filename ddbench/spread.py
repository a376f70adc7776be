"""Run the benchmark over several seeds and report each metric's spread.

    python3 ddbench/spread.py --seconds 20 --seeds 10 [--first-seed 1]
        [--workloads im4x4 sd4x4] [--trace] [--out ddbench/trajectory/BENCH_x.json]

For each workload, runs ``run.py`` once per seed, one after another, and
reports per end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``.
``--trace`` adds one traced run per workload at the first seed and records
its per-layer metrics.  ``--out`` writes everything as one JSON trajectory
point.  Exits nonzero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__).resolve()


def bench(workload, seed, seconds, trace):
    """Result line and environment block of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)} failed:\n{proc.stderr}")
    env = [line[2:] for line in lines if line.startswith("# ")]
    return json.loads(lines[-1]), env


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    point = {"seconds": args.seconds, "seeds": seeds, "env": None, "workloads": {}}
    for name in args.workloads:
        values, units = {}, {}
        for seed in seeds:
            result, env = bench(name, seed, args.seconds, trace=False)
            point["env"] = point["env"] or env[0]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"end_to_end": {}}
        for metric, vals in values.items():
            entry["end_to_end"][metric] = dict(summarize(vals), unit=units[metric])
            s = entry["end_to_end"][metric]
            print(f"{name} {metric}: median {s['median']:.6g} {units[metric]}, "
                  f"spread {100 * s['spread']:.2f}%", flush=True)
        if args.trace:
            result, _ = bench(name, seeds[0], args.seconds, trace=True)
            entry["per_layer"] = result["metrics"]
        point["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
