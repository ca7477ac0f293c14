"""Write one point of the benchmark trajectory (BENCH_<pr>.json) from perfbench results.

    python3 tools/bench_point.py --pr 17 --parent-commit 8c028f4 \\
        --parent P/.perfbench_cache/results --change C/.perfbench_cache/results \\
        --host "2-core x86_64 Linux host, ..."

--parent and --change are directories of perfbench result lines, one file
per run, named as perfbench names its own result files:
<workload>-seed<N>-trace<T>.json. A file may also be a run's whole stdout;
its last line is the result. A seed run on both sides at trace 0 is one
pair. For each workload and end-to-end metric the point holds the runs of
each side in seed order, their median and quartiles (linear
interpolation), how many pairs the change won and lost, and the relative
change of the medians. The bound and direction of each metric come from
BENCHMARK.json. A seed traced on both sides (trace 1) adds its per-layer
rows whose names start with one of ROWS. --extra KEY=FILE adds a JSON
block, such as a measurement made outside perfbench, under KEY.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^(?P<workload>[a-z-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
ROWS = ("quadrature.", "identities.", "errata.", "verify.", "cli.", "trace.")
PAIRING = "parent and change alternate which runs first, pair by pair; quartiles are linear percentiles"


def read_results(directory: str) -> dict:
    """(workload, seed, trace) -> the result object of that run."""
    out = {}
    for name in sorted(os.listdir(directory)):
        m = NAME.match(name)
        if m is None:
            continue
        with open(os.path.join(directory, name)) as fh:
            last = [line for line in fh.read().splitlines() if line.strip()][-1]
        out[m["workload"], int(m["seed"]), int(m["trace"])] = json.loads(last)
    return out


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def workload_point(workload: str, parent: dict, change: dict, spec: dict) -> dict:
    seeds = sorted(s for (w, s, t) in parent if w == workload and t == 0
                   and (w, s, t) in change)
    sides = {"parent": [parent[workload, s, 0] for s in seeds],
             "change": [change[workload, s, 0] for s in seeds]}
    point = {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": {k: all(r["correct"] for r in v) for k, v in sides.items()},
        "failed": {k: sum(r["failed"] for r in v) for k, v in sides.items()},
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = {k: [r["metrics"][name]["value"] for r in v] for k, v in sides.items()}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        gains = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
        row = {"unit": sides["parent"][0]["metrics"][name]["unit"],
               "better": metric["better"], "bound": metric["bound"]}
        row.update({k: summary(v) for k, v in runs.items()})
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row.update(change_wins=sum(g > 0 for g in gains), change_losses=sum(g < 0 for g in gains),
                   median_change_rel=(cm - pm) / pm if pm else 0.0)
        point["metrics"][name] = row
    traced = sorted(s for (w, s, t) in parent if w == workload and t == 1
                    and (w, s, t) in change)
    if traced:
        seed = traced[0]
        p, c = parent[workload, seed, 1]["metrics"], change[workload, seed, 1]["metrics"]
        point["traced"] = {"seed": seed, "rows": {
            name: {"unit": p[name]["unit"], "parent": p[name]["value"], "change": c[name]["value"]}
            for name in p if name in c and name.startswith(ROWS)}}
    return point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--parent", required=True, help="directory of the parent's result files")
    ap.add_argument("--change", required=True, help="directory of the change's result files")
    ap.add_argument("--host", required=True, help="the machine the runs were made on")
    ap.add_argument("--extra", action="append", default=[], metavar="KEY=FILE")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = read_results(args.parent), read_results(args.change)
    point = {
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1",
        "host": args.host,
        "pairing": PAIRING,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        if any(k[0] == workload and k in change for k in parent):
            point["workloads"][workload] = workload_point(workload, parent, change, spec)
    for item in args.extra:
        key, _, path = item.partition("=")
        with open(path) as fh:
            point[key] = json.load(fh)
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print("wrote %s: %s" % (out, ", ".join("%s %d pairs" % (w, p["pairs"])
                                           for w, p in point["workloads"].items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
