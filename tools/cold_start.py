"""Wall time of fresh `python -m ramaseries` processes, one row per command.

    python3 tools/cold_start.py --runs 9 --side parent=P --side change=C > cold.json
    python3 tools/bench_point.py ... --extra cold_start=cold.json

Each --side NAME=CHECKOUT runs the package in CHECKOUT/src; the default is
one side, "change", this checkout. Every command runs --runs times on every
side, each time in a new interpreter, after one untimed run that fills the
file cache (and, unless PYTHONDONTWRITEBYTECODE is set, the bytecode
cache). The runs go round-robin over commands and sides, and the side that
goes first alternates, so a slow spell of the host falls on all of them.
"bare" is `python -c pass`, the interpreter's own start. Each row gives the
median, the quartiles (linear interpolation) and every run, in ms. A run
that exits with another code than its command's raises.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# name -> (arguments to the interpreter, expected exit code)
COMMANDS = {
    "bare": (["-c", "pass"], 0),
    "eval_phi": (["-m", "ramaseries", "eval", "phi", "--a", "0.5", "--b", "1", "--n", "1"], 0),
    # a near-unit sum that the 256-term loop leaves to the integral route
    "eval_psi_near_unit": (["-m", "ramaseries", "eval", "psi", "--a", "0.5", "--b", "1",
                            "--beta=-0.999999", "--alpha", "1"], 0),
    # a beta = -1 sum whose head and tail would cancel: the integral route, no numpy
    "eval_phi_large_a": (["-m", "ramaseries", "eval", "phi", "--a", "50.5", "--b", "1", "--n", "0"], 0),
    "eval_integral_f1": (["-m", "ramaseries", "eval", "integral", "--form", "F1",
                          "--a", "0.5", "--b", "1", "--alpha", "1"], 0),
    # the cell of eval_phi, through table's grid and pool path
    "table_phi": (["-m", "ramaseries", "table", "phi", "--a", "0.5", "--b", "1", "--n", "1"], 0),
    # 130 x 21 x 2 = 5460 points in a 2-process pool
    "table_grid_2w": (["-m", "ramaseries", "table", "phi", "--a=-0.9:12:0.1", "--b", "0.25:2.25:0.1",
                       "--n", "0..1", "--workers", "2"], 0),
    "coeffs": (["-m", "ramaseries", "coeffs", "--p", "0.5", "--b", "1"], 0),
    # the two-sided suite holds the paper's honestly failing records: exit 1
    "verify_twosided": (["-m", "ramaseries", "verify", "twosided", "--workers", "1"], 1),
}


def run_ms(args: list, expect: int, env: dict) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms, and the
    # times come out in 50 ms steps
    code = subprocess.run([sys.executable] + args, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    ms = (time.perf_counter() - t0) * 1e3
    if code != expect:
        raise RuntimeError("%s exited %d, not %d" % (" ".join(args), code, expect))
    return ms


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "runs_ms": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=9, help="timed runs of each command on each side")
    ap.add_argument("--side", action="append", default=[], metavar="NAME=CHECKOUT")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = dict(item.partition("=")[::2] for item in args.side) or {"change": ROOT}
    envs = {}
    for name, checkout in sides.items():
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
        env.pop("RAMASERIES_WORKERS", None)
        envs[name] = env
    order = list(envs)
    times = {name: {cmd: [] for cmd in COMMANDS} for name in order}
    for name in order:
        for cmd, (cmd_args, expect) in COMMANDS.items():
            run_ms(cmd_args, expect, envs[name])
    for i in range(args.runs):
        for cmd, (cmd_args, expect) in COMMANDS.items():
            for name in (order if i % 2 == 0 else order[::-1]):
                times[name][cmd].append(run_ms(cmd_args, expect, envs[name]))
    out = {
        "what": "wall time of fresh interpreter processes, ms, one untimed run first",
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "runs": args.runs,
        "argv": {cmd: " ".join(["python"] + cmd_args) for cmd, (cmd_args, _) in COMMANDS.items()},
        "sides": {name: {cmd: summary(runs) for cmd, runs in times[name].items()} for name in order},
    }
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
