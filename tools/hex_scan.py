"""Bit-level scan of the series routes: one line per cell, and a diff of two scans.

    python3 tools/hex_scan.py --src P/src > parent.jsonl
    python3 tools/hex_scan.py > change.jsonl
    python3 tools/hex_scan.py --diff parent.jsonl change.jsonl [--ref]

A scan writes, for every cell, (value.hex, bound.hex, terms_used, method),
or the error it raised, as one JSON line. The cells are every series
candidate of perfbench's eval-light and eval-heavy pools at the size that
BENCHMARK.json's run_seconds gives (perfbench is only read), then --cells
seeded cells of each of three extra bands: "disc" (|beta| < 1, a third of
them with 1 - |beta| in [1e-5, 0.05]), "unit" (beta = +-1) and "phida"
(eval_phi_da_direct), with a in (-3, 60], integers included, b in
[0.05, 50] and alpha in [0, 5]. --src imports ramaseries from another
checkout's src, so that one copy of this tool scans both sides.

--diff prints how many cells differ in any of the four fields (or in the
error), by band and by method on each side, and the first few of each
group. With --ref it also scores each changed cell of B against
perfbench/reference.py (mpmath): whether B's bound holds and meets the
target max(1e-12, 1e-13 |value|), and whether A's met it.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERIES_FNS = ("eval_psi_general", "eval_phi", "eval_phi_tilde", "eval_phi_da_direct")


def pool_cells():
    """(band, fn, args, cap) of every series candidate of the eval pools."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for w in ("eval-light", "eval-heavy"):
        for variants in workloads.pool(w, run.OPS_PER_SECOND[w] * seconds):
            for fn, args, cap, band in variants:
                if fn in SERIES_FNS:
                    yield "%s/%s" % (w, band), fn, list(args), cap


def seeded_cells(count: int, seed: int):
    """(band, fn, args, None) of the seeded disc, unit and phida cells."""
    rng = random.Random("hex_scan/%d" % seed)

    def a_b_alpha(least):
        alpha = rng.choice([0.0, 1.0, 2.0, rng.uniform(0.0, 5.0)])
        while True:
            a = float(rng.randrange(61)) if rng.random() < 0.2 else rng.uniform(-3.0, 60.0)
            if a + alpha > least:
                return a, math.exp(rng.uniform(math.log(0.05), math.log(50.0))), alpha

    for k in range(count):
        a, b, alpha = a_b_alpha(-math.inf)
        beta = (rng.choice((-1.0, 1.0)) * (1.0 - math.exp(rng.uniform(math.log(1e-5), math.log(0.05))))
                if k % 3 == 0 else rng.uniform(-0.99, 0.99))
        yield "disc", "eval_psi_general", [a, b, beta, alpha], None
    for k in range(count):
        a, b, alpha = a_b_alpha(-1.0)
        yield "unit", "eval_phi" if k % 2 else "eval_phi_tilde", [a, b, alpha], None
    for _ in range(count):
        a, b, n = a_b_alpha(-1.0)
        a = a if a > -0.99 else a + 2.0
        yield "phida", "eval_phi_da_direct", [a, b, int(n)], None


def call(se, fn, args, cap):
    kw = {} if cap is None else {"cap": cap}
    if fn == "eval_psi_general":
        return se.eval_psi_general(se.SeriesParams(*args), **kw)
    return getattr(se, fn)(*args, **kw)


def scan(count: int, seed: int, out) -> None:
    from ramaseries import series_engine as se
    for band, fn, args, cap in [*pool_cells(), *seeded_cells(count, seed)]:
        row = {"band": band, "fn": fn, "args": args, "cap": cap}
        try:
            r = call(se, fn, args, cap)
            row.update(value=r.value.hex(), bound=r.abs_error_bound.hex(), terms=r.terms_used,
                       method=r.method)
        except (ArithmeticError, ValueError) as exc:  # DomainError, DivergenceError and kin
            row["error"] = "%s: %s" % (type(exc).__name__, exc)
        out.write(json.dumps(row) + "\n")


def load(path: str) -> dict:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {repr((r["fn"], r["args"], r["cap"])): r for r in rows}


def outcome(row) -> str:
    return row.get("error") or "%s %s %s %s" % (row["value"], row["bound"], row["terms"], row["method"])


def method(row) -> str:
    return "error" if "error" in row else row["method"]


def score(row, ref) -> tuple:
    """(bound held, target met) of a scanned row against a reference mpf."""
    if "error" in row:
        return False, False
    value, bound = float.fromhex(row["value"]), float.fromhex(row["bound"])
    return abs(value - ref) <= bound, bound <= max(1e-12, 1e-13 * abs(value))


def diff(path_a: str, path_b: str, with_ref: bool, shown: int) -> int:
    a, b = load(path_a), load(path_b)
    if a.keys() != b.keys():
        print("the scans cover different cells: %d only in A, %d only in B"
              % (len(a.keys() - b.keys()), len(b.keys() - a.keys())))
        return 1
    groups = collections.defaultdict(list)
    for key, row in a.items():
        if outcome(row) != outcome(b[key]):
            groups[(row["band"], method(row), method(b[key]))].append(key)
    bands = collections.Counter(row["band"] for row in a.values())
    print("%d cells, %d differ" % (len(a), sum(map(len, groups.values()))))
    for band in sorted(bands):
        print("  %-26s %6d cells, %6d differ" % (band, bands[band],
                                                 sum(len(v) for g, v in groups.items() if g[0] == band)))
    if with_ref:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import reference
    for (band, ma, mb), keys in sorted(groups.items()):
        print("%s: %s -> %s, %d cells" % (band, ma, mb, len(keys)))
        if with_ref:
            tally = collections.Counter()
            for key in keys:
                ref = reference.value(a[key]["fn"], a[key]["args"])
                held_b, met_b = score(b[key], ref)
                _, met_a = score(a[key], ref)
                tally.update(held_b=held_b, met_b=met_b, met_a=met_a)
            print("  against the reference: B's bound held on %d, B met the target on %d, A met it on %d"
                  % (tally["held_b"], tally["met_b"], tally["met_a"]))
        for key in keys[:shown]:
            print("  %s %s\n    A %s\n    B %s" % (a[key]["fn"], a[key]["args"], outcome(a[key]),
                                                   outcome(b[key])))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory to import")
    ap.add_argument("--cells", type=int, default=2000, help="seeded cells of each extra band")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two scans instead")
    ap.add_argument("--ref", action="store_true", help="with --diff, score changed cells by mpmath")
    ap.add_argument("--show", type=int, default=3, help="with --diff, cells listed per group")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff, args.ref, args.show)
    sys.path.insert(0, os.path.abspath(args.src))
    scan(args.cells, args.seed, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
