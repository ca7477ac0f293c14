"""Benchmark for ramaseries: three cost-homogeneous workloads, one command.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the environment and every metric by name and unit. The exit code is 1
when an output check fails, 2 when the benchmark cannot run at all or its
timed process runs past the time limit (then it prints what the finished
phases measured, and no result).

Workloads (each a fixed list, run in full, from a single timed process):
  eval-light  about 6000*S distinct library calls in the cheap regimes
              (finite, geometric |beta| <= 0.9, negative-integer closed
              form, power law with a + alpha + 2 >= 3.5 and a up to 60) and
              the scalars hurwitz_zeta, lerch_phi, digamma, gamma, s_prime,
              beta_f; 5 us to 0.5 ms a call
  eval-heavy  about 18*S slow tails: power law with 1 < a + alpha + 2 < 3.5,
              eval_phi_da_direct at non-integer a, and the near-unit
              geometric band 0.95 <= |beta| <= 0.999 with cap=200_000;
              3 ms to 0.4 s a call
  verify-all  `ramaseries verify all --format jsonl` through cli.main,
              serially and with --workers 2, repeated for S seconds; the
              seed has no effect

Metrics (trace 0). An op is an eval call, or one suite task in verify-all.
  evals_per_s        ops per second of the serial pass
  p50_ms p90_ms p99_ms  per-op latency in the serial pass (in verify-all,
                     over the tasks of all its serial passes)
  bound_held_frac    share of EvalResults with |value - reference| <=
                     abs_error_bound, over all EvalResults of the workload
                     (in verify-all, those series_engine returns inside the
                     suite); 1 - the share of false bounds
  target_met_frac    share of EvalResults with abs_error_bound <=
                     max(1e-12, 1e-13 |value|); 1 - the share of target misses
The two accuracy shares count what went right, not what went wrong, so that
they stay above 0 on every workload: eval-heavy has no false bound at the
seed commit, and eval-light almost no target miss.
  suite_s            wall time of the serial pass over all ops
  suite_2w_s         wall time of the same ops on 2 worker processes
  setup_s            median over fresh processes of import + one warm-up
                     call per eval target
  peak_rss_mb        peak RSS of the timed process (which never imports mpmath)
verify-all reports the median of the other times over its passes.

Trace 1 runs the untraced measurement, then one serial pass with every
public function of every layer wrapped, and reports the per-layer metrics
and trace.overhead_frac (traced wall / untraced wall - 1).

References come from mpmath (reference.py) outside every timed region. The
eval workloads draw from a per-checkout pool of candidates whose references
are computed on the first run and cached in .perfbench_cache/; the suite's
series calls are referenced once per checkout the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
import multiprocessing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")
WORKLOADS = ("eval-light", "eval-heavy", "verify-all")
OPS_PER_SECOND = {"eval-light": 6000, "eval-heavy": 18}
SETUP_SAMPLES = 9
# The command must end within 180 s once the references exist. The timed
# process gets what is left of RUN_LIMIT_S after set-up, less what scoring
# its results takes afterwards (under 10 s at the seed commit, on 2 cores).
RUN_LIMIT_S = 170
SCORE_RESERVE_S = 20
REF_WORKERS = 2
# verify all: 495 records, of which the 16 two-sided printed-form records fail
SUITE_RECORDS, SUITE_PASS, SUITE_FAIL = 495, 479, 16
SUITE_FAIL_PREFIX = "two-sided b="
# scalars carry no bound; a relative error past this is a wrong answer
SCALAR_REL = 1e-10
TARGET_ABS, TARGET_REL = 1e-12, 1e-13

END_TO_END = (
    ("evals_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"), ("p99_ms", "ms"),
    ("bound_held_frac", "1"), ("target_met_frac", "1"), ("suite_s", "s"),
    ("suite_2w_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------- references

def _source_hash(*names) -> str:
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(HERE, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _ref_chunk(items):
    import reference
    return [(key, reference.as_text(reference.value(fn, args))) for key, fn, args in items]


def compute_refs(items):
    """{key: reference text} for (key, fn, args) items, on REF_WORKERS processes."""
    import reference
    reference.self_check()
    items = list(items)
    if not items:
        return {}
    step = max(1, min(200, -(-len(items) // (REF_WORKERS * 8))))
    chunks = [items[i:i + step] for i in range(0, len(items), step)]
    # fork, not spawn: a spawn context starts multiprocessing's resource
    # tracker, a process that outlives this one
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(REF_WORKERS, mp_context=ctx) as pool:
        return dict(pair for part in pool.map(_ref_chunk, chunks) for pair in part)


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _save(path, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".%d.tmp" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def _pool_path(workload, seconds):
    return os.path.join(CACHE, "refs-%s-%d-%s.json" % (
        workload, OPS_PER_SECOND[workload] * seconds, _source_hash("workloads.py", "reference.py")))


def build_pool_refs(workloads_mod, seconds) -> None:
    """Cache references for every candidate of every eval workload's pool.

    Every run calls this, so the first run in a checkout, whatever its
    workload, builds all of them and no later run pays for any.
    """
    for w in OPS_PER_SECOND:
        path = _pool_path(w, seconds)
        if os.path.exists(path):
            continue
        items = {}
        for variants in workloads_mod.pool(w, OPS_PER_SECOND[w] * seconds):
            for op in variants:
                items[workloads_mod.op_key(op)] = (op[0], op[1])
        t0 = time.perf_counter()
        refs = compute_refs((k, fn, args) for k, (fn, args) in items.items())
        print("built %d references for %s in %.0f s" % (len(refs), w, time.perf_counter() - t0))
        _save(path, refs)


def suite_refs(calls):
    """References for the series calls verify all makes, cached per checkout."""
    path = os.path.join(CACHE, "refs-verify-all-%s.json" % _source_hash("reference.py"))
    refs = _load(path) or {}
    missing = {}
    for c in calls:
        key = _call_key(c)
        if key not in refs:
            missing[key] = (c[0], _ref_args(c[0], c[1]))
    if missing:
        refs.update(compute_refs((k, fn, args) for k, (fn, args) in missing.items()))
        _save(path, refs)
    return refs


def _ref_args(fn, args):
    return args if fn != "eval_phi_da_direct" else [args[0], args[1], int(args[2])]


def _call_key(call) -> str:
    return repr((call[0], tuple(call[1]), call[2]))


# ------------------------------------------------------------------ checking

def _mp():
    import mpmath
    mpmath.mp.dps = 34
    return mpmath


def score_eval(value, bound, ref_text):
    """(bound_miss, target_miss) of one EvalResult.

    The miss is decided in floats when |value - reference| is clear of the
    bound by more than the rounding of that difference, else in mpmath.
    """
    ref = float(ref_text)
    err = abs(value - ref)
    slack = 2.3e-16 * (abs(ref) + err) + 1e-300
    if err - slack > bound:
        miss = True
    elif err + slack <= bound:
        miss = False
    else:
        mp = _mp()
        miss = abs(mp.mpf(value) - mp.mpf(ref_text)) > bound
    return miss, bound > max(TARGET_ABS, TARGET_REL * abs(value))


def _finite(*xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


def check_eval(ops, res, refs, key_of):
    """Score each op; returns per-op records and the failure count."""
    failed = 0
    scored = []
    for i, (op, row, row2) in enumerate(zip(ops, res["rows"], res["rows_2w"])):
        value, bound, terms, ns, error = row
        rec = {"op": op, "ns": ns, "value": value, "bound": bound, "terms": terms,
               "miss": False, "target": False, "rel": None, "ok": True}
        ref = refs[key_of(op)]
        if error is not None or not _finite(value) or (bound is not None and math.isnan(bound)):
            rec["ok"] = False
        elif row2[:3] != row[:3]:
            rec["ok"] = False  # the 2-worker pass must give the same bits
        elif bound is None:
            r = float(ref)
            err = abs(value - r)
            rec["rel"] = err / abs(r) if r else err
            rec["ok"] = err <= SCALAR_REL * max(1, abs(r))
        else:
            # a value off by more than its bound is scored, not failed: the
            # bound misses are what bound_held_frac measures
            rec["miss"], rec["target"] = score_eval(value, bound, ref)
        failed += not rec["ok"]
        scored.append(rec)
    if len(res["rows"]) != len(ops) or len(res["rows_2w"]) != len(ops):
        failed += len(ops)
    return scored, failed


def check_suite(res):
    """Failure count for verify all: counts, verdicts and byte-identical output."""
    lines = res["output"].splitlines()
    failed = 0
    try:
        rows = [json.loads(line) for line in lines]
    except ValueError:
        return SUITE_RECORDS
    summary = rows[-1] if rows else {}
    records = rows[:-1]
    if summary != {"records": SUITE_RECORDS, "pass": SUITE_PASS, "fail": SUITE_FAIL}:
        failed += SUITE_RECORDS
    if len(records) != SUITE_RECORDS:
        failed += abs(SUITE_RECORDS - len(records))
    for r in records:
        if r.get("verdict") == "fail" and not str(r.get("id", "")).startswith(SUITE_FAIL_PREFIX):
            failed += 1
    for p in res["passes"]:
        # exit code 1 is the designed answer: the two-sided records fail
        if p["rc"] != [1, 1] or not p["same_output"]:
            failed += SUITE_RECORDS
    return failed


# ------------------------------------------------------------------- metrics

def pct(values, q):
    """Nearest-rank percentile q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, res, scored, setup_s):
    if workload == "verify-all":
        passes = res["passes"]
        med = lambda f: statistics.median(f(p) for p in passes)  # noqa: E731
        # the machine's speed changes over seconds, and the calibration
        # follows tiny tasks less closely than long ones: percentiles over
        # the tasks of all passes average over those changes
        task_ns = [ns for p in passes for ns in p["task_ns"]]
        lat = {q: pct(task_ns, q) / 1e6 for q in (50, 90, 99)}
        evals = scored
        suite_s, suite_2w_s = med(lambda p: p["serial_s"]), med(lambda p: p["parallel_s"])
        per_s = med(lambda p: len(p["task_ns"]) / p["serial_s"])
    else:
        ns = [r["ns"] for r in scored]
        lat = {q: pct(ns, q) / 1e6 for q in (50, 90, 99)}
        evals = [r for r in scored if r["bound"] is not None]
        suite_s, suite_2w_s = res["serial_s"], res["parallel_s"]
        per_s = len(scored) / suite_s
    n = max(1, len(evals))
    vals = {
        "evals_per_s": per_s, "p50_ms": lat[50], "p90_ms": lat[90], "p99_ms": lat[99],
        "bound_held_frac": 1.0 - sum(r["miss"] for r in evals) / n,
        "target_met_frac": 1.0 - sum(r["target"] for r in evals) / n,
        "suite_s": suite_s, "suite_2w_s": suite_2w_s, "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {name: _m(vals[name], unit) for name, unit in END_TO_END}


def score_suite_calls(res):
    """Score the series calls made inside the first verify pass."""
    calls = res["passes"][0]["series"]
    refs = suite_refs(calls)
    scored = []
    for c in calls:
        fn, args, cap, value, bound, terms, ns = c
        miss, target = score_eval(value, bound, refs[_call_key(c)])
        scored.append({"op": [fn, args, cap, None], "ns": ns, "value": value, "bound": bound,
                       "terms": terms, "miss": miss, "target": target, "rel": None,
                       "ok": _finite(value)})
    return scored


# ------------------------------------------------------------------ per-layer

REGIMES = ("finite", "geometric", "near-unit", "negint-closed", "powerlaw-alt",
           "powerlaw-plus", "deriv")
SERIES_FIELDS = (("calls", "count"), ("ms_per_call", "ms"), ("terms_per_call", "count"),
                 ("ns_per_term", "ns"), ("bound_miss", "count"), ("target_miss", "count"))
ORACLE_FORMS = tuple("F%d" % i for i in range(1, 13))
QUAD_FNS = ("integrate_decay", "integrate_unit", "integrate_two_sided", "abel_oscillatory")
IDENTITY_FNS = ("sigma", "ramanujan_phi", "master_shift", "eta_reduction", "phi_da_closed",
                "harmonic_weighted_sum", "inverse_factor_sum", "interchange_check",
                "trig_lambda", "trig_cos", "log_sin_integral", "two_sided_family")
VERIFY_OPS = ("series-cell", "deriv-cell", "invsum", "invsum-expansion", "harmonic",
              "interchange", "shift", "lerch", "eta", "trig-sin", "trig-cos", "trig-spot",
              "logsin", "twosided", "twosided-closed", "errata")
DEFAULT_CAP = 10 ** 7


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("series_engine.%s.%s" % (r, f), u) for r in REGIMES for f, u in SERIES_FIELDS]
    out.append(("series_engine.cap_hits", "count"))
    out += [("special_fn.calls", "count"), ("special_fn.self_ms", "ms")]
    out += [("special_fn.%s.us_per_call" % f, "us") for f in ("hurwitz_zeta", "lerch_phi", "digamma")]
    out.append(("special_fn.max_rel_err", "1"))
    out += [("quadrature.oracle_value.%s.ms_per_call" % f, "ms") for f in ORACLE_FORMS]
    out += [("quadrature.%s.self_ms" % f, "ms") for f in QUAD_FNS]
    out += [("identities.%s.self_ms" % f, "ms") for f in IDENTITY_FNS]
    out += [("coeff_triangle.build.calls", "count"), ("coeff_triangle.build.ms_per_call", "ms"),
            ("errata.reproduce.ms_per_entry", "ms")]
    out += [("verify.%s.ms_per_task" % op, "ms") for op in VERIFY_OPS]
    out += [("verify.parallel_speedup", "1"), ("cli.import_ms", "ms"), ("cli.emit_ms", "ms"),
            ("trace.overhead_frac", "1")]
    return out


def regime_of(fn, args, convergence_report, SeriesParams):
    if fn == "eval_phi_da_direct":
        return "deriv"
    if fn == "eval_psi_general":
        a, b, beta, alpha = args
    else:
        a, b, alpha = args
        beta = -1.0 if fn == "eval_phi" else 1.0
    regime = convergence_report(SeriesParams(a, b, beta, alpha)).regime
    if regime == "geometric":
        return "near-unit" if abs(beta) >= 0.95 else "geometric"
    if regime == "power-law":
        if beta == -1.0 and a < 0 and a == math.floor(a):
            return "negint-closed"
        return "powerlaw-alt" if beta == -1.0 else "powerlaw-plus"
    return regime


def per_layer(workload, res, scored, setup_runs, ramaseries):
    from tracing import self_times
    spans = res["trace"]["spans"]
    own = self_times(spans)
    vals = {name: 0.0 for name, _ in per_layer_names()}

    def dur(i):
        return spans[i][2] - spans[i][1]

    # series_engine by regime: outermost series calls of the traced pass,
    # scored against the references of the untraced results (same inputs)
    score_by_key = {}
    for r in scored:
        if r["bound"] is not None:
            score_by_key[_call_key([r["op"][0], r["op"][1], r["op"][2]])] = r
    series = [i for i, s in enumerate(spans) if s[0].startswith("series_engine.eval_")
              and s[4] is not None and (s[3] < 0 or not spans[s[3]][0].startswith("series_engine.eval_"))]
    acc = {r: [0, 0, 0, 0, 0] for r in REGIMES}  # calls, ns, terms, bound_miss, target_miss
    for i in series:
        fn = spans[i][0].rpartition(".")[2]
        args, cap, value, bound, terms = spans[i][4]
        reg = regime_of(fn, args, ramaseries.convergence_report, ramaseries.SeriesParams)
        a = acc[reg]
        a[0] += 1
        a[1] += dur(i)
        a[2] += terms
        rec = score_by_key.get(_call_key([fn, args, cap]))
        if rec is not None:
            a[3] += rec["miss"]
            a[4] += rec["target"]
        if terms >= (cap or DEFAULT_CAP) / 2:
            vals["series_engine.cap_hits"] += 1
    for reg, (calls, ns, terms, miss, target) in acc.items():
        p = "series_engine.%s." % reg
        vals[p + "calls"] = calls
        vals[p + "ms_per_call"] = ns / calls / 1e6 if calls else 0.0
        vals[p + "terms_per_call"] = terms / calls if calls else 0.0
        vals[p + "ns_per_term"] = ns / terms if terms else 0.0
        vals[p + "bound_miss"] = miss
        vals[p + "target_miss"] = target

    by_name = {}
    for i, s in enumerate(spans):
        e = by_name.setdefault(s[0], [0, 0, 0])  # calls, inclusive ns, self ns
        e[0] += 1
        e[1] += dur(i)
        e[2] += own[i]
    sf = [e for n, e in by_name.items() if n.startswith("special_fn.")]
    vals["special_fn.calls"] = sum(e[0] for e in sf)
    vals["special_fn.self_ms"] = sum(e[2] for e in sf) / 1e6
    for f in ("hurwitz_zeta", "lerch_phi", "digamma"):
        e = by_name.get("special_fn." + f)
        if e:
            vals["special_fn.%s.us_per_call" % f] = e[1] / e[0] / 1e3
    rels = [r["rel"] for r in scored if r["bound"] is None and r["rel"] is not None]
    vals["special_fn.max_rel_err"] = max(rels) if rels else 0.0

    forms = {}
    for i, s in enumerate(spans):
        if s[0] == "quadrature.oracle_value" and s[4] is not None:
            f = forms.setdefault(s[4], [0, 0])
            f[0] += 1
            f[1] += dur(i)
    for form, (calls, ns) in forms.items():
        if form in ORACLE_FORMS:
            vals["quadrature.oracle_value.%s.ms_per_call" % form] = ns / calls / 1e6
    for f in QUAD_FNS:
        vals["quadrature.%s.self_ms" % f] = by_name.get("quadrature." + f, [0, 0, 0])[2] / 1e6
    for f in IDENTITY_FNS:
        vals["identities.%s.self_ms" % f] = by_name.get("identities." + f, [0, 0, 0])[2] / 1e6
    e = by_name.get("coeff_triangle.build")
    if e:
        vals["coeff_triangle.build.calls"] = e[0]
        vals["coeff_triangle.build.ms_per_call"] = e[1] / e[0] / 1e6
    e = by_name.get("errata.reproduce")
    if e:
        vals["errata.reproduce.ms_per_entry"] = e[1] / e[0] / 1e6
    tasks = {}
    for i, s in enumerate(spans):
        if s[0] == "verify.task" and s[4] is not None:
            t = tasks.setdefault(s[4], [0, 0])
            t[0] += 1
            t[1] += dur(i)
    for op, (calls, ns) in tasks.items():
        if op in VERIFY_OPS:
            vals["verify.%s.ms_per_task" % op] = ns / calls / 1e6
    if workload == "verify-all":
        passes = res["passes"]
        vals["verify.parallel_speedup"] = (statistics.median(p["serial_s"] for p in passes)
                                           / statistics.median(p["parallel_s"] for p in passes))
        main_ns = by_name.get("cli.main", [0, 0, 0])[1]
        suite_ns = by_name.get("verify.run_suite", [0, 0, 0])[1]
        vals["cli.emit_ms"] = (main_ns - suite_ns) / 1e6
    vals["cli.import_ms"] = statistics.median(r["scaled_import_s"] for r in setup_runs) * 1e3
    tr = res["trace"]
    vals["trace.overhead_frac"] = tr["wall_s"] / tr["baseline_s"] - 1.0
    return {name: _m(vals[name], unit) for name, unit in per_layer_names()}


def record(res, scored):
    """What the result file keeps beside the metrics: the raw (unscaled) wall
    times of the timed passes, the miss shares behind the held/met shares and
    the share of the serial pass's time each band of an eval workload takes."""
    if "passes" in res:
        raw = {k: [p["raw_" + k] for p in res["passes"]] for k in ("serial_s", "parallel_s")}
    else:
        raw = {k: res["raw_" + k] for k in ("serial_s", "parallel_s")}
    evals = [r for r in scored if r["bound"] is not None]
    n = max(1, len(evals))
    out = {"raw_wall": raw, "eval_results": len(evals),
           "bound_miss_frac": sum(r["miss"] for r in evals) / n,
           "target_miss_frac": sum(r["target"] for r in evals) / n}
    if "passes" not in res:
        band_ns = {}
        for r in scored:
            band_ns[r["op"][3]] = band_ns.get(r["op"][3], 0) + r["ns"]
        total = sum(band_ns.values())
        out["band_time_share"] = {b: ns / total for b, ns in sorted(band_ns.items())}
    return out


# ---------------------------------------------------------------- the run

def environment(seed):
    import numpy
    import mpmath

    def commit():
        head = os.path.join(ROOT, ".git", "HEAD")
        if not os.path.exists(head):
            return None
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        return None

    src = os.path.join(ROOT, "src", "ramaseries")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "loadavg_start": list(os.getloadavg()), "seed": seed, "commit": commit(),
            "src_sha256": h.hexdigest()[:16]}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # the serial passes must stay serial whatever the caller's default is
    env.pop("RAMASERIES_WORKERS", None)
    # the timed process regenerates the op list under its own string hashing
    env["PYTHONHASHSEED"] = "random"
    return env


def run_child(args, timeout):
    """Run timed.py with args in its own process group; its stdout.

    On timeout the whole group goes, with the worker processes the child
    started, and is waited for.
    """
    argv = [sys.executable, os.path.join(HERE, "timed.py")] + args
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return out


def measure_setup():
    return [json.loads(run_child(["setup"], 60).strip().splitlines()[-1])
            for _ in range(SETUP_SAMPLES)]


class TimedOut(Exception):
    """The timed process ran past its limit; args: (limit_s, phases it finished)."""


def run_timed(job, limit_s):
    """The timed process's result; TimedOut if it runs past limit_s."""
    os.makedirs(CACHE, exist_ok=True)
    paths = {k: os.path.join(CACHE, "%s-%d.%s" % (k, os.getpid(), ext))
             for k, ext in (("job", "pickle"), ("out", "pickle"), ("progress", "jsonl"))}
    job = dict(job, progress=paths["progress"])
    with open(paths["job"], "wb") as fh:
        pickle.dump(job, fh, pickle.HIGHEST_PROTOCOL)
    try:
        try:
            run_child(["run", paths["job"], paths["out"]], limit_s)
        except subprocess.TimeoutExpired:
            done = []
            if os.path.exists(paths["progress"]):
                with open(paths["progress"]) as fh:
                    done = [json.loads(line) for line in fh]
            raise TimedOut(limit_s, done) from None
        with open(paths["out"], "rb") as fh:
            return pickle.load(fh)  # written by timed.py for this run
    finally:
        for p in paths.values():
            if os.path.exists(p):
                os.remove(p)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "ramaseries", "__init__.py")):
        print("error: no ramaseries sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ramaseries
    import workloads

    env = environment(args.seed)
    build_pool_refs(workloads, args.seconds)
    # the first run in a checkout builds references; the time limit starts here
    t_start = time.perf_counter()
    phase_s = {}
    job = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.workload != "verify-all":
        size = OPS_PER_SECOND[args.workload] * args.seconds
        ops = workloads.generate(args.workload, args.seed, size)
        workloads.check(args.workload, ops, ramaseries.convergence_report, ramaseries.SeriesParams)
        refs = _load(_pool_path(args.workload, args.seconds))
        job.update(seed=args.seed, size=size)
    phase_s["inputs"] = time.perf_counter() - t_start

    t0 = time.perf_counter()
    setup_runs = measure_setup()
    setup_s = statistics.median(r["scaled_setup_s"] for r in setup_runs)
    phase_s["setup"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    limit_s = RUN_LIMIT_S - SCORE_RESERVE_S - (t0 - t_start)
    try:
        res = run_timed(job, limit_s)
    except TimedOut as exc:
        print("the timed process ran past its limit of %.0f s; it finished:" % exc.args[0])
        for done in exc.args[1]:
            print("  %s: %s" % (done.pop("phase"), json.dumps(done, sort_keys=True)))
        print("error: timed out, no result", file=sys.stderr)
        return 2
    phase_s["timed"] = time.perf_counter() - t0
    phase_s["timed_limit"] = limit_s
    if args.workload != "verify-all" and res["ops_digest"] != workloads.digest(ops):
        raise ValueError("the timed process generated another op list: "
                         "the generator is not a pure function of (workload, seed)")

    t0 = time.perf_counter()
    if args.workload == "verify-all":
        failed = check_suite(res)
        scored = score_suite_calls(res)
        failed += sum(not r["ok"] for r in scored)
        attempted = SUITE_RECORDS * 2 * len(res["passes"])
    else:
        scored, failed = check_eval(ops, res, refs, workloads.op_key)
        attempted = len(ops)
    if res["mpmath_imported"]:
        failed += 1

    metrics = (per_layer(args.workload, res, scored, setup_runs, ramaseries) if args.trace
               else end_to_end(args.workload, res, scored, setup_s))
    env["loadavg_end"] = list(os.getloadavg())
    phase_s["score"] = time.perf_counter() - t0
    info = dict(record(res, scored), phase_s=phase_s)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    bad = [r for r in scored if not r["ok"]][:5]
    for r in bad:
        print("failed op: %s value=%r bound=%r" % (r["op"][:3], r["value"], r["bound"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    _save(os.path.join(CACHE, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace)), dict(result, env=env, info=info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ImportError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
