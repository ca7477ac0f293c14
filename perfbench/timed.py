"""The timed process. It imports ramaseries and never mpmath.

  python3 perfbench/timed.py setup            one set-up, timed; prints JSON
  python3 perfbench/timed.py run JOB OUT      runs the job file, writes OUT

Set-up is what a fresh process pays before its first useful call: importing
ramaseries and ramaseries.cli and one warm-up call per eval target, which
also fills the quadrature node cache.

Every time reported here is scaled to a reference machine speed. On a
shared host the CPU speed changes with the neighbours' load: on the 2-core
host this benchmark was built on, a fixed 7000-term float loop took about
1.3 ms for some seconds and about 2.1 ms for the next, with CPU time equal
to wall time, so raw times of one fixed loop spread by 35-55% (quartile
distance over median) within a minute. So a calibration kernel runs
between blocks of about 100 ms of work, and each block's time is
multiplied by the kernel's reference time over the median of the
calibrations around it. The kernels (KERNELS) are benchmark code,
identical for every commit measured, so the scaled times compare commits
and not neighbours. Calibration time itself is never counted.

A run does its own set-up first, then the untraced measurement:
  eval-*      every op once in this process (per-call times), then the
              same list spread over 2 spawned worker processes
  verify-all  passes of `verify all --format jsonl` through cli.main with
              stdout captured, once serially and once with --workers 2,
              until --seconds have passed
and with trace on, one more serial pass with every layer wrapped.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import multiprocessing
import os
import pickle
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the path above)
from tracing import SERIES_PUBLIC, Tracer  # noqa: E402

CHUNKS_2W = 64  # pieces the 2-worker pass hands out, for load balance
BLOCK_NS = 100_000_000  # work between two calibrations
SUITE_ARGV = ["verify", "all", "--format", "jsonl"]


def _loops() -> None:
    """Tight float loops and numpy chunk arithmetic on long arrays."""
    import numpy as np
    x = 0.0
    for i in range(1, 7000):
        x += math.exp(-1e-4 * i) / (i + 0.5) ** 1.5
    a = np.arange(1.0, 32769.0)
    for _ in range(3):
        x += float(np.sum(np.cumprod(1.0 - 1.0 / (a * a))))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _small_call(p, i):
    x = p.a * i + p.b
    if x > 1e300:
        raise OverflowError(x)
    return math.lgamma(x + 1.0) - math.log(x) + (x if i & 1 else -x) * 1e-9


def _calls() -> None:
    """_loops, then small calls that build an object and pass a try block,
    then numpy arithmetic on short arrays."""
    import numpy as np
    _loops()
    x = 0.0
    for i in range(1, 2500):
        try:
            x += _small_call(_Pair(0.37, 1.5), i)
        except OverflowError:
            pass
    a = np.arange(1.0, 4097.0)
    for _ in range(12):
        x += float(np.sum(np.cumprod(1.0 - 1.0 / (a * a))))


# kernel -> (function, ns it takes at reference speed: about this host's median)
KERNELS = {"loops": (_loops, 2_300_000), "calls": (_calls, 6_000_000)}
# Each workload is scaled by the kernel that resembles its work. When a
# neighbour loads the core, tiny library calls slow down more than long
# summations do. Measured on the 2-core host, five runs per case: scaled by
# "loops", eval-light's median call spread by 6-12% (quartile distance over
# median); scaled by "calls", verify-all's and eval-heavy's times spread by
# 10-21%, and each stays within about 5% under its own kernel.
KERNEL_OF = {"eval-light": "calls", "eval-heavy": "loops", "verify-all": "loops"}


def calibrate(kernel: str) -> int:
    """ns taken by one run of the calibration kernel."""
    t0 = time.perf_counter_ns()
    KERNELS[kernel][0]()
    return time.perf_counter_ns() - t0


class SpeedLog:
    """Calibrations between blocks of work; per-block factors to reference speed."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.ref_ns = KERNELS[kernel][1]
        self.cal = [calibrate(kernel)]
        self.blocks = []  # (wall ns, first item, end item)
        self.starts = []  # perf_counter_ns at the start of each block
        self.first = 0
        self.start = time.perf_counter_ns()

    def due(self) -> bool:
        return time.perf_counter_ns() - self.start >= BLOCK_NS

    def close(self, end: int) -> None:
        """End the block of items [first, end) and calibrate."""
        self.blocks.append((time.perf_counter_ns() - self.start, self.first, end))
        self.starts.append(self.start)
        self.cal.append(calibrate(self.kernel))
        self.first = end
        self.start = time.perf_counter_ns()

    def factors(self):
        # block k sits between calibrations k and k + 1; the median of those
        # two and their outer neighbours is robust to one disturbed sample
        return [self.ref_ns / statistics.median(self.cal[max(0, k - 1):k + 3])
                for k in range(len(self.blocks))]

    def raw_s(self) -> float:
        return sum(b[0] for b in self.blocks) / 1e9

    def scaled_s(self) -> float:
        return sum(b[0] * f for b, f in zip(self.blocks, self.factors())) / 1e9

    def scale_items(self, values):
        """values[i] * the factor of the block item i ran in."""
        out = list(values)
        for (_, first, end), f in zip(self.blocks, self.factors()):
            for i in range(first, end):
                out[i] = values[i] * f
        return out

    def scale_spans(self, spans) -> None:
        """Scale each [name, start, end, ...] span by the factor of its block."""
        factors = self.factors()
        for span in spans:
            k = max(0, bisect.bisect_right(self.starts, span[1]) - 1)
            span[2] = span[1] + round((span[2] - span[1]) * factors[k])


def setup() -> dict:
    t0 = time.perf_counter()
    import ramaseries
    import ramaseries.cli  # noqa: F401
    t1 = time.perf_counter()
    se, sf = ramaseries.series_engine, ramaseries.special_fn
    from ramaseries import quadrature as q
    se.eval_phi(0.5, 1.0, 1.0)
    se.eval_phi_tilde(0.5, 1.0, 1.0)
    se.eval_psi_general(se.SeriesParams(0.5, 1.0, 0.5, 0.0))
    se.eval_phi_da_direct(2.0, 1.0, 0)
    sf.hurwitz_zeta(2.0, 1.0)
    sf.lerch_phi(0.5, 2.0, 1.0)
    sf.s_prime(2)
    q.oracle_value(q.IntegralSpec("F1", {"a": 0.5, "b": 1.0, "alpha": 1.0}))
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": t1 - t0}


def run_list(ops, speed=None):
    """Call every op once; rows of [value, bound, terms, ns, error].

    With a SpeedLog, calibrate between blocks of ops as it asks.
    """
    from ramaseries import series_engine as se, special_fn as sf
    clock = time.perf_counter_ns
    rows = []
    for fn, args, cap, _ in ops:
        if speed is not None and speed.due():
            speed.close(len(rows))
        # look up through the layer module, so tracing wrappers are what runs
        f = getattr(se if fn.startswith("eval_") else sf, fn)
        t0 = clock()
        try:
            a = (se.SeriesParams(*args),) if fn == "eval_psi_general" else args
            r = f(*a) if cap is None else f(*a, cap=cap)
        except Exception as exc:  # a failed op: recorded, and the run goes on
            rows.append([None, None, None, clock() - t0, "%s: %s" % (type(exc).__name__, exc)])
            continue
        t1 = clock()
        if isinstance(r, float):
            rows.append([r, None, None, t1 - t0, None])
        else:
            rows.append([r.value, r.abs_error_bound, r.terms_used, t1 - t0, None])
    if speed is not None:
        speed.close(len(rows))
    return rows


def _worker_init(barrier) -> None:
    setup()
    barrier.wait(timeout=120)


def _noop(_):
    return None


def _run_chunk(item):
    """run_list in a worker: rows, then (busy ns, scaled busy ns, calibration ns)."""
    kernel, ops = item
    speed = SpeedLog(kernel)
    rows = run_list(ops, speed)
    busy = sum(b[0] for b in speed.blocks)
    return rows, (busy, speed.scaled_s() * 1e9, sum(speed.cal))


def scaled_parallel(wall_s, stats):
    """The wall time of a 2-worker pass at reference speed.

    stats holds (busy ns, scaled busy ns, calibration ns) from the workers:
    their own calibrations give the speed factor, and their calibration
    time, shared by the two, comes off the wall.
    """
    busy = sum(s[0] for s in stats)
    if not busy:
        raise ValueError("the 2-worker pass closed no timed block")
    return (wall_s - sum(s[2] for s in stats) / 2e9) * sum(s[1] for s in stats) / busy


def run_list_2w(ops, kernel):
    """The rows of the list spread over 2 warm worker processes; the scaled and raw wall."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    step = max(1, -(-len(ops) // CHUNKS_2W))
    chunks = [ops[i:i + step] for i in range(0, len(ops), step)]
    with ProcessPoolExecutor(2, mp_context=ctx, initializer=_worker_init,
                             initargs=(barrier,)) as pool:
        # two tasks at once start both workers; their set-up meets at the barrier
        for fut in [pool.submit(_noop, i) for i in range(2)]:
            fut.result()
        t0 = time.perf_counter()
        parts = list(pool.map(_run_chunk, [(kernel, c) for c in chunks]))
        wall = time.perf_counter() - t0
    rows = [row for part, _ in parts for row in part]
    return rows, scaled_parallel(wall, [st for _, st in parts]), wall


_TASK_QUEUE = None  # set around a --workers 2 suite pass; forked workers inherit it
_WORKER_SPEED = {}  # pid -> SpeedLog of that worker


# Both 2-worker passes calibrate inside the workers, not in the parent just
# before and after the pass. Measured on the same passes on the 2-core host,
# the quartile distance over median of the scaled 2-worker time was 0.07 with
# worker calibration and 0.12 with parent calibration for verify-all (6 runs),
# and 0.016 against 0.063 for eval-heavy (5 runs).


class TaskClock:
    """Stands in for verify._run_task during the --workers 2 suite pass.

    The package's pool forks after this is installed, so every worker runs
    its own copy. It calibrates between blocks of tasks and sends each
    closed block's (busy ns, scaled busy ns, calibration ns) to the parent
    through _TASK_QUEUE: a few hundred small messages, well under what the
    pipe buffers, so the workers never block on it at exit.
    """

    def __init__(self, inner):
        self.inner = inner

    def __reduce__(self):
        # a forked worker already holds this object as verify._run_task
        return (_installed_task_clock, ())

    def __call__(self, task):
        result = self.inner(task)
        if _TASK_QUEUE is not None:
            speed = _WORKER_SPEED.get(os.getpid())
            if speed is None:
                speed = _WORKER_SPEED[os.getpid()] = SpeedLog(KERNEL_OF["verify-all"])
            elif speed.due():
                speed.close(0)
                cal = speed.cal[-1]
                wall = speed.blocks[-1][0]
                _TASK_QUEUE.put((wall, wall * speed.ref_ns / statistics.median(speed.cal[-3:]), cal))
        return result


def _installed_task_clock():
    return sys.modules["ramaseries.verify"]._run_task


def suite_pass_2w(argv):
    """A --workers 2 pass; (rc, output, scaled wall, raw wall)."""
    global _TASK_QUEUE
    from ramaseries import verify
    inner = verify._run_task
    _TASK_QUEUE = multiprocessing.get_context("fork").SimpleQueue()
    verify._run_task = TaskClock(inner)
    try:
        t0 = time.perf_counter()
        rc, out = suite_pass(argv)
        wall = time.perf_counter() - t0
    finally:
        verify._run_task = inner
    stats = []
    while not _TASK_QUEUE.empty():
        stats.append(_TASK_QUEUE.get())
    _TASK_QUEUE.close()
    _TASK_QUEUE = None
    return rc, out, scaled_parallel(wall, stats), wall


def suite_pass(argv):
    from ramaseries import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def suite_pass_serial(argv):
    """A serial pass with calibrations between tasks; (rc, output, SpeedLog)."""
    from ramaseries import verify
    inner = verify._run_task
    speed = SpeedLog(KERNEL_OF["verify-all"])
    done = [0]

    def run_task(task):
        if speed.due():
            speed.close(done[0])
        done[0] += 1
        return inner(task)

    verify._run_task = run_task
    try:
        rc, out = suite_pass(argv)
    finally:
        verify._run_task = inner
    speed.close(done[0])
    return rc, out, speed


def series_calls(spans):
    """[fn, args, cap, value, bound, terms, ns] of each outermost series call."""
    out = []
    for s in spans:
        fn = s[0].rpartition(".")[2]
        if fn in SERIES_PUBLIC and s[4] is not None:
            parent = spans[s[3]][0].rpartition(".")[2] if s[3] >= 0 else None
            if parent not in SERIES_PUBLIC:
                out.append([fn] + s[4] + [s[2] - s[1]])
    return out


def run_verify(seconds: float, progress) -> dict:
    probes = {"verify.task"} | {"series_engine." + n for n in SERIES_PUBLIC}
    passes = []
    first_out = None
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        # per-task times and the suite's EvalResults; about 1300 wrapped calls
        # against a pass of several seconds
        probe = Tracer(only=probes)
        probe.install()
        try:
            rc1, out1, speed = suite_pass_serial(SUITE_ARGV)
        finally:
            probe.remove()
        rc2, out2, wall2, raw2 = suite_pass_2w(SUITE_ARGV + ["--workers", "2"])
        first_out = out1 if first_out is None else first_out
        task_ns = [s[2] - s[1] for s in probe.spans if s[0] == "verify.task"]
        passes.append({
            "rc": [rc1, rc2], "serial_s": speed.scaled_s(), "parallel_s": wall2,
            "raw_serial_s": speed.raw_s(), "raw_parallel_s": raw2,
            "same_output": out1 == first_out and out2 == first_out,
            "task_ns": speed.scale_items(task_ns),
            "series": series_calls(probe.spans) if not passes else None,
        })
        progress("pass %d" % len(passes), serial_s=passes[-1]["serial_s"],
                 parallel_s=wall2, raw_serial_s=speed.raw_s(), raw_parallel_s=raw2)
    return {"passes": passes, "output": first_out}


def peak_rss_mb() -> float:
    """This process's peak RSS since it started.

    VmHWM belongs to the process image and starts afresh at exec, unlike
    getrusage's ru_maxrss, which keeps the high-water mark of the parent
    that forked it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


class Progress:
    """Appends one JSON line per finished phase to a file, so that a run
    stopped at its time limit still shows what it measured."""

    def __init__(self, path):
        self.path = path
        self.t0 = time.perf_counter()

    def __call__(self, phase: str, **measured) -> None:
        measured.update(phase=phase, elapsed_s=time.perf_counter() - self.t0)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(measured) + "\n")


def run(job: dict) -> dict:
    progress = Progress(job["progress"])
    result = {"setup": setup()}
    progress("setup", **result["setup"])
    workload = job["workload"]
    kernel = KERNEL_OF[workload]
    if workload == "verify-all":
        result.update(run_verify(job["seconds"], progress))
        baseline_s = statistics.median(p["serial_s"] for p in result["passes"])
    else:
        # regenerated here, in another interpreter, to check the generator
        ops = workloads.generate(workload, job["seed"], job["size"])
        result["ops_digest"] = workloads.digest(ops)
        speed = SpeedLog(kernel)
        rows = run_list(ops, speed)
        for row, ns in zip(rows, speed.scale_items([row[3] for row in rows])):
            row[3] = ns
        result["rows"] = rows
        result["serial_s"] = baseline_s = speed.scaled_s()
        result["raw_serial_s"] = speed.raw_s()
        progress("serial", ops=len(ops), serial_s=baseline_s, raw_serial_s=speed.raw_s())
        result["rows_2w"], result["parallel_s"], result["raw_parallel_s"] = run_list_2w(ops, kernel)
        progress("2 workers", parallel_s=result["parallel_s"], raw_parallel_s=result["raw_parallel_s"])
    result["peak_rss_mb"] = peak_rss_mb()
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            if workload == "verify-all":
                speed = suite_pass_serial(SUITE_ARGV)[2]
            else:
                speed = SpeedLog(kernel)
                run_list(ops, speed)
        finally:
            tracer.remove()
        speed.scale_spans(tracer.spans)
        result["trace"] = {"wall_s": speed.scaled_s(), "baseline_s": baseline_s,
                           "spans": tracer.spans}
        progress("trace", wall_s=speed.scaled_s(), raw_wall_s=speed.raw_s())
    result["mpmath_imported"] = "mpmath" in sys.modules
    return result


def stop_resource_tracker() -> None:
    """End the resource tracker the spawn-context pool started, and wait for it.

    multiprocessing otherwise leaves it running past this process's exit.
    The pool's semaphores are collected first: their finalizers would start
    a new tracker.
    """
    import gc
    from multiprocessing import resource_tracker
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv) -> int:
    if argv[1:] == ["setup"]:
        times = setup()
        cal = statistics.median(calibrate("loops") for _ in range(3))
        for key in ("setup_s", "import_s"):
            times["scaled_" + key] = times[key] * KERNELS["loops"][1] / cal
        print(json.dumps(times))
        return 0
    if len(argv) == 4 and argv[1] == "run":
        with open(argv[2], "rb") as fh:
            job = pickle.load(fh)  # written by run.py for this run
        try:
            result = run(job)
        finally:
            stop_resource_tracker()
        with open(argv[3], "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
