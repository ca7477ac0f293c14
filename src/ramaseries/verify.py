"""Verification suites: every identity confronted with an independent oracle.

This module builds every VerificationRecord: the identities return plain
values (an oscillatory closed form its (cos part, sin part) pair), the
oracles in quadrature return theirs, each errata entry returns its
evidence, and _dispatch and errata_records pair them and judge the pair
against a tolerance (make_record). One table, _ABEL_OPS, gives each of the
three Abel families (trig-sin, trig-cos, logsin) its closed form, oracle
forms and tolerance, and one _dispatch branch judges all three.

A suite is a list of small, picklable tasks; each task produces one
VerificationRecord.  Tasks carry an ordinal so parallel execution can merge
results back into a deterministic order.  Suites never assert; they report.
The CLI turns any failing record into a nonzero exit, and the honest suites
do contain expected failures (the two-sided printed formula), so a clean
exit is a statement about the source text, not about this package.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import errata as errata_mod
from . import identities
from .quadrature import (IntegralSpec, inverse_factor_direct, oracle_key, oracle_memo, oracle_value,
                         two_sided_direct)
from .series_engine import SeriesParams, eval_phi, eval_phi_da_direct, eval_phi_tilde, eval_psi_general
from .special_fn import EULER_GAMMA, DomainError, digamma, hurwitz_zeta, lerch_phi

Task = Tuple[int, str, tuple, Optional[float]]  # ordinal, op, args, --tol override

SUITE_NAMES = ("series", "shifts", "trig", "twosided", "errata")

_SERIES_A = (-0.9, -0.5, -0.25, 0.5, 2.0)
_SERIES_B = (0.25, 1.0, 2.5)
_DERIV_A = (-0.5, -0.25, 0.5, 2.0)
_DERIV_B = (0.25, 1.0, 2.5)
_TRIG_A = (1, 2, 3)
_TRIG_ALPHA = (0.0, 1.0)
_TRIG_SPOTS_SIN = (
    (1, 2.0, 0.0, -1.0 / 3.0, 0.0),
    (1, 2.0, 1.0, 0.0, -4.0 / 9.0),
    (2, 3.0, 0.0, 0.0, -2.0 / 15.0),
)
_TRIG_SPOTS_COS = (
    (1, 2.0, 0.0, 2.0 / 3.0),
    (2, 3.0, 0.0, 7.0 / 15.0),
)
_LOGSIN_CELLS = (
    (1, 3.0, 0.0),
    (2, 3.0, 0.0),
    (2, 3.0, 1.0),
)
_TWOSIDED_B = (0.25, 0.5, 0.75)
_TWOSIDED_BETA = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class VerificationRecord:
    """One adjudicated identity: a claimed value against an independent oracle."""

    spec: str
    series_value: float
    oracle_value: float
    residual: float
    tolerance: float
    verdict: str
    errata_note: Optional[str] = None


def make_record(spec: str, series_value: float, oracle: float, tolerance: float,
                errata_note: Optional[str] = None) -> VerificationRecord:
    """series_value judged against oracle: a pass when the residual is finite
    and within tolerance."""
    series_value, oracle = float(series_value), float(oracle)
    residual = series_value - oracle
    ok = math.isfinite(residual) and abs(residual) <= tolerance
    return VerificationRecord(spec, series_value, oracle, residual, tolerance,
                              "pass" if ok else "fail", errata_note)


def errata_records(entry: errata_mod.ErrataEntry) -> Tuple[VerificationRecord, VerificationRecord]:
    """The printed and the corrected reading of one errata entry, each
    judged against the entry's one oracle value."""
    printed, corrected, oracle, tol = entry.reproduce()
    return (make_record(f"errata {entry.key} printed", printed, oracle, tol),
            make_record(f"errata {entry.key} corrected", corrected, oracle, tol))


def _run_task(task: Task) -> Tuple[int, VerificationRecord]:
    # the suites are fixed cells, so a cell that raises is a fault of the
    # program: the error reaches the caller, and no cell is dropped
    ordinal, op, args, tol = task
    rec = _dispatch(op, args)
    # an errata record is a yes/no reproduction: a loose tolerance must not pass it
    if tol is not None and op != "errata":
        rec = make_record(rec.spec, rec.series_value, rec.oracle_value, tol, rec.errata_note)
    return ordinal, rec


# the three Abel families: op -> (closed form in identities, frequency flag,
# tolerance, oracle forms of the cos and sin parts). Each closed form returns
# its (cos part, sin part) pair. It is held by name and looked up on
# identities at each call, so a rebinding of the module attribute (a
# tracer's, a test's) reaches every caller.
_ABEL_OPS = {
    "trig-sin": ("trig_lambda", "w", 1e-3, ("F7", "F8")),
    "trig-cos": ("trig_cos", "v", 1e-3, ("F9", "F10")),
    "logsin": ("log_sin_integral", "w", 1e-6, ("F11", "F11")),
}


def _dispatch(op: str, args: tuple) -> VerificationRecord:
    """One record for one op, at the op's own tolerance."""
    if op == "series-cell":
        a, b, n = args
        rec_val = identities.ramanujan_phi(a, b, n).value
        direct = eval_phi(a, b, float(n)).value
        return make_record(f"series a={a:g} b={b:g} n={n}", rec_val, direct,
                           1e-8 * max(1.0, abs(direct)))
    if op == "deriv-cell":
        a, b, n = args
        closed = identities.phi_da_closed(a, b, n)
        direct = eval_phi_da_direct(a, b, n).value
        return make_record(f"deriv a={a:g} b={b:g} n={n}", closed, direct, 1e-7)
    if op == "invsum":
        b, n = args
        orc = inverse_factor_direct(b, n).value
        val = identities.inverse_factor_sum(b, n)
        return make_record(f"invsum b={b:g} n={n}", val, orc, 1e-9)
    if op == "invsum-expansion":
        b, n = args
        orc = inverse_factor_direct(b, n).value
        val = (digamma(b + 1.0) + EULER_GAMMA) / b ** n - math.fsum(
            hurwitz_zeta(k + 1.0, b + 1.0) * b ** (k - n) for k in range(1, n)
        )
        return make_record(f"invsum-exp b={b:g} n={n}", val, orc, 1e-9)
    if op == "harmonic":
        a, b, n = args
        val = identities.harmonic_weighted_sum(a, b, n)
        orc = b ** (-float(n)) + eval_phi_da_direct(a, b, n - 1).value
        return make_record(f"harmonic a={a:g} b={b:g} n={n}", val, orc, 1e-7)
    if op == "interchange":
        # the two readings of mixed differentiation order at n = 0: the
        # a-derivative against minus the order-1 series at (a, b) -> (b-1, a+1)
        a, b = args
        lhs = identities.phi_da_closed(a, b, 0)
        rhs = -identities.ramanujan_phi(b - 1.0, a + 1.0, 1).value
        return make_record(f"interchange a={a:g} b={b:g}", lhs, rhs, 1e-9 * max(1.0, abs(rhs)))
    if op == "shift":
        p, b, beta, mu, m = args
        lhs = identities.master_shift(p, b, beta, mu, m)
        rhs = eval_psi_general(SeriesParams(a=p, b=b, beta=beta, alpha=mu)).value
        return make_record(f"shift p={p:g} b={b:g} beta={beta:g} mu={mu:g} m={m}", lhs, rhs,
                           1e-9 * max(1.0, abs(rhs)))
    if op == "lerch":
        b, beta, mu = args
        val = eval_psi_general(SeriesParams(a=-1.0, b=b, beta=beta, alpha=mu)).value
        orc = lerch_phi(-beta, mu + 1.0, b)
        return make_record(f"lerch b={b:g} beta={beta:g} mu={mu:g}", val, orc, 1e-10)
    if op == "eta":
        b, alpha = args
        closed = identities.eta_reduction(b, alpha)
        return make_record(f"eta b={b:g} alpha={alpha:g}", eval_phi_tilde(-1.0, b, alpha).value,
                           closed, 1e-11)
    if op in _ABEL_OPS:
        a, f, alpha, part = args
        name, flag, tol, _ = _ABEL_OPS[op]
        val = getattr(identities, name)(a, f, alpha)[part == "s"]
        orc = oracle_value(_abel_spec(op, args)).value
        return make_record(f"{op} {part} a={a} {flag}={f:g} alpha={alpha:g}", val, orc, tol)
    if op == "trig-spot":
        fam, a, wv, alpha, part, want = args
        val = getattr(identities, _ABEL_OPS["trig-" + fam][0])(a, wv, alpha)[part == "s"]
        return make_record(f"spot-{fam} {part} a={a} f={wv:g} alpha={alpha:g}", val, want, 1e-12)
    if op == "twosided":
        b, beta, m = args
        claim = identities.two_sided_family(b, beta, m)
        orc = two_sided_direct(b, beta, m)
        tol = 1e-6 * max(1.0, abs(orc))
        note = None if abs(claim - orc) <= tol else (
            "printed closed form; the direct integral disagrees (see errata)")
        return make_record(f"two-sided b={b:g} beta={beta:g} m={m}", claim, orc, tol, note)
    if op == "twosided-closed":
        b, beta = args
        val = identities.two_sided_closed(b, beta)
        orc = two_sided_direct(b, beta, 0)
        return make_record(f"two-sided-closed b={b:g} beta={beta:g}", val, orc,
                           1e-6 * max(1.0, abs(orc)))
    if op == "errata":
        (key,) = args
        printed_rec, corrected_rec = errata_records(errata_mod.catalog()[key])
        reproduces = printed_rec.verdict == "fail" and corrected_rec.verdict == "pass"
        return make_record(f"errata {key} reproduces", 1.0 if reproduces else 0.0,
                           1.0, 0.0)
    raise DomainError(f"unknown verification op: {op}")


def _entries(name: str) -> List[Tuple[str, tuple]]:
    """(op, args) of every task of one suite, in order."""
    entries: List[Tuple[str, tuple]] = []
    if name == "series":
        for a, b, n in itertools.product(_SERIES_A, _SERIES_B, range(6)):
            entries.append(("series-cell", (a, b, n)))
        for a, b, n in itertools.product(_DERIV_A, _DERIV_B, range(3)):
            entries.append(("deriv-cell", (a, b, n)))
        for b, n in itertools.product((0.5, 1.0, 2.0), (1, 2, 3)):
            entries.append(("invsum", (b, n)))
            entries.append(("invsum-expansion", (b, n)))
        for a, b, n in itertools.product((-0.5, 0.5, 1.0), (0.5, 1.0), (1, 2)):
            entries.append(("harmonic", (a, b, n)))
        for a, b in itertools.product((-0.5, 0.5, 1.5), (0.25, 1.0, 2.5)):
            entries.append(("interchange", (a, b)))
    elif name == "shifts":
        for m, b, mu in itertools.product((0, 1, 2), (0.5, 1.0, 2.0), (0.5, 1.0)):
            entries.append(("shift", (-1.0, b, -1.0, mu, m)))
        for p, beta, b, mu, m in itertools.product(
                (-2.0, -1.0, -0.5, 0.5), (-1.0, -0.5, 0.5, 1.0),
                (0.5, 1.25), (0.5, 1.0), (0, 1, 2)):
            if abs(beta) == 1.0 and (p + mu <= -1.0 or (p <= -1.0 and mu <= 0.0)):
                continue
            entries.append(("shift", (p, b, beta, mu, m)))
        entries.append(("shift", (-0.5, 0.25, -1.0, 0.0, 1)))
        for beta, b, mu in itertools.product(
                (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75), (0.5, 1.0, 2.0), (0.0, 1.0)):
            entries.append(("lerch", (b, beta, mu)))
        for b, alpha in itertools.product((0.5, 1.0, 2.0), (1.0, 2.0)):
            entries.append(("eta", (b, alpha)))
    elif name == "trig":
        for a, dw, alpha, part in itertools.product(
                _TRIG_A, (1, 2), _TRIG_ALPHA, ("c", "s")):
            entries.append(("trig-sin", (a, float(a + dw), alpha, part)))
            entries.append(("trig-cos", (a, float(a + dw), alpha, part)))
        for a, w, alpha, lc, ls in _TRIG_SPOTS_SIN:
            entries.append(("trig-spot", ("sin", a, w, alpha, "c", lc)))
            entries.append(("trig-spot", ("sin", a, w, alpha, "s", ls)))
        for a, v, alpha, ls in _TRIG_SPOTS_COS:
            entries.append(("trig-spot", ("cos", a, v, alpha, "s", ls)))
        for a, w, alpha in _LOGSIN_CELLS:
            for part in ("c", "s"):
                entries.append(("logsin", (a, w, alpha, part)))
    elif name == "twosided":
        for m in (0, 1):
            for b, beta in itertools.product(_TWOSIDED_B, _TWOSIDED_BETA):
                entries.append(("twosided", (b, beta, m)))
        for b, beta in itertools.product(_TWOSIDED_B, _TWOSIDED_BETA):
            entries.append(("twosided-closed", (b, beta)))
    elif name == "errata":
        for entry in errata_mod.ENTRIES:
            entries.append(("errata", (entry.key,)))
    else:
        raise DomainError("unknown suite %r (choose from %s)" % (name, ", ".join(("all",) + SUITE_NAMES)))
    return entries


def build_suite(name: str, tol: Optional[float] = None) -> List[Task]:
    """Assemble the task list for one suite name (or 'all')."""
    # inf would pass every record, nan and a negative one fail every one
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"the tolerance must be finite and >= 0, got {tol}")
    names = SUITE_NAMES if name == "all" else (name,)
    entries = [e for n in names for e in _entries(n)]
    return [(i, op, args, tol) for i, (op, args) in enumerate(entries)]


# tasks a pool unit takes, unless tasks sharing an oracle make it a little more
_UNIT_SIZE = 4


def _units(tasks: Sequence[tuple], key: Optional[Callable]) -> List[list]:
    """The tasks packed into units of _UNIT_SIZE or a little more (the last
    may be short), in order of their first appearance; tasks whose key is
    equal and not None share a unit."""
    groups: dict = {}
    for i, task in enumerate(tasks):
        k = key(task) if key is not None else None
        groups.setdefault((0, i) if k is None else (1, k), []).append(task)
    units: List[list] = []
    for group in groups.values():
        if not units or len(units[-1]) >= _UNIT_SIZE:
            units.append([])
        units[-1].extend(group)
    return units


def _map_unit(job: tuple) -> list:
    # a memo of its own, whether the pool forks, spawns or uses a forkserver
    fn, unit = job
    with oracle_memo():
        return [fn(task) for task in unit]


def ordered_map(fn: Callable, tasks: Sequence[tuple], workers: int = 1,
                key: Optional[Callable] = None) -> list:
    """fn over tasks, serially or in a process pool; results sorted by ordinal.

    Each task and each result carries its ordinal first, so the output order
    does not depend on the worker count. The pool has at most one process a
    task and one a CPU this process may run on: a forking pool starts all
    its processes at once, so a large count would fork the host out of them.
    It takes the tasks in units of about four, and tasks with the same
    key(task), other than None, in one unit; each unit runs in an oracle
    memo of its own (quadrature.oracle_memo), so the Abel integrals they
    share are evaluated once.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(tasks), cpus)
    if workers <= 1:
        results = [fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_map_unit, [(fn, unit) for unit in _units(tasks, key)])
            results = [r for part in parts for r in part]
    results.sort(key=lambda r: r[0])
    return results


def _abel_spec(op: str, args: tuple) -> IntegralSpec:
    """The oracle integral of a trig-sin, trig-cos or logsin cell."""
    a, f, alpha, part = args
    _, flag, _, forms = _ABEL_OPS[op]
    return IntegralSpec(forms[part == "s"], {"a": a, flag: f, "alpha": alpha, "part": part})


def _shared_oracle(task: Task) -> Optional[tuple]:
    """The quadrature memo key of the Abel integral a task reads, None for a
    task that reads none."""
    _, op, args, _ = task
    return oracle_key(_abel_spec(op, args)) if op in _ABEL_OPS else None


def execute(tasks: Sequence[Task], workers: int = 1) -> List[VerificationRecord]:
    """Run tasks, serially or in a process pool; order follows the ordinals.

    A serial run holds one oracle memo (quadrature.oracle_memo), so tasks
    that share an Abel integral evaluate it once; in a pool each unit holds
    its own. A memo starts empty and ends with its run or unit.
    """
    with oracle_memo():
        return [rec for _, rec in ordered_map(_run_task, tasks, workers, _shared_oracle)]


def run_suite(name: str, tol: Optional[float] = None,
              workers: int = 1) -> List[VerificationRecord]:
    return execute(build_suite(name, tol), workers)
