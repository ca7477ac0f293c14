"""Verification suites: every identity confronted with an independent oracle.

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
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from . import errata as errata_mod
from . import identities
from .quadrature import (IntegralSpec, VerificationRecord, inverse_factor_direct, make_record,
                         oracle_value)
from .series_engine import SeriesParams, eval_phi, eval_phi_da_direct, eval_psi_general
from .special_fn import (
    DivergenceError,
    DomainError,
    EULER_GAMMA,
    digamma,
    hurwitz_zeta,
    lerch_phi,
)

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


def _run_task(task: Task) -> Tuple[int, Optional[VerificationRecord]]:
    ordinal, op, args, tol = task
    try:
        rec = _dispatch(op, args)
    except (DivergenceError, DomainError):
        return ordinal, None
    # an errata record is a yes/no reproduction: a loose tolerance must not pass it
    if tol is not None and op != "errata":
        rec = make_record(rec.spec, rec.series_value, rec.oracle_value, tol, rec.errata_note)
    return ordinal, rec


def _trig_part(fam: str, a: int, wv: float, alpha: float, part: str) -> float:
    res = (identities.trig_lambda if fam == "sin" else identities.trig_cos)(a, wv, alpha)
    return res.lambda_c if part == "c" else res.lambda_s


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
        orc = inverse_factor_direct(b, n)
        val = identities.inverse_factor_sum(b, n)
        return make_record(f"invsum b={b:g} n={n}", val, orc, 1e-9)
    if op == "invsum-expansion":
        b, n = args
        orc = inverse_factor_direct(b, n)
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
        return identities.interchange_check(*args)
    if op == "shift":
        return identities.master_shift(*args)
    if op == "lerch":
        b, beta, mu = args
        val = eval_psi_general(SeriesParams(a=-1.0, b=b, beta=beta, alpha=mu)).value
        orc = lerch_phi(-beta, mu + 1.0, b)
        return make_record(f"lerch b={b:g} beta={beta:g} mu={mu:g}", val, orc, 1e-10)
    if op == "eta":
        return identities.eta_reduction(*args)
    if op == "trig-sin" or op == "trig-cos":
        # the sine family at frequency w (F7/F8), the cosine family at v (F9/F10)
        a, wv, alpha, part = args
        fam = op[len("trig-"):]
        flag, forms = ("w", ("F7", "F8")) if fam == "sin" else ("v", ("F9", "F10"))
        val = _trig_part(fam, a, wv, alpha, part)
        orc = oracle_value(IntegralSpec(forms[part == "s"], {"a": a, flag: wv, "alpha": alpha})).value
        return make_record(f"{op} {part} a={a} {flag}={wv:g} alpha={alpha:g}", val, orc, 1e-3)
    if op == "trig-spot":
        fam, a, wv, alpha, part, want = args
        val = _trig_part(fam, a, wv, alpha, part)
        return make_record(f"spot-{fam} {part} a={a} f={wv:g} alpha={alpha:g}", val, want, 1e-12)
    if op == "logsin":
        a, w, alpha, part = args
        dc, ds = identities.log_sin_integral(a, w, alpha)
        val = dc if part == "c" else ds
        orc = oracle_value(
            IntegralSpec("F11", {"a": a, "w": w, "alpha": alpha, "part": part})).value
        return make_record(f"logsin {part} a={a} w={w:g} alpha={alpha:g}", val, orc, 1e-6)
    if op == "twosided":
        return identities.two_sided_family(*args)
    if op == "twosided-closed":
        b, beta = args
        val = errata_mod.two_sided_closed(b, beta)
        orc = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
        return make_record(f"two-sided-closed b={b:g} beta={beta:g}", val, orc,
                           1e-6 * max(1.0, abs(orc)))
    if op == "errata":
        (key,) = args
        printed_rec, corrected_rec = errata_mod.catalog()[key].reproduce()
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
        raise DomainError(f"unknown suite: {name}")
    return entries


def build_suite(name: str, tol: Optional[float] = None) -> List[Task]:
    """Assemble the task list for one suite name (or 'all')."""
    names = SUITE_NAMES if name == "all" else (name,)
    entries = [e for n in names for e in _entries(n)]
    return [(i, op, args, tol) for i, (op, args) in enumerate(entries)]


def ordered_map(fn: Callable, tasks: Sequence[tuple], workers: int = 1) -> list:
    """fn over tasks, serially or in a process pool; results sorted by ordinal.

    Each task and each result carries its ordinal first, so the output order
    does not depend on the worker count.
    """
    if workers <= 1 or len(tasks) <= 1:
        results = [fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, tasks, chunksize=4))
    results.sort(key=lambda r: r[0])
    return results


def execute(tasks: Sequence[Task], workers: int = 1) -> List[VerificationRecord]:
    """Run tasks, serially or in a process pool; order follows the ordinals."""
    return [rec for _, rec in ordered_map(_run_task, tasks, workers) if rec is not None]


def run_suite(name: str, tol: Optional[float] = None,
              workers: int = 1) -> List[VerificationRecord]:
    records = execute(build_suite(name, tol), workers)
    if not records:
        raise DomainError(f"suite '{name}' produced no records")
    return records
