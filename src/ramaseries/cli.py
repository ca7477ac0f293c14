"""Command line front end.

Subcommands:

  eval    evaluate one quantity at a single parameter point
  verify  run a named verification suite and adjudicate every record
  table   evaluate a quantity over a Cartesian parameter grid
  coeffs  print the shift-coefficient triangle as CSV
  errata  reproduce the catalogued discrepancies with numeric evidence

Output is deterministic: records are emitted in task order no matter how
many workers computed them, and every jsonl and csv row is printed by one
writer, _emit, so reruns are byte identical.

At import this module loads only series_engine and special_fn, which do
not load numpy; each command imports the rest of the package the first
time it runs, so a one-cell eval pays for nothing it does not call.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .series_engine import (
    SeriesParams,
    EvalResult,
    eval_phi,
    eval_phi_da_direct,
    eval_phi_tilde,
    eval_psi_general,
)
from .special_fn import DivergenceError, DomainError, _hurwitz, _lerch, _s_prime, _whole

if TYPE_CHECKING:
    from .verify import VerificationRecord


def _fmt(x: float, digits: int) -> str:
    if x != x:
        return "nan"
    s = "%.*g" % (digits, x)
    # normalise exponent spelling across platforms (1e-05 vs 1e-5)
    if "e" in s:
        mant, exp = s.split("e")
        s = mant + "e" + ("%d" % int(exp))
    return s


def _parse_range(text: str, name: str) -> List[float]:
    """One flag value -> list of grid points.

    Accepted forms: a single number, lo:hi:step (inclusive at both ends,
    with a step-relative slack so 0.25:2.25:0.5 really ends at 2.25),
    and lo..hi for inclusive integer ranges.
    """
    text = text.strip()
    if ".." in text and ":" not in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise DomainError("bad integer range for --%s: %r" % (name, text))
        if hi < lo:
            raise DomainError("empty range for --%s: %r" % (name, text))
        return [float(v) for v in range(lo, hi + 1)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError("bad range for --%s: %r" % (name, text))
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise DomainError("bad range for --%s: %r" % (name, text))
        # inf or nan would never pass hi, and the grid would grow without end
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise DomainError("bad range for --%s: %r" % (name, text))
        out = []
        k = 0
        while True:
            v = lo + k * step
            if v > hi + step * 1e-9:
                break
            out.append(v)
            k += 1
        return out
    try:
        return [float(text)]
    except ValueError:
        raise DomainError("bad value for --%s: %r" % (name, text))


_AXIS_FLAGS = ("a", "b", "beta", "alpha", "n", "s", "q", "r")  # the axes of _TARGETS
_PARAM_FLAGS = _AXIS_FLAGS + ("w", "v", "part", "form")  # those of eval, integral included
_SPELLINGS = (("alpha", "n"), ("w", "v"))  # two flags that give one parameter

# integral form -> the parameter flags its oracle reads (see quadrature.oracle_value)
_FORM_FLAGS = {
    **dict.fromkeys(("F1", "F2", "F3", "F4", "F5", "F6"), ("a", "b", "beta", "alpha", "n")),
    **dict.fromkeys(("F7", "F8", "F9", "F10"), ("a", "w", "v", "alpha")),
    "F11": ("a", "w", "v", "alpha", "part"),
    "F12": ("b", "beta"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramaseries",
        description="evaluate and verify binomial-weighted inverse-power series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help, run, targets, flags):
        # each subcommand gets only the flags it reads, and argparse rejects the
        # rest; with abbreviations --w would still be read as --workers
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        if targets:
            sp.add_argument("target", choices=targets)
        for flag in flags:
            if flag == "format":
                sp.add_argument("--format", choices=("text", "csv", "jsonl"), default="text")
            else:
                sp.add_argument("--" + flag, type={"tol": float, "workers": int}.get(flag, str),
                                default=None)
        sp.set_defaults(run=run)
        return sp

    add("eval", "evaluate one quantity at a point", cmd_eval, tuple(_TARGETS) + ("integral",),
        ("format",) + _PARAM_FLAGS)
    verify = add("verify", "run a verification suite", cmd_verify, None, ("format", "tol", "workers"))
    # any name: verify.build_suite rejects an unknown one, so the parser need not load verify
    verify.add_argument("target", metavar="suite", help="all, or the name of one suite")
    add("table", "evaluate over a parameter grid", cmd_table, tuple(_TARGETS),
        ("format", "workers") + _AXIS_FLAGS)
    add("coeffs", "print the coefficient triangle", cmd_coeffs, None, ("p", "b", "m"))
    add("errata", "reproduce catalogued discrepancies", cmd_errata, None, ("format",))
    return ap


def _resolve_workers(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return max(1, flag_value)
    env = os.environ.get("RAMASERIES_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError("RAMASERIES_WORKERS must be an integer, got %r" % env)
    return 1


def _single(args: argparse.Namespace, name: str) -> Optional[float]:
    """The one value given as --name, or None when the flag is absent."""
    raw = getattr(args, name)
    if raw is None:
        return None
    vals = _parse_range(raw, name)
    if len(vals) != 1:
        raise DomainError("%s takes single values, got a range for --%s" % (args.command, name))
    return vals[0]


def _reject_unread(args: argparse.Namespace, read: Sequence[str]) -> None:
    """DomainError for two spellings of one parameter given together, and for
    a parameter flag of eval or table outside read, the flags the target reads."""
    for pair in _SPELLINGS:
        if None not in (getattr(args, pair[0], None), getattr(args, pair[1], None)):
            raise DomainError("%s %s takes --%s or --%s, not both" % ((args.command, args.target) + pair))
    for nm in _PARAM_FLAGS:
        if getattr(args, nm, None) is not None and nm not in read:
            raise DomainError("%s %s does not take --%s" % (args.command, args.target, nm))


def _flag(args: argparse.Namespace, axis: str) -> str:
    """The flag that gives one axis of a target.

    The order of a series target is its "n" or "alpha" axis, and either
    spelling gives it (_reject_unread rejects both).
    """
    names = ("alpha", "n") if axis in ("alpha", "n") else (axis,)
    given = [nm for nm in names if getattr(args, nm) is not None]
    if not given:
        want = "--alpha (or --n)" if len(names) > 1 else "--" + axis
        raise DomainError("%s %s requires %s" % (args.command, args.target, want))
    return given[0]


def _phida(a: float, b: float, n: float) -> EvalResult:
    return eval_phi_da_direct(a, b, _whole(n, 0, "phida needs a non-negative integer order"))


# target -> (parameter axes, evaluator at one point), shared by eval and table.
# The evaluators look the package functions up when called, not when this
# table is built, so a function rebound on its module is the one called.
_TARGETS = {
    "phi": (("a", "b", "n"), lambda a, b, n: eval_phi(a, b, n)),
    "phitilde": (("a", "b", "n"), lambda a, b, n: eval_phi_tilde(a, b, n)),
    "psi": (("a", "b", "beta", "alpha"),
            lambda a, b, beta, alpha: eval_psi_general(SeriesParams(a=a, b=b, beta=beta, alpha=alpha))),
    "phida": (("a", "b", "n"), _phida),
    "zeta": (("s", "q"), lambda s, q: EvalResult(*_hurwitz(s, q), "closed-form")),
    "lerch": (("beta", "s", "q"), lambda beta, s, q: EvalResult(*_lerch(beta, s, q), "direct")),
    "sprime": (("r",), lambda r: EvalResult(*_s_prime(r), "closed-form")),
}


def _eval_integral(args: argparse.Namespace) -> EvalResult:
    from .quadrature import IntegralSpec, oracle_value

    if args.form not in _FORM_FLAGS:
        raise DomainError("eval integral requires --form (one of F1..F12)")
    flags = _FORM_FLAGS[args.form]
    _reject_unread(args, flags + ("form",))
    ip: Dict[str, object] = {}
    for nm in flags:
        value = args.part if nm == "part" else _single(args, nm)
        if value is not None:
            ip[nm] = value
    if "n" in ip:
        ip["n"] = _whole(ip["n"], 0, "integral needs a non-negative integer order")
    return oracle_value(IntegralSpec(form=args.form, params=ip))


def _emit(rows: Sequence[Dict[str, object]], fmt: str, text_row: Optional[Callable[[Dict[str, object]], str]],
          quoted: Sequence[str] = ()) -> None:
    """Print rows, dicts in column order: jsonl as JSON with sorted keys; csv
    as a header of the keys, then cells, a float by repr, None empty, others by
    str, and the quoted columns in double quotes; text as text_row(row)."""
    if fmt == "csv" and rows:
        print(",".join(rows[0]))
    for row in rows:
        if fmt == "jsonl":
            print(json.dumps(row, sort_keys=True))
        elif fmt == "csv":
            cells = ("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                     for v in row.values())
            print(",".join('"%s"' % c if k in quoted else c for k, c in zip(row, cells)))
        else:
            print(text_row(row))


def _eval_text(row: Dict[str, object]) -> str:
    return "value        %s\nerror bound  %s\nterms used   %d\nmethod       %s" % (
        _fmt(row["value"], 8), _fmt(row["abs_error_bound"], 3), row["terms_used"], row["method"])


def cmd_eval(args: argparse.Namespace) -> int:
    if args.target == "integral":
        res = _eval_integral(args)
    else:
        axes, evaluate = _TARGETS[args.target]
        names = [_flag(args, axis) for axis in axes]
        _reject_unread(args, names)
        res = evaluate(*(_single(args, nm) for nm in names))
    row = {"target": args.target, "value": res.value, "abs_error_bound": res.abs_error_bound,
           "terms_used": res.terms_used, "method": res.method}
    _emit([row], args.format, _eval_text)
    return 0


def _record_row(rec: VerificationRecord) -> Dict[str, object]:
    return {
        "id": rec.spec,
        "series_value": rec.series_value,
        "oracle_value": rec.oracle_value,
        "residual": rec.residual,
        "tolerance": rec.tolerance,
        "verdict": rec.verdict,
        "errata_note": rec.errata_note,
    }


def _record_text(row: Dict[str, object]) -> str:
    line = "%-4s %-46s lhs=%s rhs=%s resid=%s tol=%s" % (
        row["verdict"].upper(), row["id"], _fmt(row["series_value"], 10), _fmt(row["oracle_value"], 10),
        _fmt(row["residual"], 3), _fmt(row["tolerance"], 3))
    return line + ("  [%s]" % row["errata_note"] if row["errata_note"] else "")


def _emit_records(records: Sequence[VerificationRecord], fmt: str) -> int:
    """Print the records and, in jsonl and text, a summary line; return the
    number that failed."""
    npass = sum(1 for r in records if r.verdict == "pass")
    nfail = len(records) - npass
    _emit([_record_row(r) for r in records], fmt, _record_text, quoted=("id", "errata_note"))
    if fmt == "jsonl":
        print(json.dumps({"records": len(records), "pass": npass, "fail": nfail}, sort_keys=True))
    elif fmt == "text":
        print("%d records, %d pass, %d fail" % (len(records), npass, nfail))
    return nfail


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    records = run_suite(args.target, tol=args.tol, workers=_resolve_workers(args.workers))
    return 1 if _emit_records(records, args.format) else 0


# grid points a pool item takes: with one point an item, a 5460-point grid
# ran slower at --workers 2 than in one process
_TABLE_UNIT = 64


def _table_task(item: Tuple[str, Sequence[Tuple[float, ...]]]) -> List[Tuple[str, Optional[float]]]:
    target, points = item
    out: List[Tuple[str, Optional[float]]] = []
    for point in points:
        try:
            out.append(("ok", _TARGETS[target][1](*point).value))
        except DivergenceError:
            out.append(("divergent", None))
    return out


def cmd_table(args: argparse.Namespace) -> int:
    from .pool import ordered_map

    axes = _TARGETS[args.target][0]
    names = [_flag(args, axis) for axis in axes]
    _reject_unread(args, names)
    grids = [_parse_range(getattr(args, nm), nm) for nm in names]
    points = list(itertools.product(*grids))
    units = [(args.target, points[i:i + _TABLE_UNIT]) for i in range(0, len(points), _TABLE_UNIT)]
    parts = ordered_map(_table_task, units, _resolve_workers(args.workers))
    rows = [{**dict(zip(axes, pt)), "value": value, "status": status}
            for (status, value), pt in zip((r for part in parts for r in part), points)]

    def text_row(row: Dict[str, object]) -> str:
        cells = ["%-10s" % _fmt(row[ax], 6) for ax in axes]
        cells.append("%-10s" % ("" if row["value"] is None else _fmt(row["value"], 7)))
        return "  ".join(cells + [row["status"]])

    if args.format == "text":
        print("  ".join("%-10s" % h for h in rows[0]))
    _emit(rows, args.format, text_row)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    from .coeff_triangle import build as build_triangle

    p = _single(args, "p")
    b = _single(args, "b")
    if p is None or b is None:
        raise DomainError("coeffs requires --p and --b")
    m = _single(args, "m")
    depth = 4 if m is None else _whole(m, 1, "coeffs needs an integer --m >= 1")
    tri = build_triangle(p, b, depth)
    rows = [{"m": m, "k": k, "A": tri.entry(m, k)} for m in range(1, depth + 1) for k in range(1, m + 1)]
    _emit(rows, "csv", None)
    return 0


def cmd_errata(args: argparse.Namespace) -> int:
    from .errata import ENTRIES
    from .verify import errata_records

    pairs = [(entry, *errata_records(entry)) for entry in ENTRIES]
    if args.format == "text":
        for entry, printed, corrected in pairs:
            print("%s\n  printed:   %s\n  corrected: %s\n  note:      %s"
                  % (entry.key, entry.printed, entry.corrected, entry.detail))
            print("  evidence:  printed %s (resid %s), corrected %s (resid %s), oracle %s" % (
                printed.verdict, _fmt(printed.residual, 3), corrected.verdict,
                _fmt(corrected.residual, 3), _fmt(corrected.oracle_value, 10)))
        return 0
    _emit_records([rec for _, printed, corrected in pairs for rec in (printed, corrected)], args.format)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        return args.run(args)
    except (DomainError, DivergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
