"""Command line front end.

Subcommands:

  eval    evaluate one quantity at a single parameter point
  verify  run a named verification suite and adjudicate every record
  table   evaluate a quantity over a Cartesian parameter grid
  coeffs  print the shift-coefficient triangle as CSV
  errata  reproduce the catalogued discrepancies with numeric evidence

Output is deterministic: records are emitted in task order no matter how
many workers computed them, and floats are formatted through a single
helper so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff_triangle import build as build_triangle
from .errata import reproduce_all
from .quadrature import IntegralSpec, VerificationRecord, oracle_value
from .series_engine import (
    SeriesParams,
    EvalResult,
    eval_phi,
    eval_phi_da_direct,
    eval_phi_tilde,
    eval_psi_general,
)
from .special_fn import DivergenceError, DomainError, _hurwitz, _lerch, _s_prime
from .verify import SUITE_NAMES, ordered_map, run_suite


def _fmt(x: float, digits: int) -> str:
    if x != x:
        return "nan"
    s = "%.*g" % (digits, x)
    # normalise exponent spelling across platforms (1e-05 vs 1e-5)
    if "e" in s:
        mant, exp = s.split("e")
        s = mant + "e" + ("%d" % int(exp))
    return s


def _fmt_full(x: float) -> str:
    return repr(float(x))


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
        if step <= 0 or hi < lo:
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


_PARAM_FLAGS = ("a", "b", "beta", "alpha", "n", "m", "s", "q", "r", "w", "v", "p", "mu")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramaseries",
        description="evaluate and verify binomial-weighted inverse-power series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("text", "csv", "jsonl"), default="text")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--workers", type=int, default=None)
        for flag in _PARAM_FLAGS:
            sp.add_argument("--" + flag, type=str, default=None)
        sp.add_argument("--part", type=str, default=None)
        sp.add_argument("--form", type=str, default=None)

    p_eval = sub.add_parser("eval", help="evaluate one quantity at a point")
    p_eval.add_argument("target", choices=tuple(_TARGETS) + ("integral",))
    common(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("target", choices=("all",) + SUITE_NAMES)
    common(p_verify)
    p_verify.set_defaults(run=cmd_verify)

    p_table = sub.add_parser("table", help="evaluate over a parameter grid")
    p_table.add_argument("target", choices=tuple(_TARGETS))
    common(p_table)
    p_table.set_defaults(run=cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="print the coefficient triangle")
    common(p_coeffs)
    p_coeffs.set_defaults(run=cmd_coeffs)

    p_err = sub.add_parser("errata", help="reproduce catalogued discrepancies")
    common(p_err)
    p_err.set_defaults(run=cmd_errata)

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


def _flag(args: argparse.Namespace, axis: str) -> str:
    """The flag that gives one axis of a target.

    The order of a series target is its "n" or "alpha" axis, and either
    spelling gives it; giving both is an error.
    """
    names = ("alpha", "n") if axis in ("alpha", "n") else (axis,)
    given = [nm for nm in names if getattr(args, nm) is not None]
    if len(given) > 1:
        raise DomainError("%s %s takes --alpha or --n, not both" % (args.command, args.target))
    if not given:
        want = "--alpha (or --n)" if len(names) > 1 else "--" + axis
        raise DomainError("%s %s requires %s" % (args.command, args.target, want))
    return given[0]


def _int_order(target: str, n: float) -> int:
    if n != int(n) or n < 0:
        raise DomainError("%s needs a non-negative integer order" % target)
    return int(n)


def _phida(a: float, b: float, n: float) -> EvalResult:
    return eval_phi_da_direct(a, b, _int_order("phida", n))


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
    if args.form is None:
        raise DomainError("eval integral requires --form (one of F1..F12)")
    ip: Dict[str, object] = {}
    for nm in ("a", "b", "beta", "alpha", "n", "w", "v", "mu"):
        value = _single(args, nm)
        if value is not None:
            ip[nm] = value
    if "n" in ip:
        ip["n"] = _int_order("integral", ip["n"])
    if args.part is not None:
        ip["part"] = args.part
    return oracle_value(IntegralSpec(form=args.form, params=ip))


def cmd_eval(args: argparse.Namespace) -> int:
    if args.target == "integral":
        res = _eval_integral(args)
    else:
        axes, evaluate = _TARGETS[args.target]
        res = evaluate(*(_single(args, _flag(args, axis)) for axis in axes))
    if args.format == "jsonl":
        print(
            json.dumps(
                {
                    "target": args.target,
                    "value": res.value,
                    "abs_error_bound": res.abs_error_bound,
                    "terms_used": res.terms_used,
                    "method": res.method,
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        print("target,value,abs_error_bound,terms_used,method")
        print(
            "%s,%s,%s,%d,%s"
            % (args.target, _fmt_full(res.value), _fmt_full(res.abs_error_bound), res.terms_used, res.method)
        )
    else:
        print("value        %s" % _fmt(res.value, 8))
        print("error bound  %s" % _fmt(res.abs_error_bound, 3))
        print("terms used   %d" % res.terms_used)
        print("method       %s" % res.method)
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


def _emit_records(records: Sequence[VerificationRecord], fmt: str) -> Tuple[int, int]:
    npass = sum(1 for r in records if r.verdict == "pass")
    nfail = len(records) - npass
    if fmt == "jsonl":
        for rec in records:
            print(json.dumps(_record_row(rec), sort_keys=True))
        print(
            json.dumps(
                {"records": len(records), "pass": npass, "fail": nfail},
                sort_keys=True,
            )
        )
    elif fmt == "csv":
        print("id,series_value,oracle_value,residual,tolerance,verdict,errata_note")
        for rec in records:
            row = _record_row(rec)
            note = row["errata_note"] or ""
            print(
                '%s,%s,%s,%s,%s,%s,"%s"'
                % (
                    '"%s"' % row["id"],
                    _fmt_full(rec.series_value),
                    _fmt_full(rec.oracle_value),
                    _fmt_full(rec.residual),
                    _fmt_full(rec.tolerance),
                    rec.verdict,
                    note,
                )
            )
    else:
        for rec in records:
            row = _record_row(rec)
            line = "%-4s %-46s lhs=%s rhs=%s resid=%s tol=%s" % (
                rec.verdict.upper(),
                row["id"],
                _fmt(rec.series_value, 10),
                _fmt(rec.oracle_value, 10),
                _fmt(rec.residual, 3),
                _fmt(rec.tolerance, 3),
            )
            if rec.errata_note:
                line += "  [%s]" % rec.errata_note
            print(line)
        print("%d records, %d pass, %d fail" % (len(records), npass, nfail))
    return npass, nfail


def cmd_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.target, tol=args.tol, workers=args.workers)
    _, nfail = _emit_records(records, args.format)
    return 1 if nfail else 0


def _table_task(item: Tuple[int, str, Tuple[float, ...]]) -> Tuple[int, str, float]:
    ordinal, target, point = item
    try:
        return ordinal, "ok", _TARGETS[target][1](*point).value
    except DivergenceError:
        return ordinal, "divergent", float("nan")


def cmd_table(args: argparse.Namespace) -> int:
    axes = _TARGETS[args.target][0]
    grids = []
    for axis in axes:
        nm = _flag(args, axis)
        grids.append(_parse_range(getattr(args, nm), nm))
    points = list(itertools.product(*grids))
    tasks = [(i, args.target, pt) for i, pt in enumerate(points)]
    raw = ordered_map(_table_task, tasks, args.workers)

    header = list(axes) + ["value", "status"]
    if args.format == "jsonl":
        for (_, status, value), pt in zip(raw, points):
            row = dict(zip(axes, pt))
            row["value"] = None if value != value else value
            row["status"] = status
            print(json.dumps(row, sort_keys=True))
    elif args.format == "csv":
        print(",".join(header))
        for (_, status, value), pt in zip(raw, points):
            cells = [_fmt_full(v) for v in pt]
            cells.append("" if value != value else _fmt_full(value))
            cells.append(status)
            print(",".join(cells))
    else:
        print("  ".join("%-10s" % h for h in header))
        for (_, status, value), pt in zip(raw, points):
            cells = ["%-10s" % _fmt(v, 6) for v in pt]
            cells.append("%-10s" % ("" if value != value else _fmt(value, 7)))
            cells.append(status)
            print("  ".join(cells))
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    p = _single(args, "p")
    b = _single(args, "b")
    if p is None or b is None:
        raise DomainError("coeffs requires --p and --b")
    m = _single(args, "m")
    if m is not None and (m != int(m) or m < 1):
        raise DomainError("coeffs needs an integer --m >= 1")
    depth = 4 if m is None else int(m)
    tri = build_triangle(p, b, depth)
    print("m,k,A")
    for m in range(1, depth + 1):
        for k in range(1, m + 1):
            print("%d,%d,%s" % (m, k, _fmt_full(tri.entry(m, k))))
    return 0


def cmd_errata(args: argparse.Namespace) -> int:
    if args.format == "text":
        for entry, printed, corrected in reproduce_all():
            print("%s" % entry.key)
            print("  printed:   %s" % entry.printed)
            print("  corrected: %s" % entry.corrected)
            print("  note:      %s" % entry.detail)
            print(
                "  evidence:  printed %s (resid %s), corrected %s (resid %s), oracle %s"
                % (
                    printed.verdict,
                    _fmt(printed.residual, 3),
                    corrected.verdict,
                    _fmt(corrected.residual, 3),
                    _fmt(corrected.oracle_value, 10),
                )
            )
        return 0
    rows = [rec for _, printed, corrected in reproduce_all() for rec in (printed, corrected)]
    _emit_records(rows, args.format)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        args.workers = _resolve_workers(args.workers)
        return args.run(args)
    except (DomainError, DivergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
