"""End-to-end command line checks: examples, exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

from cli_runner import run_cli


def test_eval_phi_example():
    r = run_cli("eval", "phi", "--a", "0", "--b", "2", "--alpha", "1")
    assert r.returncode == 0
    assert "0.25" in r.stdout


def test_eval_phitilde_terminating():
    r = run_cli("eval", "phitilde", "--a", "2", "--b", "1", "--alpha", "0")
    assert r.returncode == 0
    assert "2.3333333" in r.stdout


def test_eval_zeta():
    r = run_cli("eval", "zeta", "--s", "2", "--q", "1")
    assert r.returncode == 0
    assert "1.6449341" in r.stdout


def test_eval_jsonl_shape():
    r = run_cli("eval", "psi", "--a=-1", "--b", "1", "--beta", "0.5",
                "--alpha", "0", "--format", "jsonl")
    assert r.returncode == 0
    rec = json.loads(r.stdout.strip())
    assert set(rec) == {"target", "value", "abs_error_bound", "terms_used", "method"}
    assert rec["value"] == pytest.approx(0.8109302162163288, rel=1e-10)


def test_eval_integral_f3_at_negative_a():
    # finite, though (1 - e^-x)^-5.5 alone overflows near x = 0
    r = run_cli("eval", "integral", "--form", "F3", "--a=-5.5", "--b", "1", "--alpha", "5")
    assert r.returncode == 0
    assert "-9.6966622" in r.stdout


def test_eval_missing_arg_exits_2():
    # the one real `python -m ramaseries`: __main__ hands main's exit code to the shell
    r = subprocess.run([sys.executable, "-m", "ramaseries", "eval", "phi", "--a", "0"],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 2
    assert "requires" in r.stderr


def test_cli_import_loads_only_the_series_layers():
    # a command imports the rest of the package when it runs, so a one-cell
    # eval pays for no oracle, suite or numpy
    code = ("import sys, ramaseries.cli; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ramaseries')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str(["ramaseries", "ramaseries.cli", "ramaseries.series_engine",
                                    "ramaseries.special_fn"])


def test_table_loads_only_the_pool_and_series_layers():
    # table reaches the process pool through pool, so a one-cell table loads
    # no oracle, suite or numpy
    code = ("import contextlib, io, sys; from ramaseries import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['table', 'phi', '--a', '0.5', '--b', '1', '--n', '1', '--workers', '1'])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ramaseries')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 " + str(["ramaseries", "ramaseries.cli", "ramaseries.pool",
                                           "ramaseries.series_engine", "ramaseries.special_fn"])


def test_verify_unknown_suite_exits_2():
    # the parser takes any suite name, and verify.build_suite rejects it
    r = run_cli("verify", "nosuch")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unknown suite 'nosuch'" in r.stderr


def test_bad_range_exits_2():
    r = run_cli("table", "phi", "--a", "0", "--b", "1:0:1", "--n", "0")
    assert r.returncode == 2


@pytest.mark.parametrize("argv, env, message", [
    (("table", "phi", "--a", text, "--b", "1", "--n", "0"), None, "for --a")
    for text in ("1..x", "3..1", "0:1", "a:b:1", "abc")
] + [
    (("table", "sprime", "--r", "1"), {"RAMASERIES_WORKERS": "two"}, "RAMASERIES_WORKERS must be an integer"),
    (("eval", "integral", "--a", "1"), None, "eval integral requires --form"),
    (("coeffs", "--p", "1"), None, "coeffs requires --p and --b"),
] + [
    (("eval", "integral", "--form", form, "--" + flag, value), None,
     "integral form %s needs parameter '%s'" % (form, missing))
    for form, flag, value, missing in (("F1", "b", "1", "a"), ("F7", "w", "3", "a"),
                                        ("F12", "beta", "0.2", "b"), ("F2", "a", "0.5", "b"))
])
def test_malformed_input_exits_2(argv, env, message):
    # a malformed range or worker count, or a missing required flag
    r = run_cli(*argv, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


@pytest.mark.parametrize("params", [
    ("--form", "F9", "--a", "1", "--v", "2", "--w", "5"),
    ("--form", "F7", "--a", "1", "--w", "2", "--v", "3"),
    ("--form", "F1", "--a=-0.5", "--b", "0.25", "--alpha", "1", "--n", "3"),
    ("--form", "F2", "--a", "0.5", "--b", "1", "--n", "1", "--alpha", "2"),
])
def test_integral_two_spellings_rejected(params):
    # --alpha and --n, or --w and --v, give one parameter; the oracle would
    # read one of the two and drop the other
    r = run_cli("eval", "integral", *params)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "not both" in r.stderr


def test_table_grid_rows():
    r = run_cli("table", "phi", "--a=-0.5", "--b", "0.25:2.25:0.5", "--n", "0..3")
    assert r.returncode == 0
    rows = [ln for ln in r.stdout.splitlines() if ln.strip()]
    assert len(rows) == 21  # header plus 5 x 4 grid


def test_table_sprime_values():
    r = run_cli("table", "sprime", "--r", "1..6")
    assert r.returncode == 0
    for frag in ("0.7853982", "0.9159656", "0.9689461"):
        assert frag in r.stdout


def test_table_divergent_row_kept():
    r = run_cli("table", "phi", "--a=-1.5", "--b", "0.25", "--n", "0")
    assert r.returncode == 0
    assert "divergent" in r.stdout


def test_verify_shifts_green():
    r = run_cli("verify", "shifts")
    assert r.returncode == 0
    assert " 0 fail" in r.stdout


def test_verify_twosided_honest_red():
    r = run_cli("verify", "twosided")
    assert r.returncode == 1
    last = r.stdout.strip().splitlines()[-1]
    assert "16 fail" in last


def test_verify_jsonl_summary_last():
    r = run_cli("verify", "errata", "--format", "jsonl")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    for ln in lines:
        json.loads(ln)
    summary = json.loads(lines[-1])
    assert summary == {"records": 12, "pass": 12, "fail": 0}


def test_verify_csv_header():
    r = run_cli("verify", "errata", "--format", "csv")
    assert r.returncode == 0
    head = r.stdout.splitlines()[0]
    assert head == "id,series_value,oracle_value,residual,tolerance,verdict,errata_note"


def test_workers_flag_byte_identical():
    base = run_cli("verify", "errata", "--format", "jsonl")
    par = run_cli("verify", "errata", "--format", "jsonl", "--workers", "3")
    assert base.returncode == par.returncode == 0
    assert base.stdout == par.stdout


def test_workers_env_byte_identical():
    base = run_cli("table", "phi", "--a=-0.5", "--b", "0.25:2.25:0.5",
                   "--n", "0..2", "--format", "csv")
    par = run_cli("table", "phi", "--a=-0.5", "--b", "0.25:2.25:0.5",
                  "--n", "0..2", "--format", "csv",
                  env={"RAMASERIES_WORKERS": "4"})
    assert base.stdout == par.stdout


def test_coeffs_csv():
    r = run_cli("coeffs", "--p", "2", "--b", "2", "--m", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "m,k,A"
    assert lines[1:] == [
        "1,1,1.0",
        "2,1,2.0",
        "2,2,-2.0",
        "3,1,4.0",
        "3,2,-10.0",
        "3,3,2.0",
    ]


def test_errata_listing():
    r = run_cli("errata")
    assert r.returncode == 0
    assert "(3.4)" in r.stdout
    assert "corrected pass" in r.stdout
    assert "printed fail" in r.stdout


def test_tol_override_forces_failures():
    # an absurdly tight tolerance must flip otherwise-green records to fail
    r = run_cli("verify", "series", "--tol", "1e-30")
    assert r.returncode == 1


@pytest.mark.parametrize("cmd", ["eval", "table"])
@pytest.mark.parametrize("args, message", [
    (("phida", "--a", "0.5", "--b", "1", "--n", "0.5"), "phida needs a non-negative integer order"),
    (("sprime", "--r", "1.5"), "sprime needs a positive integer index"),
    (("phida", "--a", "0.5", "--b", "1", "--n", "nan"), "phida needs a non-negative integer order"),
])
def test_non_integer_order_rejected(cmd, args, message):
    r = run_cli(cmd, *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


def test_table_phida_fractional_grid_rejected():
    # a grid point of 0.5 must not be truncated to order 0
    r = run_cli("table", "phida", "--a", "0.5", "--b", "1", "--n", "0:1:0.5")
    assert r.returncode == 2
    assert "phida needs a non-negative integer order" in r.stderr


@pytest.mark.parametrize("args, message", [
    (("eval", "integral", "--form", "F2", "--a", "0.5", "--b", "1", "--n", "0.5"),
     "integral needs a non-negative integer order"),
    (("eval", "integral", "--form", "F1", "--a", "0.5:1.5:0.5", "--b", "1", "--n", "0"),
     "eval takes single values, got a range for --a"),
    (("coeffs", "--p", "1", "--b", "1", "--m", "1..3"),
     "coeffs takes single values, got a range for --m"),
    (("coeffs", "--p", "1", "--b", "1", "--m", "2.5"), "coeffs needs an integer --m >= 1"),
    (("eval", "integral", "--form", "F7", "--a", "1.5", "--w", "2", "--alpha", "0.7"),
     "need integer a >= 1"),
    (("eval", "integral", "--form", "F2", "--a", "0.5", "--b", "1", "--n", "inf"),
     "integral needs a non-negative integer order"),
    (("coeffs", "--p", "1", "--b", "1", "--m", "inf"), "coeffs needs an integer --m >= 1"),
])
def test_single_value_flags_rejected(args, message):
    # a range or a fractional order must not be cut to its first or integer part
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


@pytest.mark.parametrize("argv, message", [
    (("coeffs", "--p", "nan", "--b", "1"), "p and b must be finite"),
    (("coeffs", "--p", "1", "--b", "inf"), "p and b must be finite"),
    (("coeffs", "--p", "1e308", "--b", "1e308", "--m", "64"), "past double range"),
    (("eval", "phida", "--a", "1e300", "--b", "1", "--n", "0"), "overflow double precision"),
    (("eval", "integral", "--form", "F2", "--a", "0.5", "--b", "1", "--n", "1e9"),
     "integrand overflows"),
    (("eval", "integral", "--form", "F4", "--a", "0.5", "--b", "1", "--n", "2000"),
     "integrand overflows"),
] + [(("verify", "twosided", "--tol", tol), "tolerance must be finite and >= 0")
     for tol in ("inf", "nan", "-1")] + [
    (("eval", "zeta", "--s", "2", "--q", "inf"), "error: hurwitz_zeta needs finite s and q, got q = inf"),
])
def test_input_past_double_range_exits_2(argv, message):
    # non-finite input, a coefficient, head length or integrand past 1e308,
    # or a tolerance that would pass or fail every record: an error line and
    # exit 2, not a traceback or a verdict
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


@pytest.mark.parametrize("exc", ["DomainError", "DivergenceError", "ExtrapolationError"])
def test_verify_cell_error_exits_2(exc, monkeypatch):
    # the suites are fixed cells, so one that raises is a fault: verify
    # reports it and exits 2 rather than leave the cell out of its records;
    # an oscillatory integral with no Abel value is such a fault too
    from ramaseries import quadrature, special_fn, verify

    dispatch = verify._dispatch
    error = quadrature.ExtrapolationError if exc == "ExtrapolationError" else getattr(special_fn, exc)

    def faulty(op, args):
        if op == "eta":
            raise error("eta cell failed")
        return dispatch(op, args)

    monkeypatch.setattr(verify, "_dispatch", faulty)
    r = run_cli("verify", "shifts", "--workers", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error: eta cell failed" in r.stderr


@pytest.mark.parametrize("base, workers, env, size", [
    (("verify", "errata"), ("--workers", "2"), None, 2),
    (("verify", "errata"), ("--workers", "100000"), None, 3),  # 12 tasks, 3 units
    (("table", "sprime", "--r", "1..100"), (), {"RAMASERIES_WORKERS": "100000"}, 2),  # 2 units of 64
    (("table", "sprime", "--r", "1..200"), (), {"RAMASERIES_WORKERS": "100000"}, 3),  # 4 units
])
def test_pool_size_capped(base, workers, env, size, monkeypatch):
    # a forking pool starts all its processes at once, so it gets no more
    # than min(workers, units, CPUs): here 3 CPUs and a fake pool, which
    # maps serially and starts no process
    import os

    from ramaseries import pool

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    serial = run_cli(*base, "--format", "csv")
    monkeypatch.setattr(pool, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pooled = run_cli(*base, *workers, "--format", "csv", env=env)
    assert sizes == [size]
    assert pooled == serial


@pytest.mark.parametrize("cmd", ["eval", "table"])
@pytest.mark.parametrize("target, params", [
    ("phi", ("--a", "0.5", "--b", "1")),
    ("psi", ("--a", "0.5", "--b", "1", "--beta", "0.5")),
])
def test_order_flag_either_spelling(cmd, target, params):
    by_n = run_cli(cmd, target, *params, "--n", "1", "--format", "csv")
    by_alpha = run_cli(cmd, target, *params, "--alpha", "1", "--format", "csv")
    assert by_n.returncode == by_alpha.returncode == 0
    assert by_n.stdout == by_alpha.stdout
    both = run_cli(cmd, target, *params, "--n", "0", "--alpha", "1")
    assert both.returncode == 2
    assert both.stdout == ""
    assert "not both" in both.stderr


def _scalar_reference(mp, target, point):
    if target == "zeta":
        return mp.zeta(*point)
    if target == "sprime":
        return mp.dirichlet(point[0], [0, 1, 0, -1])  # 1 - 3^-r + 5^-r - ...
    beta, s, q = point
    return mp.zeta(s, q) if beta == 1.0 else mp.lerchphi(beta, s, q)


@pytest.mark.parametrize("target, point", [
    ("zeta", (1.05, 0.05)), ("zeta", (8.0, 20.0)), ("zeta", (2.0, 1.0)),
] + [("sprime", (float(r),)) for r in range(1, 13)] + [
    ("lerch", (-1.0, s, q)) for s in (0.3, 1.0, 2.5) for q in (0.5, 3.0)
] + [("lerch", (1.0, 2.5, 0.5)), ("lerch", (-0.5, 1.0, 1.0)), ("lerch", (0.999999, 1.0, 1.0))] + [
    ("sprime", (508.0,)), ("sprime", (600.0,)),  # where the Hurwitz route's 4^r overflowed
])
def test_eval_target_bound_holds(target, point):
    # every scalar eval target reports a derived bound; at beta = 0.999999
    # the loop stops at 10^6 terms, 0.22 short, and its bound covers that
    mp = pytest.importorskip("mpmath")
    from ramaseries.cli import _TARGETS

    got = _TARGETS[target][1](*point)
    with mp.workdps(40):
        ref = _scalar_reference(mp, target, point)
        assert abs(got.value - ref) <= got.abs_error_bound
    if point[0] != 0.999999:
        assert got.abs_error_bound <= 1e-13 * abs(got.value)


# a base command line per subcommand (and integral form), and the flags it reads
_READS = {
    ("eval", "phi", "--a=-0.5", "--b", "0.25", "--n", "1"): {"format", "a", "b", "alpha", "n"},
    ("eval", "zeta", "--s", "2", "--q", "1"): {"format", "s", "q"},
    ("eval", "integral", "--form", "F1", "--a=-0.5", "--b", "0.25", "--n", "1"):
        {"format", "form", "a", "b", "beta", "alpha", "n"},
    ("eval", "integral", "--form", "F7", "--a", "1", "--w", "2"): {"format", "form", "a", "w", "v", "alpha"},
    ("table", "sprime", "--r", "1..3"): {"format", "workers", "r"},
    ("verify", "shifts"): {"format", "tol", "workers"},
    ("coeffs", "--p", "2", "--b", "2"): {"p", "b", "m"},
    ("errata",): {"format"},
}
_FLAGS = ("format", "tol", "workers", "a", "b", "beta", "alpha", "n", "m", "s", "q", "r",
          "w", "v", "p", "mu", "part", "form")
_VALUES = {"format": "jsonl", "part": "c", "form": "F9"}


@pytest.mark.parametrize("base, flag", [
    (base, flag) for base, read in _READS.items() for flag in _FLAGS if flag not in read
])
def test_unread_flag_exits_2(base, flag):
    # a flag the command would ignore is an error, before anything runs
    r = run_cli(*base, "--" + flag, _VALUES.get(flag, "1"))
    assert r.returncode == 2
    assert r.stdout == ""


@pytest.mark.parametrize("text", ["0:inf:1", "0:nan:1", "-inf:0:1", "0:1:nan", "nan:1:1", "0:1:inf"])
def test_non_finite_range_rejected(text):
    # inf or nan never passes hi, so the grid would grow until memory ran out
    from ramaseries.cli import _parse_range
    from ramaseries.special_fn import DomainError

    with pytest.raises(DomainError):
        _parse_range(text, "a")


# points of every eval target: each regime of the series targets, the numpy
# direct block of the damped tail (psi at beta = -0.998) included
_TYPE_POINTS = {
    "phi": [(0.5, 1.0, 1.0), (2.0, 1.0, 0.0), (-2.0, 1.0, 2.0)],
    "phitilde": [(0.5, 1.0, 1.0)],
    "psi": [(0.5, 1.0, 0.5, 0.0), (-0.5, 1.5, -0.998, 0.0)],
    "phida": [(0.5, 1.0, 1.0), (2.0, 1.0, 0.0)],
    "zeta": [(2.0, 1.0)],
    "lerch": [(-0.5, 1.0, 1.0), (1.0, 2.5, 0.5)],
    "sprime": [(3.0,)],
}
_TYPE_FORMS = [
    ("F1", {"a": -0.5, "b": 0.25, "alpha": 1.0}),
    ("F7", {"a": 2.0, "w": 3.0, "alpha": 1.0}),
    ("F11", {"a": 2.0, "w": 3.0, "alpha": 0.0, "part": "c"}),
    ("F12", {"b": 0.5, "beta": 0.25}),
]


def test_type_points_cover_every_target():
    from ramaseries.cli import _TARGETS

    assert set(_TYPE_POINTS) == set(_TARGETS)


@pytest.mark.parametrize("target, point", [(t, p) for t, ps in _TYPE_POINTS.items() for p in ps]
                         + [("integral", form) for form in _TYPE_FORMS])
def test_results_are_plain_python_numbers(target, point):
    # no numpy scalar reaches an EvalResult, from the series loops, the damped
    # tail or the quadrature oracles
    from ramaseries.cli import _TARGETS
    from ramaseries.quadrature import IntegralSpec, oracle_value

    if target == "integral":
        got = oracle_value(IntegralSpec(*point))
    else:
        got = _TARGETS[target][1](*point)
    assert type(got.value) is float
    assert type(got.abs_error_bound) is float
    assert type(got.terms_used) is int
