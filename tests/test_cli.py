"""End-to-end command line checks: examples, exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ramaseries", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


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


def test_eval_missing_arg_exits_2():
    r = run_cli("eval", "phi", "--a", "0")
    assert r.returncode == 2
    assert "requires" in r.stderr


def test_bad_range_exits_2():
    r = run_cli("table", "phi", "--a", "0", "--b", "1:0:1", "--n", "0")
    assert r.returncode == 2


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
                  env_extra={"RAMASERIES_WORKERS": "4"})
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
])
def test_single_value_flags_rejected(args, message):
    # a range or a fractional order must not be cut to its first or integer part
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


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
] + [("lerch", (1.0, 2.5, 0.5)), ("lerch", (-0.5, 1.0, 1.0)), ("lerch", (0.999999, 1.0, 1.0))])
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
