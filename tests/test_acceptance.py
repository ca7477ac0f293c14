"""Top-level acceptance run: one test and one printed verdict line per
criterion.  Each criterion is executed at its stated tolerance against an
independent route (quadrature, brute summation, or regularized oracle).

Criterion 12 is expected red: the printed two-sided closed form disagrees
with the direct integral everywhere except the symmetric point.  The test
asserts that adjudication pattern and then marks itself xfail so the
outcome is recorded rather than hidden.
"""

import json
import math
import subprocess
import sys

import pytest

from ramaseries.coeff_triangle import build, lhs_poly, rhs_series
from ramaseries.errata import catalog, two_sided_closed
from ramaseries.identities import (
    eta_reduction,
    inverse_factor_sum,
    master_shift,
    phi_da_closed,
    ramanujan_phi,
)
from ramaseries.quadrature import IntegralSpec, inverse_factor_direct, oracle_value
from ramaseries.series_engine import SeriesParams, eval_phi, eval_phi_da_direct
from ramaseries.special_fn import digamma, gamma, hurwitz_zeta, lerch_phi, s_prime
from ramaseries.verify import run_suite

PHI0 = gamma(0.25) ** 2 / math.sqrt(2.0 * math.pi)


def _line(n, ok, text):
    print("criterion %02d: %s - %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, text


def _quad_phi(a, b, alpha):
    spec = IntegralSpec("F1", {"a": a, "b": b, "beta": -1.0, "alpha": alpha})
    return oracle_value(spec).value


def test_criterion_01_first_worked_example():
    want = math.pi * PHI0
    series = ramanujan_phi(-0.5, 0.25, 1).value * gamma(2.0)
    quad = _quad_phi(-0.5, 0.25, 1.0)
    ok = (
        abs(series - want) <= 1e-8 * abs(want)
        and abs(quad - want) <= 1e-8 * abs(want)
    )
    _line(1, ok, "x weight: series %.12g quad %.12g closed %.12g" % (series, quad, want))


def test_criterion_02_x2_example():
    want = (math.pi ** 2 + 16.0 * s_prime(2)) * PHI0
    series = ramanujan_phi(-0.5, 0.25, 2).value * gamma(3.0)
    quad = _quad_phi(-0.5, 0.25, 2.0)
    ok = (
        abs(series - want) <= 1e-8 * abs(want)
        and abs(quad - want) <= 1e-8 * abs(want)
    )
    _line(2, ok, "x^2 weight: series %.12g quad %.12g closed %.12g" % (series, quad, want))


def test_criterion_03_x3_example_errata():
    corrected = PHI0 * (math.pi ** 3 + 48.0 * math.pi * s_prime(2) + 128.0 * s_prime(3))
    printed = PHI0 * (5.0 * math.pi ** 3 + 48.0 * s_prime(2) + 128.0 * s_prime(3))
    series = ramanujan_phi(-0.5, 0.25, 3).value * gamma(4.0)
    quad = _quad_phi(-0.5, 0.25, 3.0)
    ok = (
        abs(quad - series) <= 1e-7 * abs(series)
        and abs(quad - corrected) <= 1e-7 * abs(corrected)
        and abs(quad - printed) > 1e-3 * abs(printed)
        and "x3-example" in catalog()
    )
    _line(3, ok, "x^3 weight: quad %.12g corrected %.12g printed %.12g rejected"
          % (quad, corrected, printed))


def test_criterion_04_shift_case2():
    worst = 0.0
    for m in (0, 1, 2):
        for b in (0.5, 1.0, 2.0):
            for mu in (0.5, 1.0):
                rec = master_shift(-1.0, b, -1.0, mu, m)
                worst = max(worst, abs(rec.residual))
    # the single-pole reductions behind those rows, against quadrature
    red_ok = True
    for b in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0):
            quad = _quad_phi(-1.0, b, mu) / gamma(mu + 1.0)
            red_ok &= abs(quad - hurwitz_zeta(mu + 1.0, b)) <= 1e-9 * abs(quad)
    ok = worst < 1e-9 and red_ok
    _line(4, ok, "single-pole shift ladder: worst residual %.3g, reductions %s"
          % (worst, "agree" if red_ok else "disagree"))


def test_criterion_05_shift_case3():
    lhs = 0.25 * eval_phi(-0.5, 0.25, 1.0).value + 0.5 * eval_phi(-1.5, 1.25, 1.0).value
    rhs = eval_phi(-0.5, 0.25, 0.0).value
    quad = _quad_phi(-1.5, 1.25, 1.0)
    want = 2.0 * (1.0 - math.pi / 4.0) * PHI0
    ok = (
        abs(lhs - rhs) <= 1e-7 * abs(rhs)
        and abs(quad - want) <= 1e-6 * abs(want)
    )
    _line(5, ok, "fractional shift: combo resid %.3g, quad %.12g vs %.12g"
          % (abs(lhs - rhs) / abs(rhs), quad, want))


def test_criterion_06_coefficient_identity():
    worst = 0.0
    rows_ok = True
    for p in (-1.0, -0.5, 0.5, 2.0):
        for b in (0.25, 1.0, 3.0):
            tri = build(p, b, 9)
            rows_ok &= tri.rows[1] == pytest.approx((b, -p), rel=1e-15)
            rows_ok &= tri.rows[2] == pytest.approx(
                (b * b, -(2.0 * b + 1.0) * p, p * (p - 1.0)), rel=1e-14
            )
            for m in range(9):
                for t in (-0.6, -0.1, 0.2, 0.7):
                    l = lhs_poly(tri, m, t)
                    r = rhs_series(p, b, m, t)
                    worst = max(worst, abs(l - r) / (1.0 + abs(r)))
    ok = worst < 1e-10 and rows_ok
    _line(6, ok, "triangle identity: worst grid residual %.3g, printed rows exact" % worst)


def test_criterion_07_alternating_reduction():
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        for alpha in (1.0, 2.0):
            rec = eta_reduction(b, alpha)
            worst = max(worst, abs(rec.residual))
    ok = worst < 1e-11
    _line(7, ok, "alternating unit-weight reduction: worst residual %.3g" % worst)


def test_criterion_08_derivative_closed_form():
    worst = 0.0
    for a in (-0.5, -0.25, 0.5, 2.0):
        for b in (0.25, 1.0, 2.5):
            for n in (0, 1, 2):
                gap = abs(phi_da_closed(a, b, n) - eval_phi_da_direct(a, b, n).value)
                worst = max(worst, gap)
    fd_worst = 0.0
    h = 1e-5
    for a in (-0.5, -0.25, 0.5, 2.0):
        for b in (0.25, 1.0, 2.5):
            fd = (eval_phi(a + h, b, 1.0).value - eval_phi(a - h, b, 1.0).value) / (2.0 * h)
            fd_worst = max(fd_worst, abs(phi_da_closed(a, b, 1) - fd))
    spot = phi_da_closed(-0.5, 0.25, 0)
    want = (math.log(2.0) - math.pi / 2.0) * PHI0
    ok = worst < 1e-6 and fd_worst < 1e-6 and abs(spot - want) <= 1e-7 * abs(want)
    _line(8, ok, "derivative closed form: direct gap %.3g, fd gap %.3g, spot %.8g"
          % (worst, fd_worst, spot))


def test_criterion_09_log_log_sign():
    spec = IntegralSpec("F4", {"a": -0.5, "b": 0.25, "beta": -1.0, "alpha": 1.0})
    quad = oracle_value(spec).value
    want = -phi_da_closed(-0.5, 0.25, 1)
    ok = quad > 0.0 and abs(quad - want) <= 1e-6 * abs(want)
    _line(9, ok, "log-log integral: quad %.10g equals negated closed form %.10g"
          % (quad, want))


def test_criterion_10_inverse_factor_sums():
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        for n in (1, 2, 3):
            direct = inverse_factor_direct(b, n)
            closed = inverse_factor_sum(b, n)
            expansion = (digamma(b + 1.0) + 0.5772156649015329) * b ** (-float(n))
            for k in range(1, n):
                expansion -= hurwitz_zeta(k + 1.0, b + 1.0) * b ** (float(k - n))
            worst = max(worst, abs(direct - closed), abs(direct - expansion))
    spot_ok = abs(inverse_factor_sum(1.0, 2) - (2.0 - math.pi ** 2 / 6.0)) < 1e-12
    ok = worst < 1e-9 and spot_ok
    _line(10, ok, "pole-factor sums: worst route gap %.3g, b=1 n=2 value checks" % worst)


def test_criterion_11_trig_closed_forms():
    recs = run_suite("trig")
    nfail = sum(1 for r in recs if r.verdict != "pass")
    ok = nfail == 0 and len(recs) >= 24
    _line(11, ok, "oscillatory closed forms: %d records, %d fail" % (len(recs), nfail))


def test_criterion_12_two_sided_family():
    cells = [(b, beta) for b in (0.25, 0.5, 0.75) for beta in (0.0, 0.25, 0.5)]
    passes = []
    corrected_ok = True
    for b, beta in cells:
        orc = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
        s = math.sin(math.pi * b)
        printed = math.pi ** 3 * (2.0 - s * s) / s / (1.0 - beta)
        passes.append(abs(printed - orc) <= 1e-6 * abs(orc))
        corrected_ok &= abs(two_sided_closed(b, beta) - orc) <= 1e-6 * abs(orc)
    npass = sum(passes)
    _line(
        12,
        False,
        "two-sided closed form: %d of 9 cells match the integral (only the "
        "symmetric point b=1/2, beta=0); the corrected form matches %s 9"
        % (npass, "all" if corrected_ok else "NOT all"),
    )


def test_criterion_12_blocking_analysis():
    # honest-red companion: the adjudication pattern itself must hold
    cells = [(b, beta) for b in (0.25, 0.5, 0.75) for beta in (0.0, 0.25, 0.5)]
    pattern = []
    corrected_ok = True
    for b, beta in cells:
        orc = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
        s = math.sin(math.pi * b)
        printed = math.pi ** 3 * (2.0 - s * s) / s / (1.0 - beta)
        pattern.append(abs(printed - orc) <= 1e-6 * abs(orc))
        corrected_ok &= abs(two_sided_closed(b, beta) - orc) <= 1e-6 * abs(orc)
    assert pattern == [c == (0.5, 0.0) for c in cells]
    assert corrected_ok
    # the claimed symmetric-cell value 2 pi^3 is the closed form's number,
    # not the integral's
    orc = oracle_value(IntegralSpec("F12", {"b": 0.5, "beta": 0.5})).value
    assert abs(orc - 16.028459862503067) < 1e-8
    assert abs(2.0 * math.pi ** 3 - orc) > 2.0


def test_criterion_13_invariants_and_determinism():
    # representative invariant closures
    inv_ok = (
        abs(digamma(3.7 + 1.0) - digamma(3.7) - 1.0 / 3.7) < 1e-13
        and abs(hurwitz_zeta(2.3, 1.4) - hurwitz_zeta(2.3, 2.4) - 1.4 ** -2.3) < 1e-13
        and abs(lerch_phi(0.6, 1.5, 2.0) - (2.0 ** -1.5 + 0.6 * lerch_phi(0.6, 1.5, 3.0)))
        < 1e-13
    )
    ser = eval_phi(0.5, 1.0, 1.0)
    orc = oracle_value(
        IntegralSpec("F1", {"a": 0.5, "b": 1.0, "beta": -1.0, "alpha": 1.0})
    )
    bound_ok = abs(ser.value - orc.value) <= ser.abs_error_bound + orc.abs_error_bound

    suites_ok = True
    for name in ("series", "shifts", "errata"):
        recs = run_suite(name)
        suites_ok &= all(r.verdict == "pass" for r in recs)

    runs = []
    for workers in ("1", "3"):
        r = subprocess.run(
            [sys.executable, "-m", "ramaseries", "verify", "errata",
             "--format", "jsonl", "--workers", workers],
            capture_output=True,
            text=True,
            timeout=300,
        )
        runs.append(r.stdout)
    det_ok = runs[0] == runs[1] and json.loads(runs[0].strip().splitlines()[-1])["fail"] == 0

    ok = inv_ok and bound_ok and suites_ok and det_ok
    _line(13, ok, "invariants, suite health, and byte-stable CLI output")


# xfail marker applied late so the honest-red line still prints from the body
test_criterion_12_two_sided_family = pytest.mark.xfail(
    reason="printed two-sided closed form is refuted by the direct integral at "
    "8 of 9 grid cells; companion test pins the adjudication pattern",
    strict=True,
)(test_criterion_12_two_sided_family)
