import math

import numpy as np
import pytest

from ramaseries.quadrature import (
    ExtrapolationError,
    IntegralSpec,
    abel_oscillatory,
    integrate_decay,
    integrate_two_sided,
    integrate_unit,
    inverse_factor_direct,
    make_record,
    oracle_value,
)
from ramaseries.series_engine import SeriesParams
from ramaseries.special_fn import DomainError, beta_f


def test_unit_trivial():
    r = integrate_unit(lambda t: 1.0)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    r = integrate_unit(lambda t: math.log(t), f_right=lambda d: math.log1p(-d))
    assert r.value == pytest.approx(-1.0, abs=1e-12)
    assert r.method == "oracle"


def test_unit_beta_singular_both_ends():
    want = beta_f(0.0, -0.5, 0.25)
    r = integrate_unit(
        lambda t: t ** -0.5 * (1.0 - t) ** -0.75,
        f_right=lambda d: (1.0 - d) ** -0.5 * d ** -0.75,
    )
    assert r.value == pytest.approx(want, rel=1e-12)
    assert r.abs_error_bound < 1e-9


def test_decay_gamma_exactness():
    for k in range(7):
        for b in (0.25, 1.0, 3.0):
            r = integrate_decay(lambda x, k=k, b=b: x ** k * math.exp(-b * x), b)
            want = math.gamma(k + 1) / b ** (k + 1)
            assert r.value == pytest.approx(want, rel=1e-12), (k, b)


def test_substitution_consistency_f1_f2():
    # the decay-form and unit-interval-form oracles see the same instance
    for a in (-0.5, 0.5):
        for b in (0.25, 1.0):
            for n in (0, 1, 2):
                sp = SeriesParams(a, b, -1.0, float(n))
                v1 = oracle_value(IntegralSpec("F1", sp)).value
                v2 = oracle_value(IntegralSpec("F2", sp)).value
                assert v1 == pytest.approx((-1.0) ** n * v2, rel=1e-9), (a, b, n)


ABEL_CLOSED = [
    ("F7", {"a": 1, "w": 2, "alpha": 0}, -1 / 3),
    ("F8", {"a": 1, "w": 2, "alpha": 0}, 0.0),
    ("F8", {"a": 1, "w": 2, "alpha": 1}, -4 / 9),
    ("F8", {"a": 2, "w": 3, "alpha": 0}, -2 / 15),
    ("F7", {"a": 2, "w": 3, "alpha": 0}, 0.0),
    ("F7", {"a": 2, "w": 3, "alpha": 1}, 46 / 225),
    ("F7", {"a": 3, "w": 4, "alpha": 0}, 2 / 35),
    ("F10", {"a": 1, "v": 2, "alpha": 0}, 2 / 3),
    ("F9", {"a": 1, "v": 2, "alpha": 0}, 0.0),
    ("F10", {"a": 2, "v": 3, "alpha": 0}, 7 / 15),
    ("F9", {"a": 1, "v": 2, "alpha": 1}, -5 / 9),
]


@pytest.mark.parametrize("form,params,want", ABEL_CLOSED)
def test_abel_closed_forms(form, params, want):
    r = oracle_value(IntegralSpec(form, params))
    assert r.value == pytest.approx(want, abs=1e-6)
    assert r.abs_error_bound < 1e-6


def test_abel_plain_sine():
    r = abel_oscillatory(lambda x: np.sin(x))
    assert r.value == pytest.approx(1.0, abs=1e-8)


def test_abel_instability_raises():
    with pytest.raises(ExtrapolationError):
        abel_oscillatory(lambda x: np.exp(0.05 * x) * np.sin(x))


def test_two_sided():
    r = integrate_two_sided(lambda x: x * x / (2.0 * math.cosh(0.5 * x)))
    assert r.value == pytest.approx(math.pi ** 3, abs=1e-9)
    r = integrate_two_sided(lambda x: x / (2.0 * math.cosh(0.5 * x)))
    assert abs(r.value) < 1e-10
    # weighted variant, value frozen from a 30-digit reference run
    r = oracle_value(IntegralSpec("F12", {"b": 0.5, "beta": 0.5}))
    assert r.value == pytest.approx(16.0284598625030669, rel=1e-9)


def test_oracle_log_forms():
    # n=1 log-power unit integral carries the sign flip against the decay form
    sp = SeriesParams(-0.5, 0.25, -1.0, 1.0)
    v2 = oracle_value(IntegralSpec("F2", sp)).value
    assert v2 == pytest.approx(-16.4748734997074881, rel=1e-10)
    v4 = oracle_value(IntegralSpec("F4", sp)).value
    assert v4 == pytest.approx(1.12924919678964579, rel=1e-9)
    v3 = oracle_value(IntegralSpec("F3", SeriesParams(-0.5, 0.25, -1.0, 0.0))).value
    assert v3 == pytest.approx(-4.6024931478067669, rel=1e-9)


def test_validation():
    with pytest.raises(DomainError):
        integrate_decay(lambda x: 1.0, 0.0)
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F1", SeriesParams(-0.5, 0.25, 1.0, 1.0)))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F99", {"a": 1}))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F11", {"a": 1, "w": 2, "alpha": 0}))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F12", {"b": 1.5, "beta": 0.0}))


def test_inverse_factor_direct_vs_mpmath():
    # the invsum oracle on the verify cells, against sum_j 1/(j (b+j)^n)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for b in (0.5, 1.0, 2.0):
            for n in (1, 2, 3):
                ref = mp.nsum(lambda j: 1 / (j * (b + j) ** n), [1, mp.inf])
                got = inverse_factor_direct(b, n)
                assert abs(got - ref) <= 1e-15 * abs(ref), (b, n)


def test_graceful_level_cap():
    # oscillation far below node resolution defeats the rule; it must
    # report the achieved estimate, not raise
    r = integrate_unit(lambda t: abs(math.sin(1.0e6 * t)))
    assert math.isfinite(r.value)
    assert r.abs_error_bound > 1e-11


def test_make_record_verdict():
    rec = make_record("id1", 1.0, 1.0 + 5e-10, 1e-9)
    assert rec.verdict == "pass"
    rec = make_record("id2", 1.0, 1.1, 1e-9)
    assert rec.verdict == "fail"
    assert rec.residual == pytest.approx(-0.1)
