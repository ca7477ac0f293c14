import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from ramaseries import quadrature
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
from ramaseries.series_engine import SeriesParams, eval_phi_tilde, eval_psi_general
from ramaseries.special_fn import DomainError, beta_f


def test_unit_trivial():
    r = integrate_unit(lambda t: 1.0, f_right=lambda d: 1.0)
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
                sp = {"a": a, "b": b, "beta": -1.0, "alpha": float(n)}
                v1 = oracle_value(IntegralSpec("F1", sp)).value
                v2 = oracle_value(IntegralSpec("F2", sp)).value
                assert v1 == pytest.approx((-1.0) ** n * v2, rel=1e-9), (a, b, n)


@pytest.mark.parametrize("form, a, b, beta, alpha, rel", [
    ("F5", 0.5, 1.0, 1.0, 0.0, 1e-14),
    ("F5", 2.0, 0.5, 1.0, 1.0, 1e-14),
    ("F5", -0.5, 1.5, 1.0, 1.5, 1e-14),
    ("F5", 1.5, 2.0, 1.0, 2.0, 1e-14),
    ("F6", 0.5, 1.0, 0.5, 0.0, 1e-12),
    ("F6", -1.5, 0.5, -0.7, 1.0, 1e-12),
])
def test_decay_forms_with_weight_one_plus_beta(form, a, b, beta, alpha, rel):
    # int x^alpha e^(-bx) (1 + beta e^(-x))^a dx = Gamma(alpha+1) S(a, b, beta, alpha);
    # F5 fixes beta = 1, the positive-weight series
    params = {"a": a, "b": b, "alpha": alpha}
    if form == "F5":
        series = eval_phi_tilde(a, b, alpha)
    else:
        params["beta"] = beta
        series = eval_psi_general(SeriesParams(a=a, b=b, beta=beta, alpha=alpha))
    got = oracle_value(IntegralSpec(form, params)).value
    assert got == pytest.approx(math.gamma(alpha + 1.0) * series.value, rel=rel)


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
    (r,) = abel_oscillatory(lambda x: (np.sin(x),))
    assert r.value == pytest.approx(1.0, abs=1e-8)


def test_abel_instability_raises():
    # the unsettled part comes back in its place, and the oracle raises it
    (r,) = abel_oscillatory(lambda x: (np.exp(0.05 * x) * np.sin(x),))
    assert isinstance(r, ExtrapolationError)
    # sin(x) sin(x) has no Abel value; its sibling sin(x) cos(x) has, in and out of a memo
    for memo in (contextlib.nullcontext(), quadrature.oracle_memo()):
        with memo:
            with pytest.raises(ExtrapolationError):
                oracle_value(IntegralSpec("F8", {"a": 1, "w": 1.0, "alpha": 0}))
            r = oracle_value(IntegralSpec("F7", {"a": 1, "w": 1.0, "alpha": 0}))
            assert r.value == pytest.approx(0.25, abs=1e-8)


def test_abel_integrand_returns_a_tuple():
    with pytest.raises(TypeError):
        abel_oscillatory(lambda x: np.sin(x))


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
    sp = {"a": -0.5, "b": 0.25, "beta": -1.0, "alpha": 1.0}
    v2 = oracle_value(IntegralSpec("F2", sp)).value
    assert v2 == pytest.approx(-16.4748734997074881, rel=1e-10)
    v4 = oracle_value(IntegralSpec("F4", sp)).value
    assert v4 == pytest.approx(1.12924919678964579, rel=1e-9)
    v3 = oracle_value(IntegralSpec("F3", {"a": -0.5, "b": 0.25, "beta": -1.0, "alpha": 0.0})).value
    assert v3 == pytest.approx(-4.6024931478067669, rel=1e-9)


def test_validation():
    with pytest.raises(DomainError):
        integrate_decay(lambda x: 1.0, 0.0)
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F1", {"a": -0.5, "b": 0.25, "beta": 1.0, "alpha": 1.0}))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F99", {"a": 1}))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F11", {"a": 1, "w": 2, "alpha": 0}))
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F12", {"b": 1.5, "beta": 0.0}))


@pytest.mark.parametrize("params", [{"a": 1.5, "w": 2.0}, {"a": 1.0, "w": 2.0, "alpha": 0.7}])
def test_trig_forms_reject_fractional_parameters(params):
    # int() would cut either to the a = 1, alpha = 0 integral
    with pytest.raises(DomainError):
        oracle_value(IntegralSpec("F7", params))


def test_inverse_factor_direct_vs_mpmath():
    # the invsum oracle on the verify cells, against sum_j 1/(j (b+j)^n)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for b in (0.5, 1.0, 2.0):
            for n in (1, 2, 3):
                ref = mp.nsum(lambda j: 1 / (j * (b + j) ** n), [1, mp.inf])
                got = inverse_factor_direct(b, n)
                assert abs(got - ref) <= 1e-15 * abs(ref), (b, n)


@pytest.mark.parametrize("b, n", [(-1.0, 2), (math.nan, 2), (1.0, 0), (1.0, -1), (1.0, 2.5)])
def test_inverse_factor_direct_input_checks(b, n):
    # before, these returned inf, nan, or finite numbers for divergent series
    with pytest.raises(DomainError):
        inverse_factor_direct(b, n)


def test_abel_cached_grids_read_only():
    abel_oscillatory(lambda x: (np.sin(x), np.cos(x)))
    abel_oscillatory(lambda x: (np.sin(x), np.cos(x)), log_singular=True)
    hx, hw, x, w, *damp = quadrature._abel_grid(False)
    assert len(damp) == len(quadrature._ABEL_EPS)
    # the tanh-sinh rule keeps its one-panel rule only
    assert len(quadrature._abel_grid(True)) == 2
    for log_singular in (False, True):
        assert not any(arr.flags.writeable for arr in quadrature._abel_grid(log_singular))

    def scribbler(x):
        x *= 2.0
        return np.sin(x), np.cos(x)

    for log_singular in (False, True):
        with pytest.raises(ValueError):
            abel_oscillatory(scribbler, log_singular=log_singular)


@pytest.mark.parametrize("log_singular", [False, True])
def test_abel_cold_cache_same_bits(monkeypatch, log_singular):
    f = lambda x: (x * np.sin(x) ** 2 * np.cos(3.0 * x), x * np.sin(x) ** 2 * np.sin(3.0 * x))
    warm = abel_oscillatory(f, log_singular=log_singular)
    monkeypatch.setattr(quadrature, "_ABEL_GRIDS", {})
    cold = abel_oscillatory(f, log_singular=log_singular)
    assert quadrature._ABEL_GRIDS
    assert len(cold) == 2
    assert ([(r.value, r.abs_error_bound) for r in cold]
            == [(r.value, r.abs_error_bound) for r in warm])


@pytest.mark.parametrize("part", ["c", "s"])
def test_abel_sliced_tanh_sinh_matches_whole_array(monkeypatch, part):
    # the F11 integrand, damped and summed over the whole grid at once
    seen, slices = [], []
    inner = quadrature.abel_oscillatory

    def spy(f, **kw):
        seen.append(f)

        def recorder(x):
            slices.append((x.copy(), x.flags.writeable))
            return f(x)

        return inner(recorder, **kw)

    monkeypatch.setattr(quadrature, "abel_oscillatory", spy)
    r = oracle_value(IntegralSpec("F11", {"a": 2, "w": 3.0, "alpha": 1, "part": part}))
    (f,) = seen
    xi, wi = quadrature._ts_rule()
    k = np.arange(quadrature._ABEL_PANELS)[:, None]
    x = ((k + 0.5) * np.pi + 0.5 * np.pi * xi[None, :]).ravel()
    w = np.tile(0.5 * np.pi * wi, quadrature._ABEL_PANELS)
    assert x.size > 16 * quadrature._ABEL_SLICE
    # the generated slices are the whole grid, bit for bit, and read-only
    assert len(slices) > 16
    assert np.concatenate([s for s, _ in slices]).tobytes() == x.tobytes()
    assert not any(writeable for _, writeable in slices)
    eps = quadrature._ABEL_EPS
    (fx,) = f(x)  # a bare call evaluates its own part alone
    fw = fx * w
    F = np.array([np.sum(fw * np.exp(-e * x)) for e in eps])
    val = quadrature._neville_to_zero(eps, F)
    prev = quadrature._neville_to_zero(eps[:-1], F[:-1])
    tail = math.exp(-40.0) * (1.0 + quadrature._ABEL_X_MAX) ** 2
    assert r.value == val
    assert r.abs_error_bound == abs(val - prev) + tail


def test_abel_tanh_sinh_traced_peak(monkeypatch):
    # a cold call, grid build included; the whole-array path peaked at 23 MB.
    # Outside a memo the call computes one part, in a memo both.
    spec = IntegralSpec("F11", {"a": 2, "w": 3.0, "alpha": 1.0, "part": "c"})
    for memo in (contextlib.nullcontext(), quadrature.oracle_memo()):
        monkeypatch.setattr(quadrature, "_ABEL_GRIDS", {})
        with memo:
            tracemalloc.start()
            try:
                oracle_value(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16e6, peak


@pytest.mark.xfail(strict=True, reason="the Abel spread is no error bound (ROADMAP item 9)")
def test_abel_bound_holds_at_f9_counterexample():
    # the exact Abel value is 0 (trig_cos(1, 2, 2).lambda_c, a finite sum at
    # integer a); the oracle gives 1.337e-7 with bound 1.325e-7
    r = oracle_value(IntegralSpec("F9", {"a": 1, "v": 2, "alpha": 2}))
    assert abs(r.value) <= r.abs_error_bound


def test_graceful_level_cap():
    # oscillation far below node resolution defeats the rule; it must
    # report the achieved estimate, not raise
    r = integrate_unit(lambda t: abs(math.sin(1.0e6 * t)),
                       f_right=lambda d: abs(math.sin(1.0e6 * (1.0 - d))))
    assert math.isfinite(r.value)
    assert r.abs_error_bound > 1e-11


def test_make_record_verdict():
    rec = make_record("id1", 1.0, 1.0 + 5e-10, 1e-9)
    assert rec.verdict == "pass"
    rec = make_record("id2", 1.0, 1.1, 1e-9)
    assert rec.verdict == "fail"
    assert rec.residual == pytest.approx(-0.1)
