"""Oscillatory-kernel closed forms against the regularized oscillatory oracle."""

import math

import numpy as np

import pytest

from ramaseries.identities import log_sin_integral, trig_cos, trig_lambda
from ramaseries import quadrature
from ramaseries.quadrature import IntegralSpec, abel_oscillatory, oracle_value
from ramaseries.special_fn import DomainError

LN2 = math.log(2.0)


def test_sin_family_spot_values():
    spots = (
        (1, 2.0, 0.0, -1.0 / 3.0, 0.0),
        (1, 2.0, 1.0, 0.0, -4.0 / 9.0),
        (2, 3.0, 0.0, 0.0, -2.0 / 15.0),
        (2, 3.0, 1.0, 46.0 / 225.0, 0.0),
    )
    for a, w, alpha, lc, ls in spots:
        got = trig_lambda(a, w, alpha)
        assert got[0] == pytest.approx(lc, abs=1e-12), (a, w, alpha)
        assert got[1] == pytest.approx(ls, abs=1e-12), (a, w, alpha)


def test_cos_family_spot_values():
    assert trig_cos(1, 2.0, 0.0)[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert trig_cos(2, 3.0, 0.0)[1] == pytest.approx(7.0 / 15.0, abs=1e-12)
    got = trig_cos(1, 2.0, 1.0)
    assert got[0] == pytest.approx(-5.0 / 9.0, abs=1e-12)
    assert got[1] == pytest.approx(0.0, abs=1e-12)


def test_sin_family_vs_oscillatory_oracle():
    for a, w, alpha in ((1, 2.0, 0.0), (2, 3.0, 1.0)):
        got = trig_lambda(a, w, alpha)
        oc = oracle_value(
            IntegralSpec("F7", {"a": a, "w": w, "alpha": alpha})
        ).value
        os_ = oracle_value(
            IntegralSpec("F8", {"a": a, "w": w, "alpha": alpha})
        ).value
        assert got[0] == pytest.approx(oc, abs=1e-3), (a, w, alpha)
        assert got[1] == pytest.approx(os_, abs=1e-3), (a, w, alpha)


def test_cos_family_vs_oscillatory_oracle():
    for a, v, alpha in ((1, 2.0, 0.0), (2, 3.0, 0.0)):
        got = trig_cos(a, v, alpha)
        os_ = oracle_value(
            IntegralSpec("F10", {"a": a, "v": v, "alpha": alpha})
        ).value
        assert got[1] == pytest.approx(os_, abs=1e-3), (a, v, alpha)


def test_abel_regularization_sanity():
    # int_0^inf sin(x)/x dx = pi/2 under damping, a classical control case
    def sinc(k, h):
        x = (k + 0.5) * np.pi + h
        return (np.sin(x) / x,)

    (val,) = abel_oscillatory(sinc)
    assert val.value == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_log_sin_spot_values():
    dc, ds = log_sin_integral(1, 3.0, 0.0)
    assert dc == pytest.approx(LN2 / 8.0 - 1.0 / 32.0, abs=1e-10)
    assert ds == pytest.approx(-math.pi / 16.0, abs=1e-10)
    dc, ds = log_sin_integral(2, 3.0, 0.0)
    assert dc == pytest.approx(math.pi / 15.0, abs=1e-10)
    assert ds == pytest.approx(2.0 / 450.0 - (2.0 / 15.0) * LN2, abs=1e-10)
    dc, ds = log_sin_integral(2, 3.0, 1.0)
    assert ds == pytest.approx(46.0 * math.pi / 450.0, abs=1e-10)


def test_log_sin_vs_quadrature():
    a, w, alpha = 2, 3.0, 1.0
    dc, ds = log_sin_integral(a, w, alpha)
    oc = oracle_value(
        IntegralSpec("F11", {"a": a, "w": w, "alpha": alpha, "part": "c"})
    ).value
    os_ = oracle_value(
        IntegralSpec("F11", {"a": a, "w": w, "alpha": alpha, "part": "s"})
    ).value
    assert dc == pytest.approx(oc, abs=1e-6)
    assert ds == pytest.approx(os_, abs=1e-6)


def test_trig_domain():
    with pytest.raises(DomainError):
        trig_lambda(0, 2.0, 0.0)
    with pytest.raises(DomainError):
        trig_lambda(2, 1.0, 0.0)  # frequency must exceed the power
    with pytest.raises(DomainError):
        trig_cos(1, 2.0, -1.0)
    with pytest.raises(DomainError):
        log_sin_integral(1, 3.0, 0.5)  # integer orders only


def _abel_reference(mp, a, w, alpha, family):
    """int_0^inf x^alpha sin^a(x) or cos^a(x) times cos(wx) and sin(wx), by
    product-to-sum into exponentials e^(ikx), each with its Abel value
    Gamma(alpha+1) |k|^-(alpha+1) e^(i sign(k) pi (alpha+1)/2)."""
    def abel(k):
        return mp.gamma(alpha + 1) * abs(k) ** -(alpha + 1) * mp.expjpi(mp.sign(k) * (alpha + 1) / 2)

    cos_part = sin_part = 0
    for j in range(a + 1):
        # sin^a x = (2i)^-a sum_j C(a,j) (-1)^j e^(i(a-2j)x), cos^a x = 2^-a sum_j C(a,j) e^(i(a-2j)x)
        c = mp.binomial(a, j) * ((-1) ** j / mp.mpc(0, 2) ** a if family == "sin" else mp.mpf(2) ** -a)
        up, down = abel(w + a - 2 * j), abel(-w + a - 2 * j)
        cos_part += c * (up + down) / 2
        sin_part += c * (up - down) / mp.mpc(0, 2)
    return float(mp.re(cos_part)), float(mp.re(sin_part))


@pytest.mark.parametrize("fn, family, args", [
    (trig_lambda, "sin", (1, 2.0, 0.5)),
    (trig_cos, "cos", (2, 3.5, 1.5)),
])
def test_fractional_alpha_vs_abel_reference(fn, family, args):
    # a fractional alpha takes the phase through sin and cos, not the exact
    # quarter-period table
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want_c, want_s = _abel_reference(mp, *args, family)
    got = fn(*args)
    assert got[0] == pytest.approx(want_c, rel=1e-13)
    assert got[1] == pytest.approx(want_s, rel=1e-13)


# The largest oracle error per (family, alpha) over the grid below, and the
# cells whose error passed the printed bound (20), both as measured with the
# panel-factored damping. The Abel spread is no error bound (ROADMAP item 9),
# so the grid pins that the oracle's errors do not grow.
_GRID_WORST = {
    ("sin", 0): 5.066e-10, ("sin", 1): 8.435e-9, ("sin", 2): 1.577e-7,
    ("cos", 0): 5.066e-10, ("cos", 1): 8.439e-9, ("cos", 2): 1.658e-7,
    ("log", 0): 7.616e-9, ("log", 1): 1.432e-7, ("log", 2): 2.332e-5,
}
_GRID_MISSES = 20


def test_abel_oracle_errors_on_the_integer_grid():
    # a 1..3, alpha 0..2, w = a + {0.5, 1, 1.5, 2, 3}, both parts of each
    # integral: 270 cells against exact Abel values (mpmath for sin^a and
    # cos^a, the finite closed form for the log-sin family)
    mp = pytest.importorskip("mpmath")
    worst = dict.fromkeys(_GRID_WORST, 0.0)
    misses = 0
    for family, alpha in _GRID_WORST:
        for a in (1, 2, 3):
            for w in (a + dw for dw in (0.5, 1.0, 1.5, 2.0, 3.0)):
                got = quadrature._trig_integral(family, a, w, alpha)
                if family == "log":
                    want = log_sin_integral(a, w, alpha)
                else:
                    with mp.workdps(30):
                        want = _abel_reference(mp, a, w, alpha, family)
                for r, exact in zip(got, want):
                    err = abs(r.value - exact)
                    worst[family, alpha] = max(worst[family, alpha], err)
                    misses += err > r.abs_error_bound
    for key, err in worst.items():
        assert err <= 1.05 * _GRID_WORST[key], (key, err)
    assert misses <= _GRID_MISSES
