"""Engine-level checks: exact finite sums, regime classification, honest
error bounds, and agreement with independent summation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramaseries.quadrature import IntegralSpec, oracle_value
from ramaseries.series_engine import (
    ConvergenceReport,
    SeriesParams,
    convergence_report,
    eval_phi,
    eval_phi_da_direct,
    eval_phi_tilde,
    eval_psi_general,
)
from ramaseries.special_fn import DivergenceError, DomainError, hurwitz_zeta, lerch_phi


def _exact_finite(a, b_num, b_den, beta_num, beta_den, alpha):
    """Fraction-exact finite sum for non-negative integer a, rational b, beta."""
    b = Fraction(b_num, b_den)
    beta = Fraction(beta_num, beta_den)
    total = Fraction(0)
    c = Fraction(1)
    for i in range(a + 1):
        total += c * beta ** i / (b + i) ** (alpha + 1)
        c = c * (a - i) / (i + 1)
    return total


def test_finite_exact_alternating():
    # a = 2, b = 1/2: terminating sums are exactly representable ratios
    for n, want in ((0, Fraction(16, 15)), (1, Fraction(736, 225)), (2, Fraction(25216, 3375))):
        assert _exact_finite(2, 1, 2, -1, 1, n) == want
        got = eval_phi(2.0, 0.5, float(n))
        assert got.terms_used == 3
        assert got.value == pytest.approx(float(want), rel=1e-15)


def test_finite_exact_general_beta():
    exact = _exact_finite(3, 5, 4, 1, 3, 2)
    got = eval_psi_general(SeriesParams(a=3.0, b=1.25, beta=1.0 / 3.0, alpha=2.0))
    assert got.value == pytest.approx(float(exact), rel=5e-15)
    assert got.terms_used == 4


def test_simple_trivial_values():
    # a = 0 keeps only the i = 0 term
    assert eval_phi(0.0, 2.0, 1.0).value == pytest.approx(0.25, abs=1e-16)
    assert eval_phi_tilde(0.0, 3.0, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_plus_weight_terminating():
    # a = 2, b = 1, order 0: 1 + 2/2 + 1/3
    assert eval_phi_tilde(2.0, 1.0, 0.0).value == pytest.approx(7.0 / 3.0, rel=1e-15)


def test_negative_integer_a_reduces_to_zeta():
    # single-pole case: the alternating weight at a = -1 gives all-plus terms
    for b in (0.5, 1.0, 2.25):
        for mu in (0.5, 1.0, 2.0):
            got = eval_phi(-1.0, b, mu)
            assert got.method == "closed-form"
            assert got.value == pytest.approx(hurwitz_zeta(mu + 1.0, b), rel=1e-14)


def test_negative_integer_a_vs_independent_sum():
    mp = pytest.importorskip("mpmath")
    # the defining integral, by quadrature independent of the zeta reduction;
    # x^(alpha+a) = x^-0.5 at each cell is integrable at 0
    cells = ((-3.0, 4.0, 2.5), (-2.0, 1.5, 1.5), (-4.0, 2.0, 3.5))
    with mp.workdps(30):
        for a, b, alpha in cells:
            ref = float(
                mp.quad(
                    lambda x: x ** alpha * mp.exp(-b * x) * (-mp.expm1(-x)) ** a,
                    [0, 1, mp.inf],
                )
                / mp.gamma(alpha + 1)
            )
            got = eval_phi(a, b, alpha)
            assert got.value == pytest.approx(ref, rel=1e-11)


def test_slow_powerlaw_value():
    got = eval_phi(-0.5, 0.25, 0.0)
    assert got.value == pytest.approx(5.244115108584240, rel=1e-10)
    assert got.method == "direct"


def test_divergence_rule():
    with pytest.raises(DivergenceError):
        eval_phi(-1.5, 0.25, 0.0)
    with pytest.raises(DivergenceError):
        eval_phi_tilde(-2.0, 1.0, 1.0)
    # strictly inside the geometric disc the same (a, alpha) converges
    got = eval_psi_general(SeriesParams(a=-1.5, b=0.25, beta=0.9, alpha=0.0))
    assert math.isfinite(got.value)


def test_param_validation():
    with pytest.raises(DomainError):
        eval_phi(0.5, -1.0, 0.0)
    with pytest.raises(DomainError):
        eval_phi(0.5, 1.0, -0.5)
    with pytest.raises(DomainError):
        eval_psi_general(SeriesParams(a=0.5, b=1.0, beta=1.5, alpha=0.0))


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_convergence_classification(a, alpha, beta):
    rep = convergence_report(SeriesParams(a=a, b=1.0, beta=beta, alpha=alpha))
    if a >= 0.0 and a == math.floor(a):
        assert rep == ConvergenceReport("finite", finite_terms=int(a) + 1)
    elif a + alpha > -1.0:
        assert rep.regime == "power-law"
        assert rep.exponent == pytest.approx(a + alpha + 2.0)
    else:
        assert rep.regime == "divergent"


def test_convergence_geometric():
    rep = convergence_report(SeriesParams(a=-2.5, b=1.0, beta=0.5, alpha=0.0))
    assert rep.regime == "geometric"


@given(
    st.floats(min_value=-0.8, max_value=2.5),
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_bound_honesty_against_oracle(a, b, alpha):
    # quadrature is an independent route; the two error bounds must cover
    # the observed gap
    if a + alpha <= -0.7:
        alpha = -0.6 - a  # keep clearly inside convergence, runtime bounded
    ser = eval_phi(a, b, alpha)
    orc = oracle_value(IntegralSpec("F1", {"a": a, "b": b, "beta": -1.0, "alpha": alpha}))
    gam = math.gamma(alpha + 1.0)
    gap = abs(ser.value - orc.value / gam)
    assert gap <= ser.abs_error_bound + orc.abs_error_bound / gam + 1e-12 * abs(ser.value)


def test_geometric_weight_vs_lerch_single_pole():
    # a = -1 flips every weight sign, so the sum is the transcendent at -beta
    b, beta, alpha = 1.5, 0.7, 1.0
    brute = math.fsum((-beta) ** i / (b + i) ** 2 for i in range(600))
    got = eval_psi_general(SeriesParams(a=-1.0, b=b, beta=beta, alpha=alpha))
    assert got.value == pytest.approx(brute, rel=1e-13)
    assert got.value == pytest.approx(lerch_phi(-beta, alpha + 1.0, b), rel=1e-13)


def test_derivative_series_spot():
    # at a = 0 the binomial factor's derivative cancels the alternation and
    # the series collapses to -sum 1/(i (b+i)^(n+1))
    b, n = 1.0, 1
    brute = -math.fsum(1.0 / (i * (b + i) ** (n + 1)) for i in range(1, 400_000))
    got = eval_phi_da_direct(0.0, b, n)
    assert got.value == pytest.approx(brute, abs=1e-9)
    assert got.value == pytest.approx(math.pi ** 2 / 6.0 - 2.0, rel=1e-9)


def test_derivative_series_fd_consistency():
    # centered difference of the summed series in a
    a, b, n, h = 0.5, 1.0, 1, 1e-5
    hi = eval_phi(a + h, b, float(n)).value
    lo = eval_phi(a - h, b, float(n)).value
    fd = (hi - lo) / (2.0 * h)
    assert eval_phi_da_direct(a, b, n).value == pytest.approx(fd, abs=5e-8)


def test_terms_capped_result_still_bounded():
    # tiny cap: the engine must return with a truthful (large) bound, not lie
    got = eval_phi(-0.5, 0.25, 0.0, cap=20_000)
    assert got.terms_used <= 20_000
    assert abs(got.value - 5.244115108584240) <= got.abs_error_bound
