"""Engine-level checks: exact finite sums, regime classification, honest
error bounds, and agreement with independent summation."""

import math
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramaseries import series_engine
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
from ramaseries.special_fn import DivergenceError, DomainError, _lerch, hurwitz_zeta, lerch_phi


def _fresh(code):
    """The stdout of code run in a new interpreter."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def test_import_loads_no_numpy():
    assert _fresh("import sys, ramaseries; print('numpy' in sys.modules)") == "False"


def test_integral_route_loads_no_numpy():
    # (0.5, 1, -0.99, 0) is not done after 256 terms and goes to the
    # integral route: in a fresh process it loads no numpy, and its value is
    # 2F1(-a, b; b+1; -beta) / b = 37/55 within its bound
    got = _fresh("import sys; from ramaseries import SeriesParams, eval_psi_general; "
                 "r = eval_psi_general(SeriesParams(0.5, 1.0, -0.99, 0.0)); "
                 "print(repr((r.value, r.abs_error_bound, r.method, 'numpy' in sys.modules)))")
    value, bound, method, numpy_loaded = eval(got)
    assert (method, numpy_loaded) == ("integral", False)
    assert abs(value - 37.0 / 55.0) <= bound <= 1e-12


def test_alternating_route_loads_no_numpy():
    # (50.5, 1, -1, 0) goes to the integral route before any term runs; its
    # value is B(1, 51.5) = 1/51.5
    got = _fresh("import sys; from ramaseries import eval_phi; r = eval_phi(50.5, 1.0, 0.0); "
                 "print(repr((r.value, r.abs_error_bound, r.method, 'numpy' in sys.modules)))")
    value, bound, method, numpy_loaded = eval(got)
    assert (method, numpy_loaded) == ("integral", False)
    assert abs(value - 1.0 / 51.5) <= bound <= 1e-12


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
    # x = w^2 smooths x^(alpha+a) = x^-0.5 at each cell; k = -a = 1..4 at
    # b = 0.1 and 10 are the edges of the closed form's band
    cells = [(-3.0, 4.0, 2.5), (-2.0, 1.5, 1.5), (-4.0, 2.0, 3.5)]
    cells += [(-float(k), b, k - 0.5) for k in range(1, 5) for b in (0.1, 10.0)]
    with mp.workdps(30):
        for a, b, alpha in cells:
            ref = mp.quad(
                lambda w: 2 * w ** (2 * alpha + 1) * mp.exp(-b * w * w) * (-mp.expm1(-w * w)) ** a,
                [0, 1, mp.inf],
            ) / mp.gamma(alpha + 1)
            got = eval_phi(a, b, alpha)
            assert got.method == "closed-form"
            assert got.value == pytest.approx(float(ref), rel=1e-11)
            assert abs(got.value - ref) <= got.abs_error_bound <= 1e-13 * abs(got.value), (a, b)


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
    # near the unit circle the sum is a head plus the damped kernel, whose
    # e_k are 1, 0, 0, ... at a = -1: the kernel against the lerch_phi loop.
    # At alpha = 0 the tail's exponent s = a + alpha + 2 is exactly 1
    for beta, alpha in ((0.999, 1.0), (-0.999, 1.0), (0.99, 0.0), (-0.99, 0.0)):
        got = eval_psi_general(SeriesParams(a=-1.0, b=b, beta=beta, alpha=alpha))
        ref, ref_bound, _ = _lerch(-beta, alpha + 1.0, b)
        assert got.value == pytest.approx(ref, rel=1e-13)
        assert abs(got.value - ref) <= got.abs_error_bound + ref_bound


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


@pytest.mark.parametrize("cap", [1.5, math.nan, math.inf, 0, -2])
@pytest.mark.parametrize("call", [
    lambda cap: eval_psi_general(SeriesParams(0.5, 1.0, 0.5, 0.0), cap=cap),
    lambda cap: eval_phi(0.5, 1.0, 0.0, cap=cap),
    lambda cap: eval_phi_tilde(0.5, 1.0, 0.0, cap=cap),
    lambda cap: eval_phi_da_direct(0.5, 1.0, 0, cap=cap),
], ids=["psi", "phi", "phitilde", "phida"])
def test_cap_must_be_a_positive_integer(call, cap):
    # cap went unchecked into range and min: 1.5 raised TypeError, nan gave
    # phi a 3-term head (0.66666653 +- 2.1e-6 for 2/3), and 0 returned
    # -6.1e7 +- 2.2e8 for psi
    with pytest.raises(DomainError, match="cap must be a positive integer"):
        call(cap)


def test_terms_capped_result_still_bounded():
    # tiny cap: the engine must return with a truthful (large) bound, not lie
    got = eval_phi(-0.5, 0.25, 0.0, cap=20_000)
    assert got.terms_used <= 20_000
    assert abs(got.value - 5.244115108584240) <= got.abs_error_bound


def test_powerlaw_tail_needs_even_orders():
    # c = -a/2 here, so the odd orders of the tail nearly vanish; a sum
    # stopped at the first small one misses the exact Beta value 10 by 1.8e-9
    got = eval_phi(-0.9, 1.0, 0.0)
    assert abs(got.value - 10.0) <= got.abs_error_bound <= 1e-12


def test_finite_bound_counts_alpha_rounding():
    # one term 3^-(alpha+1): rounding alpha + 1 moves it by |ln 3| (alpha+1) u,
    # 3e-17 here, which a bound of eps (a+2) |t_0| = 2.4e-17 would miss
    mp = pytest.importorskip("mpmath")
    alpha = 1.0102002910092913
    got = eval_phi(0.0, 3.0, alpha)
    with mp.workdps(30):
        err = abs(got.value - mp.mpf(3) ** -(mp.mpf(alpha) + 1))
    assert err <= got.abs_error_bound


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, args, slot", [
    (lambda *p: eval_psi_general(SeriesParams(*p)), [0.5, 1.0, -0.5, 0.0], slot)
    for slot in range(4)
] + [(eval_phi_da_direct, [0.5, 1.0, 0], slot) for slot in range(3)])
def test_non_finite_input_rejected(call, args, slot, bad):
    # a, b, beta, alpha of the series, a, b, n of the derivative: rejected
    # before any term is summed
    args = list(args)
    args[slot] = bad
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (eval_phi, (1e6, 1.0, 0.0)),
    (eval_phi_da_direct, (2000.5, 1.0, 0)),
    (eval_phi_tilde, (2000.5, 1.0, 0.0)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (2000.5, 1.0, 0.9, 0.0)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (0.5, 0.05, 0.5, 300.0)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (-150.5, 1.0, -0.999999, 2.0)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (-125.5, 5.0, -0.99999, 0.5)),
    (eval_phi_da_direct, (1e300, 1.0, 0)),
    (lambda *p: oracle_value(IntegralSpec("F2", dict(zip(("a", "b", "n"), p)))), (0.5, 1.0, 1e9)),
    (lambda *p: oracle_value(IntegralSpec("F4", dict(zip(("a", "b", "n"), p)))), (0.5, 1.0, 2000)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (2000000.5, 1.0, -0.5, 0.0)),
    (lambda *p: eval_psi_general(SeriesParams(*p)), (1e300, 1.0, -0.5, 0.0)),
    (eval_phi, (1.7e308, 1.0, 0.0)),
])
def test_overflow_raises_domain_error(call, args):
    # the terms pass 1e308 before they cancel: finite sum, derivative head
    # and power-law head each raise rather than return inf or fail inside
    # fsum, where math.exp or ** raises OverflowError in the term loop. In
    # the fourth cell the sum itself, about 1.9^2000, passes 1e308, and in
    # the fifth the first term 20^301 does, so the integral route that the
    # loop hands them to overflows too. The next two sums, near 1e878 and
    # 1e600, pass it in the integral route's nodes.
    # At a = 1e300 the derivative's head length passes 1e308; in the next
    # two the quadrature integrand's log(d)^n does. In the last two the
    # loop's terms pass 1e308 and the integral route's step shrinks like
    # 1/a: a pass stops with DomainError once it has walked 10^5 nodes. The
    # first cell takes that route too, at beta = -1. In the last, lgamma in
    # the estimate that picks the route would pass 1e308: past a = 2^30 the
    # head runs, and its terms pass 1e308
    start = time.perf_counter()
    with pytest.raises(DomainError):
        call(*args)
    assert time.perf_counter() - start < 5.0


def _deriv_reference(mp, a, b, n):
    """(1/n!) int_0^inf x^n e^(-bx) (1-e^-x)^a ln(1-e^-x) dx by mp.quad; on
    [0, 1] x = w^p, p = 1/(a+n+1), absorbs x^(a+n)."""
    a, b = mp.mpf(a), mp.mpf(b)
    p = 1 / (a + n + 1)

    def near(w):
        x = w ** p
        y = -mp.expm1(-x)
        return p * mp.exp(-b * x) * (y / x) ** a * mp.log(y)

    def far(x):
        y = -mp.expm1(-x)
        return x ** n * mp.exp(-b * x) * y ** a * mp.log(y)

    return (mp.quad(near, [0, 1]) + mp.quad(far, [1, mp.inf])) / mp.factorial(n)


@st.composite
def _deriv_cells(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    a = draw(st.floats(min_value=-1.0 - n, max_value=1.5 - n, exclude_min=True)
             .filter(lambda v: v != math.floor(v)))
    return a, draw(st.floats(min_value=0.05, max_value=50.0)), n


@given(_deriv_cells())
@settings(max_examples=40, deadline=None)
def test_derivative_bound_holds_and_meets_target(cell):
    mp = pytest.importorskip("mpmath")
    a, b, n = cell
    got = eval_phi_da_direct(a, b, n)
    with mp.workdps(30):
        err = float(abs(got.value - _deriv_reference(mp, a, b, n)))
    assert err <= got.abs_error_bound <= max(1e-12, 1e-13 * abs(got.value))


@pytest.mark.parametrize("a, b, n, want", [(0.0, 1.0, 0, -1.0), (2.0, 1.0, 0, -1.0 / 9.0)])
def test_derivative_integer_branch_pinned(a, b, n, want):
    # d/da B(1, a+1) = -1/(a+1)^2; a = 0 is the a = m branch with m = 0
    got = eval_phi_da_direct(a, b, n)
    assert abs(got.value - want) <= got.abs_error_bound <= 1e-13


@pytest.mark.parametrize("a, b, n", [(0.5, 0.01, 700), (-0.5, 0.05, 400), (2.5, 0.1, 400),
                                     (2.0, 0.01, 700), (1.0, 0.05, 500),
                                     (2.0, 60.0, 192), (0.0, 60.0, 192), (3.0, 40.0, 200)])
def test_derivative_terms_past_double_range(a, b, n):
    # t_0 = b^-(n+1) passes 1e308 in the first five, though H_0 = 0 leaves it
    # out of the sum; in the last three (b+m+1)^(n+1) in the closed form of
    # t_(m+1) at a = m does, for a sum below 1e-340. The sum by mpmath:
    # (-1)^i C(a,i) H_i (b+i)^-(n+1), past i = m at a = m its limit
    # (-1)^(m+1) m! (i-m-1)!/i! (b+i)^-(n+1), to i = 600 where the terms
    # have fallen by 1e-190
    mp = pytest.importorskip("mpmath")
    got = eval_phi_da_direct(a, b, n)
    m = int(a) if a == math.floor(a) else None
    with mp.workdps(60):
        ref, h, w = mp.mpf(0), mp.mpf(0), mp.mpf(1)  # the sum, H_i, (-1)^i C(a, i)
        for i in range(1, 600):
            if m is not None and i > m:
                t = (-1) ** (m + 1) * mp.factorial(m) * mp.factorial(i - m - 1) / mp.factorial(i)
            else:
                h += 1 / (mp.mpf(a) - (i - 1))
                w *= -(mp.mpf(a) - (i - 1)) / i
                t = w * h
            ref += t / (b + mp.mpf(i)) ** (n + 1)
        assert abs(got.value - ref) <= got.abs_error_bound


def _reference(mp, a, b, beta, alpha):
    """S(a, b, beta, alpha) by mpmath: 2F1 at alpha = 0 (Gauss's Beta value
    at beta = -1), else (1/Gamma(alpha+1)) int_0^1 t^(b-1) (-ln t)^alpha
    (1+beta t)^a dt split at t = 1/2. On the right half, in u = 1 - t, the
    factor (1+beta-beta u)^a peaks for beta near -1, so there are breaks at
    u = (1-|beta|) 10^k; at beta = -1 it is u^a, and u = w^p, p =
    1/(a+alpha+1), smooths u^(a+alpha) at u = 0. At integer alpha >= 1 the
    integral agrees with mp.hyper to 1e-31, and mp.hyper takes 3 s at
    |beta| = 1 - 1e-5."""
    a, b, beta = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
    if alpha == 0:
        return mp.hyp2f1(-a, b, b + 1, -beta) / b
    alpha = mp.mpf(alpha)
    p = 1 / (a + alpha + 1) if beta == -1 else 1

    def left(w):  # t = w^(1/b) absorbs t^(b-1)
        t = w ** (1 / b)
        return (-mp.log(t)) ** alpha * (1 + beta * t) ** a / b

    def right(w):
        u = w ** p
        return ((1 - u) ** (b - 1) * (-mp.log1p(-u)) ** alpha * (1 + beta - beta * u) ** a
                * p * w ** (p - 1))

    d = 1 - abs(beta)
    breaks = [0] + [d * 10 ** k for k in range(8) if 0 < d * 10 ** k < 0.5] + [mp.mpf(0.5)]
    total = mp.quad(left, [0, mp.mpf(0.5) ** b]) + mp.quad(right, [u ** (1 / p) for u in breaks])
    return total / mp.gamma(alpha + 1)


@pytest.mark.parametrize("a, b, beta, alpha", [
    (-0.5, 1.5, 0.998, 0), (2.5, 0.75, -0.999, 0), (1.3, 2.0, -0.99, 1), (-0.9, 4.0, -0.97, 2),
])
def test_near_unit_geometric_numpy_continuation(a, b, beta, alpha):
    # past the 256-term scalar prefix the sum goes to the integral route;
    # the value lies within the bound of the mpmath value
    mp = pytest.importorskip("mpmath")
    got = eval_psi_general(SeriesParams(a, b, beta, float(alpha)), cap=200_000)
    with mp.workdps(30):
        b_ = mp.mpf(b)
        ref = mp.hyper([-mp.mpf(a)] + [b_] * (alpha + 1), [b_ + 1] * (alpha + 1),
                       -mp.mpf(beta)) / b_ ** (alpha + 1)
    assert abs(got.value - ref) <= got.abs_error_bound <= 1e-12


def test_geometric_product_past_double_range():
    # b^-(alpha+1) = 20^231 = 3.5e300, so the bare binomial product passes
    # 1e308 within the loop's 19 terms, and the power factor falls below
    # 2.2e-308 from t_2: those terms come from log|P|, down to 1e-280, where
    # P times the power factor would flush them to zero
    mp = pytest.importorskip("mpmath")
    a, b, beta, alpha = 40.5, 0.05, 0.9, 230.0
    got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    terms, _, _, _ = series_engine._loop(a, b, beta, alpha, 0, b ** -(alpha + 1.0), got.terms_used)
    with mp.workdps(40):
        weights = [mp.binomial(a, k) * mp.mpf(beta) ** k for k in range(120)]
        ref = [wk / (b + mp.mpf(k)) ** (alpha + 1) for k, wk in enumerate(weights)]
        assert max(abs(wk) for wk in weights[:got.terms_used]) * mp.mpf(b) ** -(alpha + 1) > 1e308
        assert all(abs(t - r) <= 1e-12 * abs(r) for t, r in zip(terms, ref))
        assert abs(got.value - mp.fsum(ref)) <= got.abs_error_bound


def test_derivative_head_past_4096_terms():
    # b = 2000 takes a head of 6402 terms, each with its harmonic factor H_i
    # summed from i = 0; at n = 0 the derivative is d/da B(b, a+1)
    mp = pytest.importorskip("mpmath")
    a, b = 0.5, 2000.0
    got = eval_phi_da_direct(a, b, 0)
    assert got.terms_used > 4096
    with mp.workdps(40):
        ref = mp.beta(b, a + 1) * (mp.digamma(a + 1) - mp.digamma(a + b + 1))
    assert abs(got.value - ref) <= got.abs_error_bound <= 1e-12


def test_near_unit_geometric_terms_pinned():
    # the nodes of the integral route's sum, at its step h = 0.242
    got = eval_psi_general(SeriesParams(-0.5, 1.5, 0.998, 0.0), cap=200_000)
    assert (got.terms_used, got.method) == (156, "integral")


def test_near_unit_growing_terms_target_known_missed():
    # the terms grow to 113 near i = 150 and cancel to 0.33, and the damped
    # tail's bound was 6.1e-11; the integral route sums positive nodes
    got = eval_psi_general(SeriesParams(-3.5, 1.0, 0.99, 0.0))
    assert got.abs_error_bound <= 1e-12


@pytest.mark.parametrize("a, b, beta, alpha", [(-125.5, 5.0, 0.99999, 0.5), (-60.5, 2.0, 0.9999, 0.0),
                                               (2000.5, 1.0, -0.5, 0.0), (50.5, 1.0, -0.99, 0.5),
                                               (49.18342754451926, 0.6497015607178162, -0.3525025091829982, 0.0),
                                               (2000.5, 1.0, -0.9, 0.0)])
def test_integral_route_where_the_series_failed(a, b, beta, alpha):
    # the series terms pass 1e308 (the first and third cells raised) or
    # cancel from 1e160 (the second returned 5.36e139 +- 1.47e160); the sums
    # are 1.77e-9, 2.87e-4 and 9.99e-4, by mp.quad on the integral in t = ln x.
    # The loop finished the next two with bounds 0.117 and 2.9e-9, over the
    # target, and the last raised as its terms passed 1e308: it hands all
    # three to the route, which gives 0.0466, 0.2147 and 5.55e-4
    mp = pytest.importorskip("mpmath")
    got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    with mp.workdps(40):
        A, B, Z = mp.mpf(a), mp.mpf(b), mp.mpf(beta)

        def g(t):
            x = mp.exp(t)
            return mp.exp((alpha + 1) * t - B * x + A * mp.log1p(Z * mp.exp(-x)))

        ref = mp.quad(g, mp.linspace(-40, 4, 23)) / mp.gamma(alpha + 1)
    assert abs(got.value - ref) <= got.abs_error_bound <= 1e-12


@pytest.mark.parametrize("cell, pinned", [
    ((10.5, 2.0, -0.7, 1.0), ("0x1.9f5e4d9175fcbp-6", "0x1.6a80b96114b71p-42", 21)),
    ((0.5, 1.0, 0.5, 1e9), ("0x1.0000000000000p+0", "0x1.6255b5a200094p-22", 1)),
])
def test_loop_delivered_cell_pinned(cell, pinned):
    # a cancelling sum that the loop finishes within the target is the
    # loop's, bit for bit: value, bound, terms and method. So is the second,
    # whose bound 3.3e-7 misses the target but is under the roundoff of
    # (alpha+1) |ln((alpha+1)/b)| units the route would count: the route,
    # some 10^8 nodes at this step, is not tried
    start = time.perf_counter()
    got = eval_psi_general(SeriesParams(*cell))
    assert (got.value.hex(), got.abs_error_bound.hex(), got.terms_used, got.method) == (*pinned, "direct")
    assert time.perf_counter() - start < 5.0


def test_near_unit_routed_before_the_loop():
    # the loop's stop test is proven not to fire within 256 terms here, so
    # the sum goes to the integral route with no term of the loop computed,
    # and with the bits the route gave after the failed loop
    with mock.patch.object(series_engine, "_loop", wraps=series_engine._loop) as loop:
        got = eval_psi_general(SeriesParams(-0.5, 1.5, 0.998, 0.0), cap=200_000)
    assert not loop.called
    assert (got.value.hex(), got.abs_error_bound.hex(), got.terms_used, got.method) == (
        "0x1.10e8929d7a6dap-1", "0x1.1c33b8b14bba1p-42", 156, "integral")


@pytest.mark.parametrize("a, b, alpha", [(50.5, 1.0, 0.0), (300.5, 1.0, 0.0), (20.5, 0.5, 2.0), (14.0, 1.0, 0.0)])
def test_cancelling_alternating_sum_takes_the_route(a, b, alpha):
    # head and tail cancelled to 0.0193 +- 0.75 at (50.5, 1, 0), to
    # -5.6e70 +- 1.3e75 at (300.5, 1, 0) and to a bound of 1.2e-11 at
    # (20.5, 0.5, 2); the finite sum at a = 14 missed the target too. The
    # integral route gives each within the target
    mp = pytest.importorskip("mpmath")
    got = eval_phi(a, b, alpha)
    assert got.method == "integral"
    with mp.workdps(40):
        err = float(abs(got.value - _reference(mp, a, b, -1.0, alpha)))
    assert err <= got.abs_error_bound <= max(1e-12, 1e-13 * abs(got.value))


@pytest.mark.parametrize("a, b, alpha, tried", [(81.0, 0.00042208597543857117, 3.84265971980294, True),
                                                (1.0, 1e-3, 9.0, False), (1.5, 1e-3, 9.0, False)])
def test_cancelling_route_keeps_the_smaller_bound(a, b, alpha, tried):
    # S is about 2.2e16 and 1e30: the route's own roundoff, over 1e-13 |S|
    # at a = 81, gave a bound of 2245 where the series' 1682 meets the
    # target, so the series runs too and its bound wins. Below a = 2 the
    # peak term is t_0, whose roundoff no cancellation magnifies: the route,
    # 1.05e-13 |S| there, is not tried
    with mock.patch.object(series_engine, "_integral_psi", wraps=series_engine._integral_psi) as route:
        got = eval_phi(a, b, alpha)
    assert (route.called, got.method) == (tried, "direct")
    assert got.abs_error_bound <= max(1e-12, 1e-13 * abs(got.value))


def test_nodes_at_beta_minus_one():
    # the left tail's (1 + beta)^a is 0 at beta = -1, a > 0: its log is -inf,
    # where log1p(-1) raised ValueError
    ls, units, tails = series_engine._nodes(50.5, 1.0, -1.0, 0.0, 0.1, 0.0, math.log(1e-15), math.log(1e-16))
    assert len(ls) == len(units) > 0 and all(map(math.isfinite, tails))


def test_integral_route_refused_past_node_limit():
    # a route of more nodes than the limit raises DomainError before it
    # sums: the loop's result stands where the loop gave one (a bound of
    # 0.117), and with none the cell raises
    with mock.patch.object(series_engine, "_NODES", 10):
        got = eval_psi_general(SeriesParams(50.5, 1.0, -0.99, 0.5))
        with pytest.raises(DomainError, match="integral route needs more than"):
            eval_psi_general(SeriesParams(2000.5, 1.0, -0.9, 0.0))
    assert got.method == "direct" and 0.1 < got.abs_error_bound < 0.2


def test_geometric_scalar_bound_counts_alpha_rounding():
    # one term: t_1 is 1e-31 of t_0, and the loop stops; eps |S| alone would
    # fall short of the rounding of alpha + 1 in b^-(alpha+1)
    mp = pytest.importorskip("mpmath")
    a, b, beta, alpha = 4.434438273403613e-31, 3.0, -0.96875, 0.5676146692362861
    got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    with mp.workdps(30):
        err = abs(got.value - _reference(mp, a, b, beta, alpha))
    assert err <= got.abs_error_bound


@pytest.mark.parametrize("a, b, beta, alpha", [(30.5, 1e20, 0.9, 0.0), (30.5, 1e6, 0.9, 3.0)])
def test_geometric_ratio_bound_below_a(a, b, beta, alpha):
    # for i < a the term ratio is beta (a-i)/(i+1) ((b+i)/(b+i+1))^(alpha+1),
    # 27 at i = 0 here: the terms grow to i = 14 before they shrink, so a
    # stop after the first term would return 1e-20 (1e-24) for 3.2e-12
    # (3.2e-16)
    mp = pytest.importorskip("mpmath")
    got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    with mp.workdps(30):
        err = abs(got.value - _reference(mp, a, b, beta, alpha))
    assert err <= got.abs_error_bound <= 1e-12


def _cells(betas):
    """(a, b, beta, alpha) with beta drawn by `betas`: a in (-3, 60],
    integers included, where the series converges (a + alpha > -1 at
    |beta| = 1), b in [0.05, 50], alpha in [0, 5]."""
    @st.composite
    def cells(draw):
        beta = draw(betas)
        alpha = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0.0, max_value=5.0)))
        a = draw(st.one_of(st.integers(min_value=0, max_value=60).map(float),
                           st.floats(min_value=-3.0, max_value=60.0, exclude_min=True))
                 .filter(lambda v: abs(beta) < 1.0 or v + alpha > -1.0))
        b = draw(st.floats(min_value=0.05, max_value=50.0))
        return a, b, beta, alpha
    return cells()


def _check_bound(cell):
    """The one bound property: the bound covers the true error in every
    regime, the roundoff of cancelling terms included.

    Every sum at |beta| < 1 meets the target: the scalar loop returns only a
    bound that meets it, and hands every other sum to the integral route
    (at alpha <= 5 the route's least roundoff is under 1e-13 |S|, so it is
    always tried).
    So does every sum at beta = -1: where the terms, about 2^a, would cancel
    to about a^-b with their counted roundoff past the target, the sum goes
    to the integral route before any term runs. So does the head-and-tail
    route at beta = +1."""
    mp = pytest.importorskip("mpmath")
    a, b, beta, alpha = cell
    with mock.patch.object(series_engine, "_powerlaw_psi", wraps=series_engine._powerlaw_psi) as route:
        got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    assert got.terms_used < 10**7
    with mp.workdps(30):
        err = float(abs(got.value - _reference(mp, a, b, beta, alpha)))
    assert err <= got.abs_error_bound
    if beta != 1.0 or route.called:
        assert got.abs_error_bound <= max(1e-12, 1e-13 * abs(got.value))


@given(_cells(st.sampled_from([-1.0, 1.0])))
@example((50.5, 1.0, -1.0, 0.0))  # head terms near 1e14 cancel to 1/51.5
@settings(max_examples=40, deadline=None)
def test_powerlaw_bound_holds_and_meets_target(cell):
    _check_bound(cell)


@given(_cells(st.floats(min_value=1e-5, max_value=0.05).flatmap(lambda d: st.sampled_from([d - 1.0, 1.0 - d]))))
@example((-3.5, 1.0, 0.99, 0.0))
@example((-1.5, 1.0, -0.98, 0.5))  # s = 1 exactly, as at a = -1, alpha = 0
@settings(max_examples=40, deadline=None)
def test_near_unit_bound_holds_and_meets_target(cell):
    _check_bound(cell)


@given(_cells(st.floats(min_value=-0.9, max_value=0.9)))
@example((4.434438273403613e-31, 3.0, -0.96875, 0.5676146692362861))
@example((49.18342754451926, 0.6497015607178162, -0.3525025091829982, 0.0))  # terms to 3e4, sum 0.21
@settings(max_examples=40, deadline=None)
def test_scalar_bound_holds(cell):
    _check_bound(cell)


@given(_cells(st.floats(min_value=1e-5, max_value=0.2).flatmap(lambda d: st.sampled_from([d - 1.0, 1.0 - d]))),
       st.sampled_from([1, 7, 256]))
@example((-0.5, 1.5, 0.998, 0.0), 256)  # routed: test_near_unit_routed_before_the_loop
@settings(max_examples=300, deadline=None)
def test_loop_cannot_stop_is_sound(cell, stop):
    # where the early test routes a sum, the loop's stop test fires at no
    # k <= stop (or its terms pass 1e308)
    a, b, beta, alpha = cell
    assume(not (a >= 0.0 and a.is_integer()))
    if series_engine._loop_cannot_stop(a, b, beta, alpha, stop):
        try:
            tail = series_engine._loop(a, b, beta, alpha, 0, None, stop, True)[3]
        except OverflowError:  # the terms passed 1e308: no stop either
            return
        assert tail is None


@pytest.mark.parametrize("a, b, beta, alpha", [(1162.0, 60.0, 1.0, 192.0),
                                               (1066.0, 60.0, 0.5, 196.0),
                                               (837.0, 35.32670098921075, 0.25, 205.66354958959877)])
def test_first_term_below_normal_range(a, b, beta, alpha):
    # t_0 = b^-(alpha+1) is 0 or subnormal in double, so the terms were 0
    # or lost digits; the loop starts from log t_0 instead. The last two
    # sums, 4.9e-313 and 2.3e-320, are below the normal range, where a
    # rounding is off by up to 2^-1075 whatever the term: the last one's
    # bound was 0 without that
    mp = pytest.importorskip("mpmath")
    got = eval_psi_general(SeriesParams(a, b, beta, alpha))
    with mp.workdps(60):
        weight, ref = mp.mpf(1), mp.mpf(0)  # C(a, i) beta^i
        for i in range(int(a) + 1):
            ref += weight / (b + mp.mpf(i)) ** (alpha + 1)
            weight *= beta * (a - i) / (i + 1)
        assert abs(got.value - ref) <= got.abs_error_bound <= 1e-7 * ref + 1e-320


def test_terms_past_double_range_in_logs():
    # the bare binomial product passes 1e308 near i = 2600 while the power
    # factor keeps every term under 1: the sum is 1 + 6e-59 + ...
    mp = pytest.importorskip("mpmath")
    got = eval_phi(-200.5, 1.0, 200.0)
    with mp.workdps(30):
        ref = mp.fsum(mp.rf(200.5, i) / mp.factorial(i) / mp.mpf(1 + i) ** 201 for i in range(400))
    assert abs(got.value - ref) <= got.abs_error_bound <= 1e-12


@pytest.mark.parametrize("args, exc, message", [
    ((0.5, 1.0, 0.5), DomainError, "n must be a non-negative integer"),
    ((-1.5, 1.0, 0), DivergenceError, "derivative series diverges"),
    ((-2.5, 1.0, 1), DivergenceError, "derivative series diverges"),
])
def test_derivative_input_checks(args, exc, message):
    # a fractional order, and a + n <= -1 where the derivative series diverges
    with pytest.raises(exc, match=message):
        eval_phi_da_direct(*args)
