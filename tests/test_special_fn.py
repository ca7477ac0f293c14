"""Golden values and functional-equation properties for the scalar functions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramaseries.special_fn import (
    DivergenceError,
    DomainError,
    _hurwitz,
    _lerch,
    _em_zeta,
    beta_f,
    digamma,
    gamma,
    hurwitz_zeta,
    lerch_phi,
    s_prime,
)

EULER_GAMMA = 0.5772156649015329


def test_gamma_golden():
    assert gamma(5.0) == 24.0
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(0.25) == pytest.approx(3.6256099082219083, rel=1e-14)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma(x)


@given(st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_gamma_functional_equation(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_digamma_golden():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)
    # quarter-argument pair used all over the worked examples
    assert digamma(0.75) - digamma(0.25) == pytest.approx(math.pi, rel=1e-13)


def test_digamma_poles():
    for x in (0.0, -3.0):
        with pytest.raises(DomainError):
            digamma(x)


@given(st.floats(min_value=0.01, max_value=60.0))
@settings(max_examples=80, deadline=None)
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-11, abs=1e-13)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_digamma_reflection(x):
    lhs = digamma(1.0 - x) - digamma(x)
    assert lhs == pytest.approx(math.pi / math.tan(math.pi * x), rel=1e-10, abs=1e-10)


def test_hurwitz_golden():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595943, rel=1e-14)
    # direct partial sum cross-check at a shifted base
    direct = math.fsum((2.5 + j) ** -3.5 for j in range(200_000))
    assert hurwitz_zeta(3.5, 2.5) == pytest.approx(direct, abs=1e-12)


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)


@given(
    st.floats(min_value=1.1, max_value=6.0),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=80, deadline=None)
def test_hurwitz_ladder(s, q):
    # removing the first term shifts the base by one
    assert hurwitz_zeta(s, q) - hurwitz_zeta(s, q + 1.0) == pytest.approx(
        q ** -s, rel=1e-11
    )


def test_lerch_golden():
    assert lerch_phi(0.5, 1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    assert lerch_phi(-0.5, 1.0, 1.0) == pytest.approx(2.0 * math.log(1.5), rel=1e-13)
    assert lerch_phi(-1.0, 1.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-13)
    assert lerch_phi(1.0, 2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)


def test_lerch_vs_reference():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for beta, s, b in ((0.7, 1.5, 0.25), (-0.9, 0.5, 2.0), (0.3, 3.0, 1.75)):
            ref = float(mp.lerchphi(beta, s, b))
            assert lerch_phi(beta, s, b) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("beta, s, b", [(0.5, -1.0, 1.0), (-0.7, -2.5, 0.5), (0.9, -0.5, 2.0),
                                        (-0.3, -3.0, 0.1)])
def test_lerch_negative_s_bound_holds(beta, s, b):
    # at s < 0 the power factor (b+j)^-s grows, and the tail bound's term
    # ratio takes it into account
    mp = pytest.importorskip("mpmath")
    value, bound, _ = _lerch(beta, s, b)
    with mp.workdps(40):
        assert abs(value - mp.lerchphi(beta, s, b)) <= bound


@given(
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_lerch_shift_recurrence(beta, s, b):
    lhs = lerch_phi(beta, s, b)
    rhs = b ** -s + beta * lerch_phi(beta, s, b + 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def test_lerch_domain():
    with pytest.raises(DomainError):
        lerch_phi(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        lerch_phi(1.5, 1.0, 1.0)
    with pytest.raises(DivergenceError):
        lerch_phi(-1.0, 0.0, 1.0)


@pytest.mark.parametrize("args, want", [
    ((1.5, 0.5, 40.0, False), ("0x1.4203332017a57p+6", "0x1.4ec95d38797afp-87", "0x1.4203332017a57p+6")),
    ((2.7, 1.7000000000000002, 33.25, True),
     ("0x1.0a6162603ffb6p-1", "0x1.c382159267469p-61", "0x1.77b5d3a9176e2p+0")),
    ((1.04, 0.04000000000000001, 1000.0, True),
     ("0x1.00221425d6f74p-1", "0x1.4c3deb2cd769dp-150", "0x1.7fe39fcd03850p+0")),
    ((12.0, 11.0, 64.0, False), ("0x1.955ce6ce95fc8p+2", "0x1.f458368000000p-77", "0x1.955ce6ce95fc8p+2")),
])
def test_undamped_kernel_unchanged(args, want):
    # the beta = +-1 kernel, bit for bit as before the damped form was added
    assert tuple(x.hex() for x in _em_zeta(*args)) == want


@pytest.mark.parametrize("call, args", [
    (hurwitz_zeta, (400.0, 0.1)), (lerch_phi, (0.5, 400.0, 0.1)), (lerch_phi, (-1.0, 400.0, 0.1)),
    (digamma, (1e-320,)), (digamma, (-1e-320,)),
])
def test_overflow_raises_domain_error(call, args):
    # the first term 0.1^-400 = 1e400 is past double range: a DomainError,
    # not an OverflowError from pow; at a subnormal x the reflection's
    # pi / tan(pi x) is, where digamma returned -inf or +inf
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("s, q, alternating, want", [
    (1e300, 1.0, False, 1.0), (1e300, 1.0, True, 1.0), (300.0, 1.0, False, 1.0),
    # every term underflows; the tail is 1/(0.08 Q^0.08) = 1.25e-23, the head 0
    (1.08, 1e300, False, 1.25e-23),
])
def test_hurwitz_underflowing_tail(s, q, alternating, want):
    # Q^-s underflows to 0 while the kernel's corrections overflow: the sum
    # is the head, with a finite bound that covers the tail
    value, bound, _ = _hurwitz(s, q, alternating=alternating)
    assert math.isfinite(bound)
    assert abs(want - value) <= bound


def test_hurwitz_huge_order_overflowing_head():
    # 0.5^-1e4 is past double range, and so is the sum
    with pytest.raises(DomainError, match="overflows double precision"):
        hurwitz_zeta(1e4, 0.5)


@pytest.mark.parametrize("call, args, message", [
    *[(fn, (x,), "needs a finite x") for fn in (digamma, gamma) for x in (math.nan, math.inf, -math.inf)],
    (beta_f, (0.0, math.nan, 1.0), "needs a finite x"),
    (lerch_phi, (0.5, 2.0, math.inf), "needs finite b > 0"),
    # the message names the argument, not an overflow the sum never has
    (hurwitz_zeta, (2.0, math.inf), "needs finite s and q, got q = inf"),
    (hurwitz_zeta, (math.inf, 1.0), "needs finite s and q, got s = inf"),
    (hurwitz_zeta, (math.nan, 1.0), "needs finite s and q, got s = nan"),
    (hurwitz_zeta, (-math.inf, 1.0), "needs finite s and q, got s = -inf"),
    (lerch_phi, (-1.0, math.inf, 1.0), "needs finite s and q, got s = inf"),
])
def test_non_finite_input_raises_domain_error(call, args, message):
    # not a NaN or inf value passed on, nor an OverflowError from round()
    with pytest.raises(DomainError, match=message):
        call(*args)


def test_s_prime_golden():
    assert s_prime(1) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert s_prime(2) == pytest.approx(0.9159655941772190, rel=1e-13)
    assert s_prime(3) == pytest.approx(0.9689461462593694, rel=1e-13)


def test_s_prime_brute():
    # alternating series: the truncation error is below the first dropped term
    for r in (2, 3, 4):
        brute = math.fsum(
            (-1.0) ** i / (2.0 * i + 1.0) ** r for i in range(200_000)
        )
        assert s_prime(r) == pytest.approx(brute, abs=1e-10)
    with pytest.raises(DomainError):
        s_prime(0)


def test_beta_f():
    # p = 0 collapses to the classical Beta integral value
    assert beta_f(0.0, 2.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert beta_f(0.0, -0.5, 0.25) == pytest.approx(5.244115108584241, rel=1e-12)
    assert beta_f(1.0, 0.5, 0.5) == pytest.approx(
        gamma(1.5) * gamma(1.5) / gamma(3.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        beta_f(0.0, -1.0, 0.5)
