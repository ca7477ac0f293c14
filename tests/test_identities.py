"""Recursion, shift, derivative, and two-sided family identity tests.

Every identity is confronted with a second route to the same number:
either the direct summation engine, a brute-force partial sum, or a
quadrature oracle. The identities return plain values; the records that
pair them with their oracles come from the verify ops (verify._dispatch).
"""

import itertools
import math
import subprocess
import sys

import pytest

from ramaseries import verify
from ramaseries.identities import (
    _sigma,
    eta_reduction,
    harmonic_weighted_sum,
    inverse_factor_expansion,
    inverse_factor_sum,
    master_shift,
    phi_da_closed,
    ramanujan_phi,
    sigma,
    two_sided_closed,
    two_sided_family,
)
from ramaseries.quadrature import IntegralSpec, oracle_value
from ramaseries.series_engine import eval_phi, eval_phi_da_direct
from ramaseries.special_fn import (
    DivergenceError,
    DomainError,
    digamma,
    gamma,
    hurwitz_zeta,
    lerch_phi,
    s_prime,
)

CATALAN = 0.915965594177219015


def interchange_check(a, b):
    """The verify interchange record at (a, b)."""
    return verify._dispatch("interchange", (a, b))


def test_identities_need_no_quadrature():
    # identities return values, and verify alone builds records: importing
    # identities loads no oracle module, and quadrature has no record type
    code = ("import sys, ramaseries.identities; "
            "print('ramaseries.quadrature' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
    from ramaseries import quadrature
    assert not hasattr(quadrature, "VerificationRecord")
    assert not hasattr(quadrature, "make_record")


def test_sigma_closed_forms():
    # quarter-argument pair: the sigma ladder hits pi, 16 Catalan, 2 pi^3
    a, b = -0.5, 0.25
    assert sigma(a, b, 1) == pytest.approx(math.pi, rel=1e-13)
    assert sigma(a, b, 2) == pytest.approx(16.0 * CATALAN, rel=1e-13)
    assert sigma(a, b, 3) == pytest.approx(2.0 * math.pi ** 3, rel=1e-13)


def test_sigma_vs_interleaved_partial_sum():
    # k >= 2 closed form against the literal interleaved difference series
    a, b, k = 0.75, 0.5, 3
    direct = math.fsum(
        1.0 / (b + j) ** k - 1.0 / (a + b + 1.0 + j) ** k for j in range(200_000)
    )
    assert sigma(a, b, k) == pytest.approx(direct, abs=1e-10)


def test_sigma_k1_telescoped():
    # the k = 1 difference series telescopes through the digamma recurrence
    a, b = 0.75, 0.5
    direct = math.fsum(
        1.0 / (b + j) - 1.0 / (a + b + 1.0 + j) for j in range(2_000_000)
    )
    # tail falls like (a+1)/N, correct it with the integral remainder
    direct += (a + 1.0) / 2_000_000.5
    assert sigma(a, b, 1) == pytest.approx(direct, abs=1e-6)
    assert sigma(a, b, 1) == pytest.approx(digamma(a + b + 1.0) - digamma(b), rel=1e-14)


def test_sigma_bound_holds_on_series_grid():
    # the digamma constant of _sigma's bound, and the kernel's zeta bounds,
    # on the grid the verify series suite runs
    mp = pytest.importorskip("mpmath")
    from ramaseries.verify import _SERIES_A, _SERIES_B

    with mp.workdps(40):
        for a, b, k in itertools.product(_SERIES_A, _SERIES_B, (1, 2, 3)):
            value, bound = _sigma(a, b, k)
            A, B = mp.mpf(a), mp.mpf(b)
            ref = mp.digamma(A + B + 1) - mp.digamma(B) if k == 1 else mp.zeta(k, B) - mp.zeta(k, A + B + 1)
            assert abs(value - ref) <= bound <= 1e-12 * abs(ref), (a, b, k)


def test_sigma_at_huge_order():
    # zeta(k, 1) - zeta(k, 2.5) = 1 + 2^-k - ..., where (b + 12)^-k underflows
    value, bound = _sigma(0.5, 1.0, 1e300)
    assert math.isfinite(bound) and abs(1.0 - value) <= bound
    assert sigma(0.5, 1.0, 1e300) == 1.0


def test_recursion_vs_direct_summation():
    for a in (-0.5, 0.5, 2.0):
        for b in (0.25, 1.0):
            for n in (1, 2, 3):
                rec = ramanujan_phi(a, b, n)
                direct = eval_phi(a, b, float(n))
                assert rec.method == "recursion"
                assert rec.value == pytest.approx(direct.value, rel=1e-8), (a, b, n)


def test_recursion_first_worked_value():
    # order-1 value at the quarter point times Gamma(2)
    want = math.pi * gamma(0.25) ** 2 / math.sqrt(2.0 * math.pi)
    assert ramanujan_phi(-0.5, 0.25, 1).value * gamma(2.0) == pytest.approx(
        want, rel=1e-10
    )


@pytest.mark.parametrize("a, b", [(0.5, 1e8), (1e6, 1.0)])
def test_recursion_past_gamma_overflow(a, b):
    # Gamma(b) or Gamma(a+1) overflows a float; the seed goes through lgamma
    mp = pytest.importorskip("mpmath")
    got = ramanujan_phi(a, b, 1)
    with mp.workdps(30):
        A, B = mp.mpf(a), mp.mpf(b)
        ref = mp.beta(B, A + 1) * (mp.digamma(A + B + 1) - mp.digamma(B))
        assert abs(got.value - ref) <= got.abs_error_bound <= 1e-5 * abs(ref)


@pytest.mark.parametrize("a, b, n", [(0.5, 2.0, 1), (-0.9, 2.5, 1), (-0.9, 1.0, 5), (-0.5, 2.5, 2)])
def test_recursion_bound_holds(a, b, n):
    # cells where the bound once left out the rounding of sigma_k, of the
    # gamma seed or of the running sums
    mp = pytest.importorskip("mpmath")
    got = ramanujan_phi(a, b, n)
    with mp.workdps(40):
        A, B = mp.mpf(a), mp.mpf(b)
        ref = (-1) ** n * mp.diff(lambda y: mp.beta(y, A + 1), B, n) / mp.factorial(n)
        assert abs(got.value - ref) <= got.abs_error_bound <= 1e-12 * abs(ref)


def test_recursion_domain():
    with pytest.raises(DomainError):
        ramanujan_phi(-1.5, 0.25, 1)
    with pytest.raises(DomainError):
        ramanujan_phi(0.5, -1.0, 1)
    with pytest.raises(DomainError):
        ramanujan_phi(0.5, 1.0, -1)


def test_master_shift_unit_weight_cells():
    for m in (0, 1, 2):
        for b in (0.5, 1.0, 2.0):
            for mu in (0.5, 1.0):
                rec = verify._dispatch("shift", (-1.0, b, -1.0, mu, m))
                assert rec.verdict == "pass", rec
                assert abs(rec.residual) < 1e-9


def test_master_shift_general_weight_cells():
    cells = (
        (0.5, 1.25, 0.5, 0.5, 2),
        (-0.5, 0.5, -0.5, 1.0, 1),
        (-2.0, 1.25, 0.5, 0.5, 2),
        (0.5, 0.5, 1.0, 0.5, 1),
    )
    for p, b, beta, mu, m in cells:
        rec = verify._dispatch("shift", (p, b, beta, mu, m))
        assert rec.verdict == "pass", rec


def test_master_shift_case3_coefficients():
    # p = -1/2 instance written out with its two corrected weights 1/4, 1/2
    lhs = 0.25 * eval_phi(-0.5, 0.25, 1.0).value + 0.5 * eval_phi(-1.5, 1.25, 1.0).value
    rhs = eval_phi(-0.5, 0.25, 0.0).value
    assert lhs == pytest.approx(rhs, rel=1e-7)


def test_master_shift_divergence_preconditions():
    with pytest.raises(DivergenceError):
        master_shift(-2.0, 1.0, 1.0, 0.5, 1)  # p + mu <= -1 at unit weight
    with pytest.raises(DivergenceError):
        master_shift(-1.5, 1.0, -1.0, 0.0, 1)  # p <= -1 and mu <= 0 give p + mu <= -1
    with pytest.raises(DomainError):
        master_shift(0.5, -1.0, 0.5, 0.5, 1)


def test_eta_reduction_cells():
    for b in (0.5, 1.0, 2.0):
        for alpha in (1.0, 2.0):
            rec = verify._dispatch("eta", (b, alpha))
            assert rec.verdict == "pass"
            assert abs(rec.residual) < 1e-11


def test_phi_da_closed_spot():
    want = (math.log(2.0) - math.pi / 2.0) * gamma(0.25) ** 2 / math.sqrt(2.0 * math.pi)
    assert phi_da_closed(-0.5, 0.25, 0) == pytest.approx(want, rel=1e-10)
    assert phi_da_closed(-0.5, 0.25, 0) == pytest.approx(-4.602493147806767, rel=1e-12)


def test_phi_da_closed_vs_direct_sum():
    for a, b, n in ((-0.25, 1.0, 1), (0.5, 0.25, 0), (2.0, 2.5, 2)):
        closed = phi_da_closed(a, b, n)
        direct = eval_phi_da_direct(a, b, n)
        assert closed == pytest.approx(direct.value, abs=1e-8), (a, b, n)


def test_phi_da_closed_vs_finite_difference():
    a, b, n, h = 0.5, 1.0, 1, 1e-5
    fd = (eval_phi(a + h, b, float(n)).value - eval_phi(a - h, b, float(n)).value) / (
        2.0 * h
    )
    assert phi_da_closed(a, b, n) == pytest.approx(fd, abs=5e-8)


def test_harmonic_weighted_sum_routes():
    for a, b, n in ((0.5, 1.0, 2), (-0.25, 0.5, 1), (2.0, 1.0, 3)):
        closed = harmonic_weighted_sum(a, b, n)
        other = b ** (-float(n)) + eval_phi_da_direct(a, b, n - 1).value
        assert closed == pytest.approx(other, abs=1e-7), (a, b, n)


def test_inverse_factor_golden():
    # b = 1, n = 2 collapses to 2 - pi^2/6
    assert inverse_factor_sum(1.0, 2) == pytest.approx(2.0 - math.pi ** 2 / 6.0, rel=1e-12)
    frozen = {
        (0.5, 1): 1.227411277760218,
        (0.5, 2): 0.585218154431079,
        (1.0, 1): 1.0,
        (1.0, 3): 0.153009029992179,
        (2.0, 2): 0.177532966575887,
    }
    for (b, n), want in frozen.items():
        assert inverse_factor_sum(b, n) == pytest.approx(want, rel=1e-12), (b, n)


def test_inverse_factor_expansion_agrees():
    # the displayed expansion and minus the a-derivative give one sum
    for b, n in ((0.5, 1), (0.5, 3), (1.0, 2), (2.0, 3), (7.3, 5)):
        assert inverse_factor_expansion(b, n) == pytest.approx(inverse_factor_sum(b, n), rel=1e-12), (b, n)


def test_inverse_factor_vs_brute():
    for b, n in ((0.5, 1), (1.0, 2), (2.0, 3)):
        head = math.fsum(
            1.0 / (j * (b + j) ** n) for j in range(1, 300_000)
        )
        # crude integral tail; enough at 1e-8
        tail = 1.0 / (n * 300_000.0 ** n) if n > 0 else 0.0
        assert inverse_factor_sum(b, n) == pytest.approx(head + tail, abs=1e-7), (b, n)


def test_interchange_identity():
    rec = interchange_check(0.5, 1.0)
    assert rec.verdict == "pass"


def test_two_sided_family_adjudication():
    # only the symmetric beta = 0 cell survives; everywhere else the printed
    # closed form disagrees with the direct integral
    ok = verify._dispatch("twosided", (0.5, 0.0, 0))
    assert ok.verdict == "pass"
    bad = verify._dispatch("twosided", (0.25, 0.25, 0))
    assert bad.verdict == "fail"
    assert bad.errata_note is not None
    bad_m1 = verify._dispatch("twosided", (0.5, 0.5, 1))
    assert bad_m1.verdict == "fail"
    ok_m1 = verify._dispatch("twosided", (0.5, 0.0, 1))
    assert ok_m1.verdict == "pass"


def test_two_sided_corrected_closed_form():
    for b in (0.25, 0.5, 0.75):
        for beta in (0.0, 0.25, 0.5):
            orc = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta}))
            assert two_sided_closed(b, beta) == pytest.approx(
                orc.value, rel=1e-9
            ), (b, beta)


def test_two_sided_domain():
    with pytest.raises(DomainError):
        two_sided_family(1.5, 0.0, 0)
    with pytest.raises(DomainError):
        two_sided_family(0.5, 1.0, 0)
    with pytest.raises(DomainError):
        two_sided_family(0.5, 0.0, 2)


def test_worked_example_x2():
    want = (math.pi ** 2 + 16.0 * s_prime(2)) * gamma(0.25) ** 2 / math.sqrt(
        2.0 * math.pi
    )
    assert 2.0 * ramanujan_phi(-0.5, 0.25, 2).value == pytest.approx(want, rel=1e-10)


def test_worked_example_x3():
    phi0 = gamma(0.25) ** 2 / math.sqrt(2.0 * math.pi)
    want = phi0 * (math.pi ** 3 + 48.0 * math.pi * s_prime(2) + 128.0 * s_prime(3))
    assert 6.0 * ramanujan_phi(-0.5, 0.25, 3).value == pytest.approx(want, rel=1e-10)


def test_single_pole_reduction_values():
    # a = -1 rows of the shift ladder against Hurwitz values
    for b in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0):
            assert eval_phi(-1.0, b, mu).value == pytest.approx(
                hurwitz_zeta(mu + 1.0, b), rel=1e-13
            )


@pytest.mark.parametrize("call, args, message", [
    (sigma, (0.5, 1.0, 0), "order k must be a positive integer"),
    (sigma, (0.5, 1.0, 1.5), "order k must be a positive integer"),
    (sigma, (0.5, 0.0, 1), "need b > 0 and a \\+ b \\+ 1 > 0"),
    (sigma, (-3.0, 1.0, 2), "need b > 0 and a \\+ b \\+ 1 > 0"),
    (master_shift, (0.5, 1.0, 0.5, 0.5, -1), "depth m must be a non-negative integer"),
    (master_shift, (0.5, 1.0, 0.5, 0.5, 1.5), "depth m must be a non-negative integer"),
    (master_shift, (0.5, 1.0, 1.5, 0.5, 1), "need b > 0 and \\|beta\\| <= 1"),
    (eta_reduction, (0.0, 1.0), "need b > 0"),
    (eta_reduction, (1.0, 0.0), "unless alpha > 0"),
    (phi_da_closed, (0.5, 1.0, -1), "order n must be a non-negative integer"),
    (phi_da_closed, (0.5, 1.0, 0.5), "order n must be a non-negative integer"),
    (phi_da_closed, (-1.0, 1.0, 0), "need b > 0 and a > -1"),
    (phi_da_closed, (0.5, 0.0, 0), "need b > 0 and a > -1"),
    (harmonic_weighted_sum, (0.5, 1.0, 0), "order n must be a positive integer"),
    (harmonic_weighted_sum, (0.5, 1.0, 1.5), "order n must be a positive integer"),
    (inverse_factor_sum, (1.0, 0), "order n must be a positive integer"),
    (inverse_factor_sum, (0.0, 2), "need b > 0"),
    # a NaN or infinite order is no integer either
    *[(call, args, message) for bad in (math.nan, math.inf, -math.inf) for call, args, message in (
        (sigma, (0.5, 1.0, bad), "order k must be a positive integer"),
        (ramanujan_phi, (0.5, 1.0, bad), "order n must be a non-negative integer"),
        (master_shift, (0.5, 1.0, 0.5, 0.5, bad), "depth m must be a non-negative integer"),
        (phi_da_closed, (0.5, 1.0, bad), "order n must be a non-negative integer"),
        (harmonic_weighted_sum, (0.5, 1.0, bad), "order n must be a positive integer"),
        (inverse_factor_sum, (1.0, bad), "order n must be a positive integer"),
    )],
    # a NaN or infinite parameter fails the range checks, not a later gamma or sum
    (ramanujan_phi, (0.5, math.nan, 1), "need b > 0 and a > -1"),
    (ramanujan_phi, (0.5, math.inf, 1), "need b > 0 and a > -1"),
    (phi_da_closed, (math.nan, 1.0, 1), "need b > 0 and a > -1"),
    (harmonic_weighted_sum, (0.5, math.nan, 1), "need b > 0 and a > -1"),
    (interchange_check, (math.nan, 1.0), "need b > 0 and a > -1"),
    (master_shift, (math.nan, 1.0, -1.0, 0.5, 1), "need b > 0 and \\|beta\\| <= 1"),
    (inverse_factor_expansion, (1.0, 0), "order n must be a positive integer"),
    (inverse_factor_expansion, (0.0, 2), "need b > 0"),
    (inverse_factor_expansion, (math.inf, 2), "need b > 0"),
    # the closed form shares the family's domain: it raised ValueError at
    # beta = -1, returned nan at b = nan, and numbers outside 0 < b < 1
    (two_sided_closed, (0.5, -1.0), "need 0 < b < 1 and 0 <= beta < 1"),
    (two_sided_closed, (math.nan, 0.5), "need 0 < b < 1 and 0 <= beta < 1"),
    (two_sided_closed, (1.5, 0.2), "need 0 < b < 1 and 0 <= beta < 1"),
    (two_sided_closed, (0.5, 2.0), "need 0 < b < 1 and 0 <= beta < 1"),
    # b^n past double range raised OverflowError, under it ZeroDivisionError
    (inverse_factor_expansion, (1e300, 2), "b\\^n leaves double range"),
    (inverse_factor_expansion, (1e-300, 3), "b\\^n leaves double range"),
    # a non-finite s raised DivergenceError at beta = -1, or said "overflows"
    (lerch_phi, (-1.0, math.nan, 1.0), "needs finite s and q, got s = nan"),
    (lerch_phi, (0.5, math.nan, 1.0), "needs finite s and q, got s = nan"),
    # the closed form cancels at tiny b: it gave -1.64e150, -0.0, nan and
    # 8.06e6 where the sums are about 1.2 to 1.6
    (inverse_factor_sum, (1e-150, 2), "the closed form cancels"),
    (inverse_factor_sum, (1e-20, 1), "the closed form cancels"),
    (inverse_factor_sum, (1e-200, 2), "the closed form cancels"),
    (inverse_factor_sum, (1e-8, 3), "the closed form cancels"),
])
def test_identity_input_checks(call, args, message):
    with pytest.raises(DomainError, match=message):
        call(*args)
