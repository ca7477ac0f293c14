"""Catalog of printed-source discrepancies, each with live numeric evidence.

Every entry pairs the uncorrected reading with the adopted one and can
reproduce its evidence on demand: the printed value, the corrected value,
the value of an independent oracle (quadrature, regularized oscillatory
integration, or direct summation) and the tolerance.  verify.errata_records
judges both readings against that one oracle; a healthy catalog has every
printed record failing and every corrected record passing, and the
verification suite asserts exactly that, so none of these findings can
silently rot.

The corrected forms the package computes with live in ``identities`` (and
the triangle recurrence in ``coeff_triangle``); this module holds only the
printed readings, the worked values of both readings, and the evidence.

Keys are the display tags of the source text, kept verbatim so readers can
find the disputed lines; unnumbered displays get short descriptive keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .coeff_triangle import build as build_triangle
from .quadrature import (IntegralSpec, integrate_decay, inverse_factor_direct, oracle_value,
                         two_sided_direct)
from .series_engine import SeriesParams, eval_phi, eval_phi_tilde, eval_psi_general
from .special_fn import beta_f, gamma, hurwitz_zeta, lerch_phi, s_prime
from . import identities


# (printed value, corrected value, oracle value, tolerance)
Evidence = Tuple[float, float, float, float]


@dataclass(frozen=True)
class ErrataEntry:
    """One catalogued discrepancy with a reproducible adjudication."""

    key: str
    printed: str
    corrected: str
    detail: str
    _repro: Callable[[], Evidence]

    def reproduce(self) -> Evidence:
        """The evidence, computed fresh: (printed, corrected, oracle, tol),
        both readings to be judged against the one oracle value."""
        return self._repro()


def _repro_2_9() -> Evidence:
    # (1+e^-x)^2 e^-x integrates to 7/3; a trailing minus on the last
    # expansion term would give 5/3
    orc = integrate_decay(lambda x: (1.0 + math.exp(-x)) ** 2 * math.exp(-x), 1.0).value
    printed = 1.0 + 2.0 / 2.0 - 1.0 / 3.0
    corrected = eval_phi_tilde(2.0, 1.0, 0.0).value
    return printed, corrected, orc, 1e-9


def _trig_evidence(form: str, a: int, w: float, alpha: float) -> Evidence:
    # the uncorrected reading: frequency parameter u = 2b - a, so b = (u+a)/2,
    # joint phase (a - alpha), cos part +sin convention; F7 is the cos part,
    # F8 the sin part
    sin_part = form == "F8"
    orc = oracle_value(IntegralSpec(form, {"a": a, "w": w, "alpha": alpha})).value
    s = 2.0 ** (-a - alpha - 1.0) * gamma(alpha + 1.0) * eval_phi(float(a), 0.5 * (w + a), alpha).value
    th = 0.5 * math.pi * (a - alpha)
    printed = s * (math.cos(th) if sin_part else math.sin(th))
    corrected = identities.trig_lambda(a, w, alpha)[sin_part]
    return printed, corrected, orc, 1e-3


def _repro_3_4() -> Evidence:
    # corrected recurrence reads the middle term from the previous row;
    # the printed superscript points it at the row being built.  At
    # (p, b) = (2, 2) the depth-3 middle entry separates the readings:
    # -(2b+1)p = -10 against the self-referential -14.
    p, b = 2.0, 2.0
    target = -(2.0 * b + 1.0) * p
    corrected = build_triangle(p, b, 3).entry(3, 2)
    prev = [b, -p]
    self_ref_first = b * prev[0]
    printed = -p * self_ref_first + (b + 1.0) * prev[1]
    return printed, corrected, target, 1e-12


def _phi_quad(a: float, b: float, alpha: float) -> float:
    spec = IntegralSpec("F1", {"a": a, "b": b, "beta": -1.0, "alpha": alpha})
    return oracle_value(spec).value / gamma(alpha + 1.0)


def _zeta_combo_4_4(b: float, mu: float, halved: bool) -> float:
    v = (hurwitz_zeta(mu + 1.0, b) - (2.0 * b + 1.0) * hurwitz_zeta(mu + 2.0, b)
         + b * (b + 1.0) * hurwitz_zeta(mu + 3.0, b))
    return 0.5 * v if halved else v


def _repro_4_4() -> Evidence:
    # depth-2 display drops the leading 1/2 of the three-zeta combination
    orc = _phi_quad(-3.0, 3.0, 3.0)
    printed = _zeta_combo_4_4(1.0, 1.0, halved=False)
    corrected = _zeta_combo_4_4(1.0, 1.0, halved=True)
    return printed, corrected, orc, 1e-7 * max(1.0, abs(orc))


def _repro_4_5() -> Evidence:
    # worked example fixes the ladder coefficients at the same p as the
    # series instances; relabeling the triangle argument one step down
    # changes the second coefficient from 1/2 to 3/2
    rhs = eval_phi(-0.5, 0.25, 0.0).value
    inst1 = eval_phi(-0.5, 0.25, 1.0).value
    inst2 = eval_phi(-1.5, 1.25, 1.0).value
    corrected = 0.25 * inst1 + 0.5 * inst2
    printed = 0.25 * inst1 + 1.5 * inst2
    return printed, corrected, rhs, 1e-7 * max(1.0, abs(rhs))


def _repro_x3() -> Evidence:
    # cubic-weight worked value: the printed bracket substitutes the closed
    # form of one constant while keeping its symbol in another term and
    # drops a factor pi on the middle term
    orc = identities.ramanujan_phi(-0.5, 0.25, 3).value * gamma(4.0)
    phi0 = beta_f(0.0, -0.5, 0.25)
    g2 = s_prime(2)
    g3 = s_prime(3)
    printed = phi0 * (5.0 * math.pi ** 3 + 48.0 * g2 + 128.0 * g3)
    corrected = phi0 * (math.pi ** 3 + 48.0 * math.pi * g2 + 128.0 * g3)
    return printed, corrected, orc, 1e-7 * max(1.0, abs(orc))


def _repro_5_7() -> Evidence:
    # sum over j of 1/(j (1+j)^2) is positive; the display equates it to the
    # parameter derivative itself instead of its negative
    orc = inverse_factor_direct(1.0, 2).value
    printed = identities.phi_da_closed(0.0, 1.0, 1)
    corrected = identities.inverse_factor_sum(1.0, 2)
    return printed, corrected, orc, 1e-9


def _repro_log_log() -> Evidence:
    spec = IntegralSpec("F4", {"a": -0.5, "b": 0.25, "beta": -1.0, "alpha": 1.0})
    orc = oracle_value(spec).value
    printed = identities.phi_da_closed(-0.5, 0.25, 1)
    corrected = -printed
    return printed, corrected, orc, 1e-6 * max(1.0, abs(orc))


def _repro_lerch() -> Evidence:
    # geometric single-shift series equals the transcendent at argument
    # -beta; the display keeps +beta
    orc = eval_psi_general(SeriesParams(a=-1.0, b=1.0, beta=0.5, alpha=0.0)).value
    printed = lerch_phi(0.5, 1.0, 1.0)
    corrected = lerch_phi(-0.5, 1.0, 1.0)
    return printed, corrected, orc, 1e-10


def _repro_two_sided() -> Evidence:
    b, beta = 0.25, 0.25
    orc = two_sided_direct(b, beta, 0)
    s = math.sin(math.pi * b)
    printed = math.pi ** 3 / (1.0 - beta) / s * (2.0 - s * s)
    corrected = identities.two_sided_closed(b, beta)
    return printed, corrected, orc, 1e-6 * max(1.0, abs(orc))


ENTRIES: Tuple[ErrataEntry, ...] = (
    ErrataEntry(
        key="(2.9)",
        printed="plus-weight expansion display ends with a subtracted term",
        corrected="all expansion terms carry the plain binomial signs",
        detail="At a = 2, b = 1 the expansion terminates as 1 + 1 + 1/3 = 7/3 "
               "and the defining integral agrees; the trailing-minus reading "
               "gives 5/3.",
        _repro=_repro_2_9,
    ),
    ErrataEntry(
        key="(2.13b)",
        printed="complex split of the sine-power integrand carries phase "
                "exp(-i(a(pi-x)/2 + bx))",
        corrected="the split carries exp(+i(a(pi-x)/2 - bx)); integrand phase "
                  "bx - a(pi-x)/2, frequency w = 2b + a",
        detail="The conjugated phase propagates into every closed form "
               "downstream: frequency parameter printed as 2b - a and joint "
               "phase printed as (a - alpha).  At (a, w, alpha) = (2, 3, 0) "
               "the chain value misses the oscillatory oracle by a factor 21.",
        _repro=functools.partial(_trig_evidence, "F8", 2, 3.0, 0.0),
    ),
    ErrataEntry(
        key="(2.17)",
        printed="cosine-part closed form with series argument (u+a)/2 and "
                "phase sin((a-alpha)pi/2), u = 2b - a",
        corrected="minus sign, series argument (w-a)/2, phase "
                  "sin((a+alpha)pi/2), w = 2b + a",
        detail="At (a, w, alpha) = (1, 2, 0) the printed form gives +1/15; "
               "the oscillatory oracle and the corrected form give -1/3.",
        _repro=functools.partial(_trig_evidence, "F7", 1, 2.0, 0.0),
    ),
    ErrataEntry(
        key="(2.18)",
        printed="sine-part closed form with the same conjugated "
                "parametrization and phase cos((a-alpha)pi/2)",
        corrected="series argument (w-a)/2 and phase cos((a+alpha)pi/2)",
        detail="At (a, w, alpha) = (1, 2, 1) the printed form gives "
               "+0.03556; oracle and corrected form give -4/9.",
        _repro=functools.partial(_trig_evidence, "F8", 1, 2.0, 1.0),
    ),
    ErrataEntry(
        key="(3.4)",
        printed="recurrence middle term cites the row currently being built",
        corrected="middle term cites the previous row",
        detail="Only the previous-row reading reproduces the printed depth-3 "
               "coefficients; at (p, b) = (2, 2) the depth-3 middle entry is "
               "-(2b+1)p = -10 under the corrected reading and -14 under the "
               "printed one.",
        _repro=_repro_3_4,
    ),
    ErrataEntry(
        key="(4.4)",
        printed="depth-2 reduction displayed without its leading 1/2",
        corrected="the three-zeta combination carries an overall factor 1/2",
        detail="At (b, mu) = (1, 1) quadrature of the defining integral gives "
               "0.10170491; the printed combination gives 0.20340982, exactly "
               "twice the truth.",
        _repro=_repro_4_4,
    ),
    ErrataEntry(
        key="(4.5)",
        printed="general display relabels the ladder argument one step down "
                "from the series instances",
        corrected="ladder coefficients and all series instances share the "
                  "same first argument (the worked example's own reading)",
        detail="With the shared argument the worked example's coefficients "
               "are (1/4, 1/2) and the residual is at rounding level; the "
               "relabeled reading gives (1/4, 3/2) and misses by ~1.",
        _repro=_repro_4_5,
    ),
    ErrataEntry(
        key="x3-example",
        printed="cubic-weight worked value 5 pi^3 + 48 S'_2 + 128 S'_3 "
                "(times the seed)",
        corrected="pi^3 + 48 pi S'_2 + 128 S'_3 (times the seed)",
        detail="The printed bracket substitutes S'_3 = pi^3/32 into one term "
               "while keeping the symbol in another, and drops the factor pi "
               "on the middle term; recursion and quadrature both give "
               "1537.3425, the printed bracket 1693.9.",
        _repro=_repro_x3,
    ),
    ErrataEntry(
        key="(5.7)",
        printed="inverse-factor sum equated to the parameter derivative "
                "directly",
        corrected="the sum equals minus the parameter derivative",
        detail="The sum is termwise positive; at b = 1, n = 2 direct "
               "summation gives +0.3550659 while the derivative value is "
               "-0.3550659.",
        _repro=_repro_5_7,
    ),
    ErrataEntry(
        key="log-log-example",
        printed="double-log unit integral equated to the derivative value "
                "(negative)",
        corrected="the integral equals minus the derivative value (positive)",
        detail="The integrand is nonnegative on (0,1): both log factors are "
               "negative and the power factors positive.  Quadrature gives "
               "+1.1292492.",
        _repro=_repro_log_log,
    ),
    ErrataEntry(
        key="lerch-reduction",
        printed="single-shift geometric series equated to the transcendent "
                "at argument +beta",
        corrected="the series equals the transcendent at argument -beta",
        detail="The binomial weight at the shift contributes (-1)^i, folding "
               "the sign into the geometric argument.  At beta = 1/2, b = 1, "
               "mu = 0: series 2 ln(3/2) = 0.8109302 vs printed 2 ln 2 = "
               "1.3862944.",
        _repro=_repro_lerch,
    ),
    ErrataEntry(
        key="two-sided",
        printed="two-sided family reduced to pi^3 csc(b pi)(2 - sin^2(b pi)) "
                "times geometric-weight sums",
        corrected="partial-fraction closed form "
                  "[K2 - beta^(1-b)(K2 - 2c K1 + c^2 K0)]/(1-beta)",
        detail="The series route integrates shifted terms outside their "
               "convergence strip and treats a shift-dependent prefactor as "
               "constant; the printed value agrees with the direct integral "
               "only at (b, beta) = (1/2, 0).  The base one-factor integral "
               "itself needs csc^3, not csc.",
        _repro=_repro_two_sided,
    ),
)


def catalog() -> Dict[str, ErrataEntry]:
    """The fixed ledger, keyed by display tag."""
    return {e.key: e for e in ENTRIES}

