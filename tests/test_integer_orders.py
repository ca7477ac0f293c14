"""Every integer-order entry point rejects NaN, the infinities, a fraction and
an order below its least with DomainError and its own message."""

import math

import pytest

from ramaseries.coeff_triangle import build
from ramaseries.identities import (
    harmonic_weighted_sum,
    inverse_factor_expansion,
    inverse_factor_sum,
    log_sin_integral,
    master_shift,
    phi_da_closed,
    ramanujan_phi,
    sigma,
    trig_cos,
    trig_lambda,
)
from ramaseries.quadrature import IntegralSpec, inverse_factor_direct, oracle_key, oracle_value
from ramaseries.series_engine import eval_phi_da_direct
from ramaseries.special_fn import DomainError, s_prime

TRIG_ORDER = "need integer a >= 1, finite frequency > 0, integer alpha >= 0"

# (entry point as a function of the order alone, least order, message)
SITES = {
    "sigma": (lambda k: sigma(0.5, 1.0, k), 1, "order k must be a positive integer"),
    "ramanujan_phi": (lambda n: ramanujan_phi(0.5, 1.0, n), 0, "order n must be a non-negative integer"),
    "phi_da_closed": (lambda n: phi_da_closed(0.5, 1.0, n), 0, "order n must be a non-negative integer"),
    "master_shift": (lambda m: master_shift(0.5, 1.0, 0.5, 0.5, m), 0,
                     "depth m must be a non-negative integer"),
    "harmonic_weighted_sum": (lambda n: harmonic_weighted_sum(0.5, 1.0, n), 1,
                              "order n must be a positive integer"),
    "inverse_factor_sum": (lambda n: inverse_factor_sum(1.0, n), 1, "order n must be a positive integer"),
    "inverse_factor_expansion": (lambda n: inverse_factor_expansion(1.0, n), 1,
                                 "order n must be a positive integer"),
    "trig_lambda": (lambda a: trig_lambda(a, 20.0, 0.0), 1, "need a a positive integer"),
    "trig_cos": (lambda a: trig_cos(a, 20.0, 0.0), 1, "need a a positive integer"),
    "log_sin_integral a": (lambda a: log_sin_integral(a, 20.0, 0.0), 1, "need a a positive integer"),
    "log_sin_integral alpha": (lambda n: log_sin_integral(1, 3.0, n), 0, "need integer alpha >= 0"),
    "oracle_key a": (lambda a: oracle_key(IntegralSpec("F7", {"a": a, "w": 20.0})), 1, TRIG_ORDER),
    "oracle_key alpha": (lambda n: oracle_key(IntegralSpec("F7", {"a": 1, "w": 2.0, "alpha": n})), 0,
                         TRIG_ORDER),
    "F8 a": (lambda a: oracle_value(IntegralSpec("F8", {"a": a, "w": 20.0})), 1, TRIG_ORDER),
    "F2 n": (lambda n: oracle_value(IntegralSpec("F2", {"a": 0.5, "b": 1.0, "n": n})), 0,
             "log power n must be a non-negative integer"),
    "F4 alpha": (lambda n: oracle_value(IntegralSpec("F4", {"a": 0.5, "b": 1.0, "alpha": n})), 0,
                 "log power n must be a non-negative integer"),
    "inverse_factor_direct": (lambda n: inverse_factor_direct(1.0, n), 1,
                              "order n must be a positive integer"),
    "eval_phi_da_direct": (lambda n: eval_phi_da_direct(0.5, 1.0, n), 0,
                           "n must be a non-negative integer"),
    "s_prime": (lambda r: s_prime(r), 1, "sprime needs a positive integer index"),
    "build": (lambda M: build(1.0, 1.0, M), 1, "triangle depth must be >= 1"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "fraction", "below least"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_integer_order_rejected(site, bad):
    call, least, message = SITES[site]
    order = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "fraction": least + 1.5, "below least": least - 1}[bad]
    with pytest.raises(DomainError, match=message):
        call(order)


@pytest.mark.parametrize("site", sorted(SITES))
def test_integer_valued_float_order_accepted(site):
    # an integer given as a float is an integer order: the check converts, not rejects
    call, least, _ = SITES[site]
    call(float(least + 1))
