"""Seeded input lists for the eval workloads.

An op is a list [fn, args, cap, regime]: the public ramaseries function to
call, its positional arguments, the cap keyword (None for the default) and
the band the op was drawn from.

Each band is cut into strata along its main axis. Every stratum has a
few candidates (VARIANTS) that share all their other parameters and differ
only by where they sit on the main axis within the stratum; they depend only
on (workload, size), so their references can be computed once per checkout.
The seed picks one candidate per stratum and shuffles the order. The result
is a pure function of (workload, seed, size): every draw comes from a
random.Random seeded with a string, which no interpreter setting changes,
and the timed process regenerates the list on its own and reports its
digest, which run.py compares with its own. The list holds no repeated
input and covers every band; since candidates of one stratum cost about
the same, the seed moves the inputs but hardly the total work or the miss
fractions.

Every band of a workload gets the same number of ops. No measured traffic
exists for this library, so the mix claims none: a gain or a loss in any
band weighs the same. s_prime is the exception, with S_PRIME_MAX ops, all
its distinct inputs below that limit.
"""

from __future__ import annotations

import hashlib
import math
import random

# candidates per stratum; heavy refs are cheap enough for more variety
VARIANTS = {"eval-light": 3, "eval-heavy": 8}

# bands of each workload; scalars and series bands interleave after shuffling
LIGHT_BANDS = ("finite", "geometric", "negint-closed", "powerlaw-alt", "powerlaw-plus",
               "hurwitz_zeta", "lerch_phi", "digamma", "gamma", "beta_f", "s_prime")
HEAVY_BANDS = ("powerlaw-alt", "powerlaw-plus", "deriv", "near-unit")
BANDS = {"eval-light": LIGHT_BANDS, "eval-heavy": HEAVY_BANDS}
S_PRIME_MAX = 40
SHARED_DRAWS = 8  # uniforms a draw may take besides its main-axis position
NEAR_UNIT_CAP = 200_000


def _logu(rng, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _off_int(x: float) -> float:
    # keep non-integer draws 0.01 away from the integers, where the regime
    # changes; a shift rather than a clamp keeps the draws distinct
    d = x - round(x)
    if abs(d) < 0.01:
        return x + (0.02 if d >= 0 else -0.02)
    return x


def _off_pole(x: float) -> float:
    return _off_int(x) if x < 0.5 else x


def _light(band: str, u: float, rng):
    if band == "finite":
        a = float(rng.randrange(13))
        beta = rng.choice((-1.0, 1.0)) if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)
        return ["eval_psi_general", [a, _logu(rng, 0.1, 10.0, u), beta, rng.uniform(0.0, 4.0)], None]
    if band == "geometric":
        a = _off_int(_logu(rng, 0.01, 61.0) - 1.0)
        beta = -0.9 + 1.8 * u
        return ["eval_psi_general", [a, _logu(rng, 0.1, 10.0), beta, float(rng.randrange(4))], None]
    if band == "negint-closed":
        k = 1 + rng.randrange(4)
        alpha = k - 1 + 0.1 + 2.9 * u
        return ["eval_phi", [-float(k), _logu(rng, 0.1, 10.0), alpha], None]
    if band in ("powerlaw-alt", "powerlaw-plus"):
        alpha = float(rng.randrange(3))
        lo = 1.5 - alpha  # a + alpha + 2 >= 3.5
        a = _off_int(_logu(rng, lo + 1.0, 61.0, u) - 1.0)
        fn = "eval_phi" if band == "powerlaw-alt" else "eval_phi_tilde"
        return [fn, [a, _logu(rng, 0.1, 10.0), alpha], None]
    if band == "hurwitz_zeta":
        return [band, [1.05 + 6.95 * u, _logu(rng, 0.05, 20.0)], None]
    if band == "lerch_phi":
        return [band, [-0.9 + 1.8 * u, rng.uniform(0.3, 6.0), _logu(rng, 0.1, 10.0)], None]
    if band == "digamma":
        return [band, [_off_pole(-10.0 + 35.0 * u)], None]
    if band == "gamma":
        return [band, [_off_pole(-8.0 + 38.0 * u)], None]
    if band == "beta_f":
        return [band, [3.0 * u, rng.uniform(-0.9, 20.0), _logu(rng, 0.1, 10.0)], None]
    raise ValueError(band)


def _heavy(band: str, u: float, rng):
    b = _logu(rng, 0.1, 10.0)
    if band in ("powerlaw-alt", "powerlaw-plus", "deriv"):
        e = -0.95 + 2.4 * u  # a + alpha in (-1, 1.5): exponent a + alpha + 2 in (1, 3.5)
        if band == "deriv":
            n = rng.randrange(3)
            while e - n <= -0.99:
                n -= 1
            return ["eval_phi_da_direct", [_off_int(e - n), b, n], None]
        pick = rng.random()
        if pick < 0.5:
            alpha = 0.0
        elif pick < 0.75 and e > 0.05:
            alpha = 1.0 if e - 1.0 > -0.99 else 0.0
        else:
            alpha = rng.uniform(0.0, min(2.4, e + 0.98))
        fn = "eval_phi" if band == "powerlaw-alt" else "eval_phi_tilde"
        return [fn, [_off_int(e - alpha), b, alpha], None]
    if band == "near-unit":
        one_minus = _logu(rng, 0.001, 0.05, u)  # 0.95 <= |beta| <= 0.999
        beta = math.copysign(1.0 - one_minus, rng.random() - 0.5)
        alpha = float(rng.randrange(3)) if rng.random() < 0.6 else rng.uniform(0.0, 3.0)
        a = _off_int(_logu(rng, 0.01, 11.0) - 1.0)
        return ["eval_psi_general", [a, b, beta, alpha], NEAR_UNIT_CAP]
    raise ValueError(band)


def strata_counts(workload: str, size: int):
    """(band, ops) of every band: size split evenly over the drawn bands."""
    bands = BANDS[workload]
    each = max(1, round(size / len([b for b in bands if b != "s_prime"])))
    return [(band, S_PRIME_MAX if band == "s_prime" else each) for band in bands]


class _Draws:
    """The random calls a band's draw makes, served from a fixed list of
    uniforms, so that every candidate of a stratum sees the same values."""

    def __init__(self, uniforms):
        self._next = iter(uniforms).__next__

    def random(self) -> float:
        return self._next()

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._next()

    def randrange(self, n: int) -> int:
        return min(n - 1, int(n * self._next()))

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def _strata(workload: str, size: int):
    """(band, k, shared uniforms, candidate positions) of every stratum."""
    nvar = VARIANTS[workload]
    for band, count in strata_counts(workload, size):
        rng = random.Random("%s/%s" % (workload, band))
        for k in range(count):
            shared = [rng.random() for _ in range(SHARED_DRAWS)]
            yield band, k, shared, [(k + rng.random()) / count for _ in range(nvar)]


def _candidate(workload: str, band: str, k: int, shared, u: float):
    if band == "s_prime":
        return ["s_prime", [k + 1], None, band]
    draw = _light if workload == "eval-light" else _heavy
    return draw(band, u, _Draws(shared)) + [band]


def pool(workload: str, size: int):
    """Every candidate op: a list of strata, each a list of candidate ops."""
    return [[_candidate(workload, band, k, shared, u) for u in positions]
            for band, k, shared, positions in _strata(workload, size)]


def generate(workload: str, seed: int, size: int):
    """The op list of one run: one candidate per stratum, in seeded order."""
    rng = random.Random("select/%s/%d" % (workload, seed))
    ops = [_candidate(workload, band, k, shared, positions[rng.randrange(len(positions))])
           for band, k, shared, positions in _strata(workload, size)]
    rng.shuffle(ops)
    return ops


def op_key(op) -> str:
    return repr((op[0], tuple(op[1]), op[2]))


def digest(ops) -> str:
    """A digest of an op list, to compare lists made in two processes."""
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def check(workload: str, ops, convergence_report, SeriesParams) -> None:
    """Raise ValueError unless ops are distinct, cover every band and each
    series op falls in its band's convergence regime."""
    keys = {op_key(op) for op in ops}
    if len(keys) != len(ops):
        raise ValueError("%d repeated inputs in %s" % (len(ops) - len(keys), workload))
    seen = {op[3] for op in ops}
    missing = [band for band in BANDS[workload] if band not in seen]
    if missing:
        raise ValueError("bands missing from %s: %s" % (workload, missing))
    for op in ops:
        want = expected_regime(op[3])
        if want is None:
            continue
        got = convergence_report(series_params(op, SeriesParams)).regime
        if got != want:
            raise ValueError("op %s is %s, not %s" % (op_key(op), got, want))


def expected_regime(band: str):
    """The convergence_report regime each series band must fall in."""
    if band == "finite":
        return "finite"
    if band in ("geometric", "near-unit"):
        return "geometric"
    if band in ("negint-closed", "powerlaw-alt", "powerlaw-plus", "deriv"):
        return "power-law"
    return None


def series_params(op, SeriesParams):
    fn, args = op[0], op[1]
    if fn == "eval_psi_general":
        return SeriesParams(*args)
    if fn == "eval_phi_da_direct":
        return SeriesParams(args[0], args[1], -1.0, float(args[2]))
    beta = -1.0 if fn == "eval_phi" else 1.0
    return SeriesParams(args[0], args[1], beta, args[2])
