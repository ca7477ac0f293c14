"""Numerical integration oracles used to confront series evaluations.

Independent routes:

* tanh-sinh rule on (0,1) for integrands with algebraic-log endpoint
  behavior, reused for exponential-decay and two-sided integrals through
  substitutions,
* regularized (Abel) evaluation for conditionally convergent oscillatory
  integrals: damp by exp(-eps x), integrate over pi-length panels, then
  extrapolate eps -> 0. One grid pass gives every part of an integrand,
  so the cos(wx) and sin(wx) parts of one integral share it. A node is
  x = (k+1/2) pi + h, panel k and one-panel offset h: the integrand
  f(k, h) builds its trig and log factors from per-panel and per-offset
  tables, and exp(-eps x) splits the same way, so each rule keeps
  per-panel and per-offset tables only, no grid,
* an oracle memo (oracle_memo) that a verification pass holds open, so
  records that share an Abel integral evaluate it once,
* closed-form dispatch table mapping tagged integral forms to the routes,
* the direct side of the two-sided family (two_sided_direct),
* direct summation of the inverse-factor series sum_j 1/(j (b+j)^n)
  (inverse_factor_direct): a head of about 4b + 16 terms, the tail integral
  as a series of positive terms, the half term and six Euler-Maclaurin
  corrections, with a derived bound. A call costs a few dozen terms, so
  it takes no memo.

Endpoint care: tanh-sinh abscissae cluster within 1e-270 of the endpoints,
far below float spacing around 1.0, so the rule always evaluates through
distance-to-endpoint callables: every caller passes ``f_right``, the
integrand at t = 1-d as a function of the small distance d.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .series_engine import EvalResult, SeriesParams
from .special_fn import _EPS, DivergenceError, DomainError, _whole

_LN2 = math.log(2.0)
_MAX_LEVEL = 12
_UNIT_TARGET = 1e-11


class ExtrapolationError(DivergenceError):
    """Abel extrapolants diverged instead of settling: the integral has no
    Abel value."""


# ---------------------------------------------------------------------------
# tanh-sinh node tables, cached per level
#
# substitution: t = (1 + tanh(v))/2 with v = (pi/2) sinh u, du step h = 2^-level.
# A node at u > 0 sits at distance d = 1/(1 + e^(2v)) from the nearer endpoint
# and pairs with its mirror image; weight (pi/4) cosh(u) sech^2(v).

_NODE_CACHE: dict[int, list[tuple[float, float]]] = {}


def _node(u: float) -> tuple[float, float]:
    v = 0.5 * math.pi * math.sinh(u)
    ev = math.exp(-2.0 * v)
    d = ev / (1.0 + ev)
    w = math.pi * ev / ((1.0 + ev) * (1.0 + ev))
    # w = (pi/4) cosh(u) sech^2(v) with sech^2 written through e^(-2v)
    w *= math.cosh(u)
    return d, w


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Positive-u nodes new to this level (level 0: u = 1, 2, ...)."""
    got = _NODE_CACHE.get(level)
    if got is not None:
        return got
    h = 2.0 ** (-level)
    out = []
    j = 1
    step = 1 if level == 0 else 2
    while True:
        u = j * h
        d, w = _node(u)
        if d == 0.0 or w == 0.0:
            break
        out.append((d, w))
        j += step
    _NODE_CACHE[level] = out
    return out


def integrate_unit(
    f: Callable[[float], float],
    *,
    f_right: Callable[[float], float],
    target: float = _UNIT_TARGET,
) -> EvalResult:
    """Integrate f over (0,1), integrable singularities and logs at either end allowed.

    f receives the abscissa for the left half; f_right receives the distance
    d and returns the integrand at t = 1-d, so a factor singular at 1 keeps
    its digits near the right endpoint.  Error estimate comes from
    successive level differences; hitting the level cap returns the achieved
    estimate rather than raising.
    """
    evals = 0
    total = None
    absum = 0.0
    est = math.inf
    prev = None
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        pieces = []
        apieces = []
        for d, w in _level_nodes(level):
            for fv in (f(d), f_right(d)):
                c = w * fv
                if math.isfinite(c):
                    pieces.append(c)
                    apieces.append(abs(c))
                evals += 1
        new = math.fsum(pieces)
        anew = math.fsum(apieces)
        if level == 0:
            mid = f(0.5)
            total = h * (new + 0.25 * math.pi * mid)
            absum = h * (anew + 0.25 * math.pi * abs(mid))
            evals += 1
            continue
        nxt = 0.5 * total + h * new
        absum = 0.5 * absum + h * anew
        est = abs(nxt - total)
        total = nxt
        if level >= 3 and est <= target:
            break
    bound = est + 8.0 * _EPS * absum
    return EvalResult(value=total, abs_error_bound=bound, terms_used=evals, method="oracle")


def _decay_halves(f: Callable[[float], float]):
    """Distance-coordinate callables for int_0^inf f(x) dx under t = e^(-x)."""

    def left(t: float) -> float:
        x = -math.log(t)
        return f(x) / t

    def right(d: float) -> float:
        x = -math.log1p(-d)
        return f(x) / (1.0 - d)

    return left, right


def integrate_decay(f: Callable[[float], float], b: float) -> EvalResult:
    """Integrate f over (0, inf) where f is dominated by x^alpha e^(-bx) (logs allowed).

    Substitution t = e^(-x) maps to the unit interval with left-endpoint
    exponent b-1; an integrable singularity of f at 0 lands at the right
    endpoint, evaluated in distance coordinates throughout. The nodes stop
    at x = 633.7 or later, and the bound does not count the integral past
    them: a caller that knows f adds that tail (_decay_tail).
    """
    if not b > 0.0:
        raise DomainError("decay rate b must be positive")
    left, right = _decay_halves(f)
    return integrate_unit(left, f_right=right)


def _decay_tail(a: float, b: float, beta: float, alpha: float, with_log: bool) -> float:
    """A bound on int_X^inf of |x^alpha e^(-bx) (1 + beta e^(-x))^a|, times
    |log(1 - e^(-x))| with_log, past X = 633.7, the x of level 0's last node
    under t = e^(-x): integrate_decay adds nodes at or past it at every
    level, so what it drops lies past X. inf where no bound is finite.

    Past X, ln(x/X) <= (x - X)/X gives x^alpha e^(-bx) <= X^alpha e^(-bX)
    e^(-(b - alpha/X)(x - X)) at alpha >= 0 (at alpha < 0, x^alpha <= X^alpha),
    so the integral is at most X^alpha e^(-bX) / (b - max(alpha, 0)/X) once
    bX > alpha. The binomial factor lies between 1 and its value at X, and
    |log(1 - e^(-x))| falls from its value at X.
    """
    X = -math.log(_level_nodes(0)[-1][0])
    rate = b - max(alpha, 0.0) / X
    if rate <= 0.0:
        return math.inf
    e = math.exp(-X)
    log_tail = alpha * math.log(X) - b * X + max(0.0, a * math.log1p(beta * e)) - math.log(rate)
    if with_log:
        log_tail += math.log(-math.log1p(-e))
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


def integrate_two_sided(f: Callable[[float], float]) -> EvalResult:
    """Integrate f over the whole line given two-sided exponential decay.

    Split at 0; each half runs through the exponential substitution to
    5e-11.  The caller guarantees genuine decay on both sides.
    """
    left_l, left_r = _decay_halves(lambda x: f(-x))
    right_l, right_r = _decay_halves(f)
    pos = integrate_unit(right_l, f_right=right_r, target=5e-11)
    neg = integrate_unit(left_l, f_right=left_r, target=5e-11)
    return EvalResult(
        value=pos.value + neg.value,
        abs_error_bound=pos.abs_error_bound + neg.abs_error_bound,
        terms_used=pos.terms_used + neg.terms_used,
        method="oracle",
    )


# ---------------------------------------------------------------------------
# Abel-regularized oscillatory route


def _ts_rule() -> tuple[np.ndarray, np.ndarray]:
    # tanh-sinh on (-1, 1) with step 1/16: absorbs the log singularities that
    # log|sin x| integrands carry at every panel edge
    h = 2.0 ** -4
    j = np.arange(-int(6.1 / h), int(6.1 / h) + 1)
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    xi = np.tanh(u)
    wi = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(xi) > 1e-17
    return xi[keep], wi[keep]


def _neville_to_zero(eps: np.ndarray, vals: np.ndarray) -> float:
    T = vals.astype(float).copy()
    n = len(eps)
    for m in range(1, n):
        T = (eps[m:] * T[:-1] - eps[:-m] * T[1:]) / (eps[m:] - eps[:-m])
    return float(T[-1])


# the damping schedule and the panel count are the same on every call
_ABEL_EPS = 0.2 * 0.5 ** np.arange(7)
_ABEL_X_MAX = 40.0 / float(_ABEL_EPS.min())
_ABEL_PANELS = int(np.ceil(_ABEL_X_MAX / np.pi))
# integrands are evaluated and damped about this many nodes (whole panels) at a time
_ABEL_SLICE = 1 << 14
# log_singular -> the rule's tables (see _abel_grid); read-only, built on first use
_ABEL_GRIDS: dict[bool, tuple[np.ndarray, ...]] = {}


def _abel_grid(log_singular: bool) -> tuple[np.ndarray, ...]:
    """(k, h, damp_h, damp_k) of the Gauss rule, or of the tanh-sinh rule.

    Node j of panel k sits at x = (k+1/2) pi + h_j, so exp(-eps x) factors
    into exp(-eps (k+1/2) pi) exp(-eps h_j). k is the column of panel
    indices, h the row of one-panel offsets (pi/2) xi_j, damp_h the
    offsets' weights times their damping, hw_j exp(-eps h_j) (7 x m), and
    damp_k the panels' damping exp(-eps (k+1/2) pi) (7 x panels). No table
    is grid-sized.
    """
    got = _ABEL_GRIDS.get(log_singular)
    if got is None:
        xi, wi = _ts_rule() if log_singular else np.polynomial.legendre.leggauss(24)
        h, hw = 0.5 * np.pi * xi, 0.5 * np.pi * wi
        k = np.arange(_ABEL_PANELS)
        got = (k[:, None], h[None, :], hw * np.exp(-np.outer(_ABEL_EPS, h)),
               np.exp(-np.outer(_ABEL_EPS, (k + 0.5) * np.pi)))
        for arr in got:
            arr.flags.writeable = False
        _ABEL_GRIDS[log_singular] = got
    return got


def _abel_result(F: Sequence[float], nodes: int) -> EvalResult | ExtrapolationError:
    F = np.array(F)
    val = _neville_to_zero(_ABEL_EPS, F)
    val_prev = _neville_to_zero(_ABEL_EPS[:-1], F[:-1])
    est = abs(val - val_prev)
    if not math.isfinite(val) or est > 0.05 * (1.0 + abs(val)):
        return ExtrapolationError(f"Abel extrapolants unstable (spread {est:.3g})")
    tail = math.exp(-40.0) * (1.0 + _ABEL_X_MAX) ** 2
    return EvalResult(
        value=val,
        abs_error_bound=est + tail,
        terms_used=int(nodes * len(_ABEL_EPS)),
        method="oracle",
    )


def _parts(f: Callable, k: np.ndarray, h: np.ndarray) -> np.ndarray:
    parts = f(k, h)
    # iterating a bare array would take each of its rows for a part
    if not isinstance(parts, tuple):
        raise TypeError("the integrand must return a tuple of parts")
    return np.asarray(parts, dtype=float)


def abel_oscillatory(f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]], *,
                     log_singular: bool = False) -> tuple[EvalResult | ExtrapolationError, ...]:
    """Regularized values of int_0^inf f_p(x) dx for the parts f_p of trig-product integrands.

    f returns a tuple of parts, the integrands at the nodes; the result has
    one EvalResult per part. Parts that share factors (the cos(wx) and
    sin(wx) parts of one integral) thus share their evaluation, and every
    part is damped by the same exp(-eps x). A part whose extrapolants do not
    settle gets an ExtrapolationError in its place, not raised, so that its
    siblings stay usable: sin(x) cos(x) has a value where sin(x)^2 has none.

    Computes F(eps) = int f_p(x) e^(-eps x) dx for eps = 0.2 * 0.5^k,
    k < 7, on a shared grid of pi-length panels covering (0, 40/eps_min),
    Gauss panels (tanh-sinh panels when f carries log|sin| factors), then
    extrapolates eps to 0. The reported bound is the difference of the
    last two extrapolants plus the analytic truncation tail.

    Node j of panel k is x = (k+1/2) pi + h_j, and f is called as f(k, h)
    on a block of whole panels at a time: k is a column of panel indices
    and h the row of one-panel offsets, so x = (k + 0.5) * np.pi + h, and
    each part is a (len(k), len(h)) array. On every panel sin x =
    (-1)^k cos h and cos x = -(-1)^k sin h, so an integrand can build its
    factors from per-panel columns and per-offset rows. Both arrays are
    read-only, so f must not write into them. The damping factors the same
    way: each panel's dot products with the rows of the 7 x m table
    hw_j exp(-eps h_j) give its damped sums M[k, eps], and F(eps) is one
    whole-array sum over k of exp(-eps (k+1/2) pi) M[k, eps]. A dot product
    sees one panel at a time (a matrix product would round a row by where
    it falls in the block), so no bit depends on how the panels are cut
    into blocks. The tables are built once per process.
    """
    k, h, damp_h, damp_k = _abel_grid(log_singular)
    step = max(1, _ABEL_SLICE // h.size)
    M = None
    for k0 in range(0, _ABEL_PANELS, step):
        parts = _parts(f, k[k0:k0 + step], h)
        if M is None:
            M = np.empty((len(parts), len(_ABEL_EPS), _ABEL_PANELS))
        M[:, :, k0:k0 + step] = np.vecdot(parts[:, None], damp_h[:, None])
    F = np.sum(M * damp_k, axis=2)
    return tuple(_abel_result(Fp, _ABEL_PANELS * h.size) for Fp in F)


# ---------------------------------------------------------------------------
# tagged integral forms and their oracle dispatch


@dataclass(frozen=True)
class IntegralSpec:
    """A tagged integral instance: which form, with a mapping of its parameters.

    Form tags: F1 decay binomial (alternating weight), F2 unit-interval log
    power, F3 decay with inner-log factor, F4 unit-interval log power times
    log t, F5 decay binomial (positive weight), F6 decay binomial (general
    weight), F7/F8 oscillatory sine family (cos/sin part), F9/F10 oscillatory
    cosine family (cos/sin part), F11 oscillatory sine family with log|sin|
    factor (params carry part "c" or "s"), F12 two-sided rational-exponential.
    The series forms F1-F6 read a, b, beta and alpha (or n) from params, the
    oscillatory forms a, w (or v), alpha and part, F12 b and beta.
    """

    form: str
    params: dict


# decay form -> the beta it fixes (None: F6 reads beta from its params); F3
# is F1's integrand times log(1 - e^-x)
_DECAY_BETA = {"F1": -1.0, "F3": -1.0, "F5": 1.0, "F6": None}
# oscillatory form -> the factor it raises to the power a ("log": sin, with log|sin|)
_TRIG_FORMS = {"F7": "sin", "F8": "sin", "F9": "cos", "F10": "cos", "F11": "log"}

# the open oracle memo: Abel integral key -> its parts
_MEMO: Optional[dict] = None


@contextlib.contextmanager
def oracle_memo():
    """Within the block, share each Abel integral.

    An oscillatory integral is evaluated once for both its parts; later
    calls read the memo. A block opened inside an open one shares that
    memo. The outermost block starts with an empty memo and drops it on
    exit, raise or not, so no value outlives it. Outside every block each
    call evaluates afresh.
    """
    global _MEMO
    outer, _MEMO = _MEMO, {} if _MEMO is None else _MEMO
    try:
        yield
    finally:
        _MEMO = outer


def _series_params(spec: IntegralSpec, want_beta: Optional[float]) -> SeriesParams:
    p = spec.params
    sp = SeriesParams(
        a=float(p["a"]),
        b=float(p["b"]),
        beta=float(p.get("beta", want_beta if want_beta is not None else -1.0)),
        alpha=float(p.get("alpha", p.get("n", 0))),
    )
    sp.validate()
    if want_beta is not None and sp.beta != want_beta:
        raise DomainError(f"form {spec.form} fixes beta={want_beta}")
    return sp


def _trig_integral(base: str, a: int, w: float, alpha: int, parts: Sequence[int] = (0, 1)) -> tuple:
    """The cos(wx) (0) and sin(wx) (1) parts, those named by parts, of one
    oscillatory integral: sin^a x (F7, F8), cos^a x (F9, F10) or sin^a x
    with log|sin x| and its winding (F11), times x^alpha. The parts share
    every other factor.

    Every factor but x^alpha splits into a per-panel column and a per-offset
    row (see abel_oscillatory): sin^a x = (-1)^(ka) cos^a h, cos^a x =
    (-1)^((k+1)a) sin^a h, log|sin x| = log cos h and the winding
    pi floor(x/pi) = k pi. cos(wx) and sin(wx) come by angle addition from
    the panel centre's cos/sin(w (k+1/2) pi) and the offset's cos/sin(wh).
    Folding the power's sign into the columns and its magnitude into the
    rows leaves outer products, x^alpha and sums on the node block.
    """

    def g(k, h):
        parity = 1 - 2 * (k % 2)  # (-1)^k
        sign = (-parity if base == "cos" else parity) ** a
        # w (k+1/2) reduced mod 2 before it is multiplied by pi: exact where w has few bits
        turn = np.pi * np.fmod(w * (k + 0.5), 2.0)
        cp, sp = sign * np.cos(turn), sign * np.sin(turn)
        power = (np.sin(h) if base == "cos" else np.cos(h)) ** a
        ch, sh = power * np.cos(w * h), power * np.sin(w * h)
        if base != "log":
            # the power times cos(wx) = cp ch - sp sh, times sin(wx) = sp ch + cp sh
            waves = (lambda: cp * ch - sp * sh, lambda: sp * ch + cp * sh)
        else:
            # the power times log|sin x| cos(wx) + k pi sin(wx), and log|sin x| sin(wx) - k pi cos(wx)
            logs, winding = np.log(np.cos(h)), k * np.pi
            lch, lsh, wcp, wsp = logs * ch, logs * sh, winding * cp, winding * sp
            waves = (lambda: cp * lch - sp * lsh + wsp * ch + wcp * sh,
                     lambda: sp * lch + cp * lsh - wcp * ch + wsp * sh)
        if alpha == 0:
            return tuple(waves[i]() for i in parts)
        xa = ((k + 0.5) * np.pi + h) ** alpha
        return tuple(xa * waves[i]() for i in parts)

    return abel_oscillatory(g, log_singular=base == "log")


def oracle_key(spec: IntegralSpec) -> Optional[tuple]:
    """The key (base, a, w, alpha) under which oracle_memo holds spec's
    evaluation, equal for the two parts of one oscillatory integral
    (F7-F11); None for the forms it does not hold."""
    if spec.form not in _TRIG_FORMS:
        return None
    p = spec.params
    need = "need integer a >= 1, finite frequency > 0, integer alpha >= 0"
    a, alpha = _whole(p["a"], 1, need), _whole(p.get("alpha", 0), 0, need)
    w = float(p.get("w", p.get("v", 0.0)))
    if not 0.0 < w < math.inf:
        raise DomainError(need)
    return _TRIG_FORMS[spec.form], a, w, alpha


def oracle_value(spec: IntegralSpec) -> EvalResult:
    """Evaluate the tagged integral by the appropriate independent route.

    Inside oracle_memo an oscillatory form (F7-F11) evaluates both parts
    of its integral in one grid pass and keeps the other part for the call
    that asks for it; outside, it evaluates its own part alone. An integrand past double
    range (a log power log(d)^n near an endpoint, say) raises DomainError,
    as the series routes do, and so does a required parameter left out.
    """
    try:
        return _oracle(spec)
    except OverflowError:  # from ** or math.exp inside an integrand
        raise DomainError("the integrand overflows double precision") from None
    except KeyError as exc:  # a required parameter left out of spec.params
        raise DomainError(f"integral form {spec.form} needs parameter {exc.args[0]!r}") from None


def _oracle(spec: IntegralSpec) -> EvalResult:
    form = spec.form
    if form in _DECAY_BETA:
        sp = _series_params(spec, _DECAY_BETA[form])
        a, b, beta, alpha = sp.a, sp.b, sp.beta, sp.alpha
        if alpha + a <= -1.0:
            raise DomainError("x^(alpha+a) not integrable at 0")
        with_log = form == "F3"

        def f_any(x: float) -> float:
            if beta == -1.0:
                base = -math.expm1(-x)
            else:
                base = 1.0 + beta * math.exp(-x)
            # log-space product: base**a alone can overflow for a < 0 even
            # though the x**alpha factor keeps the whole product finite
            log_base = math.log(base)
            s = -b * x + a * log_base
            if alpha != 0.0:
                s += alpha * math.log(x)
            out = math.exp(s) if s < 709.0 else math.inf
            if not with_log:
                return out
            # past x = ln 2, 1 - e^-x rounds off the digits of e^-x that
            # log(1 - e^-x) is made of; log1p keeps them
            return out * (log_base if x < _LN2 else math.log1p(-math.exp(-x)))

        res = integrate_decay(f_any, b)
        tail = _decay_tail(a, b, beta, alpha, with_log)
        return EvalResult(res.value, res.abs_error_bound + tail, res.terms_used, res.method)
    if form == "F2" or form == "F4":
        # the order first: _series_params would take a NaN or inf order for any non-finite parameter
        n = _whole(spec.params.get("alpha", spec.params.get("n", 0)), 0,
                   "log power n must be a non-negative integer")
        sp = _series_params(spec, -1.0)
        a, b = sp.a, sp.b
        if a <= -1.0 or b <= 0.0:
            raise DomainError("need a > -1 and b > 0 for endpoint integrability")
        with_logt = form == "F4"

        def f_left(d: float) -> float:
            out = d ** a * (1.0 - d) ** (b - 1.0) * math.log1p(-d) ** n
            return out * math.log(d) if with_logt else out

        def f_right(d: float) -> float:
            out = (1.0 - d) ** a * d ** (b - 1.0) * math.log(d) ** n
            return out * math.log1p(-d) if with_logt else out

        return integrate_unit(f_left, f_right=f_right)
    if form in _TRIG_FORMS:
        key = oracle_key(spec)
        part = str(spec.params.get("part", ""))
        if form == "F11" and part not in ("c", "s"):
            raise DomainError("F11 needs part 'c' or 's'")
        # F7/F9 are the cos parts, F8/F10 the sin parts
        i = int(part == "s" if form == "F11" else form in ("F8", "F10"))
        if _MEMO is None:
            # no call will ask for the other part
            got = _trig_integral(*key, parts=(i,))[0]
        else:
            if key not in _MEMO:
                _MEMO[key] = _trig_integral(*key)
            got = _MEMO[key][i]
        if isinstance(got, ExtrapolationError):
            raise ExtrapolationError(*got.args)
        return got
    if form == "F12":
        p = spec.params
        b = float(p["b"])
        beta = float(p.get("beta", 0.0))
        if not (0.0 < b < 1.0) or not (0.0 <= beta < 1.0):
            raise DomainError("need 0 < b < 1 and 0 <= beta < 1")

        def f12(x: float) -> float:
            if x < -700.0:
                # denominator ~ beta e^(-2x) swamps everything representable
                return 0.0
            u = math.exp(-x)
            den = (1.0 + u) * (1.0 + beta * u)
            return x * x * math.exp(-b * x) / den

        return integrate_two_sided(f12)
    raise DomainError(f"unsupported integral form tag {form!r}")


def two_sided_direct(b: float, beta: float, m: int) -> float:
    """The direct-quadrature side of the two-sided family at depth m (see
    identities.two_sided_family): the F12 integral at m = 0; at m = 1, b
    times it minus beta times the integral whose geometric factor is squared."""
    if m not in (0, 1):
        raise DomainError("only m in {0, 1} is supported")
    i1 = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
    if m == 0:
        return i1
    i2 = 0.0
    if beta > 0.0:

        def f_sq(x: float) -> float:
            # factored left form decays like x^2 e^((2-b)x), fine for b < 1
            if x < 0.0:
                g = math.exp(x)
                return x * x * math.exp((2.0 - b) * x) / ((1.0 + g) * (beta + g) ** 2)
            e = math.exp(-x)
            return x * x * math.exp(-(b + 1.0) * x) / ((1.0 + e) * (1.0 + beta * e) ** 2)

        i2 = integrate_two_sided(f_sq).value
    return b * i1 - beta * i2


# ---------------------------------------------------------------------------
# the inverse-factor series sum_j 1/(j (b+j)^n), summed directly

_U = 2.0 ** -53  # the unit roundoff (special_fn's _EPS rounds it down)
# B_2k/(2k) for k = 1..7: B_2k/(2k)! times the (2k-1)! of f^(2k-1)
_EM_B = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
         -691.0 / 32760.0, 1.0 / 12.0)


def inverse_factor_direct(b: float, n: int) -> EvalResult:
    """sum_{j>=1} 1/(j (b+j)^n) with a derived error bound, independent of
    the identity layer and of special_fn's Euler-Maclaurin code.

    With f(x) = 1/(x (b+x)^n), N = max(16, ceil(4b) + 16) and x0 = N + 1:
    * head: f(1) .. f(N) by math.fsum, which is correctly rounded;
    * tail: int_x0^inf f dx = (b+x0)^-n sum_k T^k/(n+k), T = b/(b+x0) < 1/5,
      a series of positive terms cut once its geometric remainder is below
      the roundoff, then f(x0)/2 and K = 6 Euler-Maclaurin corrections
      -B_2k/(2k)! f^(2k-1)(x0), each derivative by the Leibniz rule;
    * bound: f is completely monotone, so the Euler-Maclaurin remainder lies
      between 0 and the first omitted correction (DLMF 2.10(i)). To it add
      the cut series' remainder, (n+4) roundings of each head term, the
      roundoff of the tail, and 3 roundings of the value.
    It takes finite b > 0 and a positive integer n, the domain of
    ``identities.inverse_factor_sum`` (the series diverges at n <= 0), up
    to b = 1e5 (400 016 head terms) and n = 10^6.
    """
    n = _whole(n, 1, "order n must be a positive integer")
    # the head grows with b, and the corrections' binomials with n
    if not (0.0 < b <= 1e5 and n <= 10 ** 6):
        raise DomainError("need 0 < b <= 1e5 and n <= 10^6")
    N = max(16, math.ceil(4.0 * b) + 16)
    # b + j rounds once, which the power carries n-fold; pow is within one
    # ulp (two roundings) and the quotient rounds once: n + 3 roundings a
    # term, and n + 4 covers their second-order terms
    head = math.fsum((b + j) ** -n / j for j in range(1, N + 1))
    x0 = float(N + 1)
    bx = b + x0
    F0 = bx ** -n
    # 1/x = sum_k b^k/(b+x)^(k+1), so int_x0^inf f = F0 sum_k T^k/(n+k)
    T = b / bx
    series, tk, k = 0.0, 1.0, 0
    while True:
        series += tk / (n + k)
        tk *= T
        k += 1
        cut = tk / ((n + k) * (1.0 - T))  # >= the terms left out
        if cut <= _U * series / 16.0:
            break
    # Leibniz: f^(p)(x0) = (-1)^p p! x0^-(p+1) F0 P_p, where
    # P_p = sum_{q<=p} C(n+q-1, q) r^q and r = x0/(b+x0); the k-th correction
    # is then B_2k/(2k) x0^-2k F0 P_(2k-1), and the last is the first omitted
    r = x0 / bx
    P, rq, binom, ix2k = 0.0, 1.0, 1.0, 1.0
    corr = []
    for q in range(2 * len(_EM_B)):
        P += binom * rq
        rq *= r
        binom = binom * (n + q) / (q + 1)
        if q % 2:
            ix2k /= x0 * x0
            corr.append(_EM_B[q // 2] * ix2k * P)
    omitted = abs(corr.pop())
    half = 0.5 / x0
    tail = F0 * (series + half + math.fsum(corr))
    value = head + tail
    # roundoff inside the bracket: T and r carry 2 roundings and their q-th
    # powers 3q; a series term one more, and each addition one; a correction
    # at most 8 (2K+1) in all. F0 carries n + 2 and the product one more.
    inner = _U * ((4 * k + 6) * series + 3.0 * half
                  + 8 * (2 * len(corr) + 1) * math.fsum(abs(c) for c in corr))
    bound = (F0 * (omitted + cut + inner) + (n + 4) * _U * (head + tail)
             + 3.0 * _U * abs(value)
             # a term that underflows loses up to one subnormal unit a rounding
             + (n + 4) * (N + 50) * 2.0 ** -1074)
    return EvalResult(value=value, abs_error_bound=bound, terms_used=N, method="oracle")
