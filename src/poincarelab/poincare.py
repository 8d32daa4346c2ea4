"""Poincare functions: entire solutions of P(f(z)) = f(mu z) at a repelling
fixed point, evaluated everywhere by functional-equation pullback.

The local series f(z) = z0 + z + a2 z^2 + ... converges on a small disk; the
functional equation then extends f to the whole plane:

    f(z) = P^k( f(z / mu^k) ),   k = ceil( log(|z|/r0) / log|mu| ),

so the series is only ever evaluated where it is both certified and well
conditioned, and the escape dynamics of P do the rest.  Values grow like
exp(|z|^rho) with
rho = log 2 / log |mu|, which overflows doubles almost immediately; the
log-modulus path switches to tracking log|u| once iterates pass 1e100
(the dropped correction term is below 1e-98 per step, compounding to far
less than the 1e-6 contract over any realistic depth).

r0 caps the radius handed to the truncated series.  Two effects limit it:
the tail certificate (truncation) and the majorant sum |a_n| r^n
(cancellation, which eats eps * majorant in absolute error).  r0 takes the
smaller of the two bounds; see conditioning_radius.

poincare_eval and poincare_derivative_eval take a complex number or an array
of independent lanes.  Lanes are grouped by pullback depth and every lane is
computed by the same numpy operations whatever the array around it, so a
lane's value does not depend on the batch it was evaluated in.  An array call
marks a lane whose pullback overflows with NaN and leaves the other lanes
alone; a scalar call evaluates one lane and raises OverflowSentinel instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linearize import conjugacy_coeffs
from .dyncore import QuadMap, multiplier_at, order_from_multiplier, repelling_fixed_point
from .errors import BadParams, NotRepelling, OverflowSentinel
from .series import TruncatedSeries, log_bisect, make_series, series_derivative, series_eval

OVERFLOW_BOUND = 1e290
LOG_SWITCH = 1e100
CIRCLE_SAMPLES = 512
TWO_PI = 2.0 * math.pi
# Horner roundoff at radius r is ~eps * sum |a_n| r^n; keep that majorant small
# enough that base-level evaluations carry ~3e-12 absolute error before the
# pullback squarings amplify it.
EVAL_ROUNDOFF_TARGET = 3e-12


@dataclass(frozen=True)
class PoincareMap:
    map: QuadMap
    z0: complex
    mu: complex
    series_f: TruncatedSeries  # center 0, coeffs[0]=z0, coeffs[1]=1
    r0: float  # pullback base radius
    series_df: TruncatedSeries = field(repr=False)  # f', built once with the map


@dataclass(frozen=True)
class OrderEstimate:
    rho_hat: float
    samples: list  # (log r, log log M(r)) pairs actually used in the fit
    rho_formula: float
    residual: float


def poincare_coefficients(qmap: QuadMap, z0: complex, N: int) -> TruncatedSeries:
    """Series of f at a repelling fixed point z0: a0=z0, a1=1, and
    a_n = (sum_{i+j=n} a_i a_j)/(mu^n - mu) for the quadratic local form."""
    if N < 1:
        raise BadParams("N must be >= 1")
    if abs(qmap(z0) - z0) > 1e-9 * (1.0 + abs(z0)):
        raise BadParams(f"{z0} is not a fixed point of the map")
    mu = multiplier_at(qmap, z0)
    if abs(mu) <= 1.0:
        raise NotRepelling(f"|mu| = {abs(mu)} <= 1 at z0 = {z0}")
    local = np.array([0.0, mu, 1.0], dtype=complex)
    b = conjugacy_coeffs(local, N)
    coeffs = b.copy()
    coeffs[0] = z0
    return make_series(coeffs)


def _log_majorant(coeffs: np.ndarray, r: float) -> float:
    """log of sum |a_n| r^n, computed in log space so large r cannot overflow."""
    with np.errstate(divide="ignore"):
        t = np.log(np.abs(coeffs)) + np.arange(len(coeffs)) * math.log(r)
    m = float(np.max(t))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(t - m))))


def conditioning_radius(series: TruncatedSeries, scale: float) -> float:
    """Largest radius at which Horner evaluation of the series keeps its
    roundoff, eps * majorant(r), below EVAL_ROUNDOFF_TARGET * scale.

    The tail certificate bounds truncation error, not cancellation: the
    majorant can exceed |f| by many orders of magnitude well inside the
    certified radius once the series is long, and evaluation loses exactly
    those digits.  Monotone bisection in log r."""
    log_cap = math.log(EVAL_ROUNDOFF_TARGET * scale / np.finfo(float).eps)
    hi = series.safe_radius
    if _log_majorant(series.coeffs, hi) <= log_cap:
        return hi
    lo = hi * 1e-9
    if _log_majorant(series.coeffs, lo) > log_cap:
        return lo
    return log_bisect(lambda r: _log_majorant(series.coeffs, r) <= log_cap, lo, hi)


def build_poincare_map(qmap: QuadMap, z0: complex | None = None, N: int = 64) -> PoincareMap:
    """Construct the Poincare map at z0 (default: the distinguished repelling
    fixed point).

    r0 is half the certified series radius, further capped by the
    conditioning radius: pulling back one extra level costs a factor ~2 in
    error amplification but shrinks the series majorant by orders of
    magnitude, so depth is cheap and cancellation is not."""
    if z0 is None:
        z0, _ = repelling_fixed_point(qmap)
    series = poincare_coefficients(qmap, z0, N)
    mu = multiplier_at(qmap, z0)
    if not math.isfinite(series.safe_radius):
        raise BadParams("series certificate unexpectedly unbounded")
    r0 = min(0.5 * series.safe_radius,
             conditioning_radius(series, 1.0 + abs(z0)))
    return PoincareMap(map=qmap, z0=complex(z0), mu=complex(mu),
                       series_f=series, r0=r0, series_df=series_derivative(series))


def pullback_depth(pm: PoincareMap, abs_z: float) -> int:
    """Smallest k with |z|/|mu|^k <= r0 (ceiling, never floor)."""
    if abs_z <= pm.r0:
        return 0
    return max(0, math.ceil(math.log(abs_z / pm.r0) / math.log(abs(pm.mu))))


def pullback_depths(pm: PoincareMap, abs_z) -> np.ndarray:
    """pullback_depth of every element of an array of moduli, equal to the
    scalar function element by element.  Non-finite moduli get depth 0; the
    evaluators fail those lanes before using a depth."""
    a = np.asarray(abs_z, dtype=float)
    depth = np.zeros(a.shape, dtype=np.int64)
    outside = (a > pm.r0) & np.isfinite(a)
    x = np.log(a[outside] / pm.r0) / math.log(abs(pm.mu))
    k = np.ceil(x)
    # numpy's log can round one ulp away from math.log, which moves the
    # ceiling only when x sits within rounding of an integer: those few
    # moduli take the scalar path
    near = np.flatnonzero(np.abs(x - np.rint(x)) <= 1e-9 * np.maximum(1.0, x))
    k[near] = [pullback_depth(pm, v) for v in a[outside][near]]
    depth[outside] = k
    return depth


def _pullback(pm: PoincareMap, z: np.ndarray, depths: np.ndarray, derivative: bool):
    """(f, f', ok) on a 1-D array of lanes, each pulled back through its own
    depth; f' is None unless derivative.  A lane that is not finite, or
    whose iterate or derivative passes OVERFLOW_BOUND, gets ok False and NaN
    values."""
    f = np.full(z.shape, complex(math.nan, math.nan))
    df = f.copy() if derivative else None
    ok = np.zeros(z.shape, dtype=bool)
    live = np.isfinite(z)
    for k in np.unique(depths[live]):
        idx = np.flatnonzero(live & (depths == k))
        scale = pm.mu ** int(k)
        zk = z[idx] / scale
        u = series_eval(pm.series_f, zk)
        d = series_eval(pm.series_df, zk) / scale if derivative else None
        good = np.ones(idx.size, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k):
                if derivative:
                    d = pm.map.deriv(u) * d
                    good &= np.abs(d) <= OVERFLOW_BOUND
                u = pm.map(u)
                good &= np.abs(u) <= OVERFLOW_BOUND
        f[idx[good]] = u[good]
        if derivative:
            df[idx[good]] = d[good]
        ok[idx] = good
    return f, df, ok


def _lanes(pm: PoincareMap, z, depth: int | None, derivative: bool):
    """The lanes of z, flattened, evaluated at their own or a forced depth."""
    lanes = np.asarray(z, dtype=complex).reshape(-1)
    depths = pullback_depths(pm, np.abs(lanes))
    if depth is not None:
        if np.any(depths > int(depth)):
            raise BadParams("forced depth too small for |z|")
        depths = np.full_like(depths, int(depth))
    return _pullback(pm, lanes, depths, derivative)


def _one_lane(values, ok, z) -> complex:
    if not ok[0]:
        raise OverflowSentinel(
            f"pullback at z = {complex(z)} passed 1e290 (or z is not finite); "
            "use log_modulus_eval for growth queries"
        )
    return complex(values[0])


def poincare_eval(pm: PoincareMap, z, depth: int | None = None):
    """f(z) anywhere in the plane, for a complex z or an array of lanes.

    Each lane is pulled back through its own depth (normally chosen
    automatically; forcing a larger depth is allowed and must not change the
    value).  An array call returns one value per lane, NaN where the
    pullback overflowed; a scalar call raises OverflowSentinel there."""
    f, _, ok = _lanes(pm, z, depth, derivative=False)
    if np.ndim(z) == 0:
        return _one_lane(f, ok, z)
    return f.reshape(np.shape(z))


def poincare_eval_many(pm: PoincareMap, z: np.ndarray) -> np.ndarray:
    """Vector evaluation, grouping points by pullback depth; OverflowSentinel
    if any point overflows."""
    f, _, ok = _lanes(pm, z, None, derivative=False)
    if not np.all(ok):
        raise OverflowSentinel(
            "iterate exceeded 1e290; use log_modulus_eval for growth queries"
        )
    return f.reshape(np.shape(z))


def poincare_derivative_eval(pm: PoincareMap, z, depth: int | None = None):
    """f'(z) by the chain rule through the pullback, for a complex z or an
    array of lanes, with the lane rules of poincare_eval."""
    _, df, ok = _lanes(pm, z, depth, derivative=True)
    if np.ndim(z) == 0:
        return _one_lane(df, ok, z)
    return df.reshape(np.shape(z))


def _circle(pm: PoincareMap, r: float, n: int):
    theta = np.arange(n) * (TWO_PI / n)
    return r * np.exp(1j * theta)


def eval_on_circle(pm: PoincareMap, r: float, n: int = CIRCLE_SAMPLES):
    """(z, f(z), f'(z)) on |z|=r, all at the circle's common pullback depth."""
    z = _circle(pm, r, n)
    depths = np.full(z.shape, pullback_depth(pm, r))
    f, df, ok = _pullback(pm, z, depths, derivative=True)
    if not np.all(ok):
        raise OverflowSentinel("circle evaluation exceeded 1e290")
    return z, f, df


def log_modulus_circle(pm: PoincareMap, r: float, n: int = CIRCLE_SAMPLES) -> np.ndarray:
    """log|f| on |z|=r with the overflow-safe doubling path."""
    z = _circle(pm, r, n)
    k = pullback_depth(pm, r)
    u = np.asarray(series_eval(pm.series_f, z / pm.mu**k), dtype=complex)
    with np.errstate(divide="ignore"):
        logmod = np.log(np.abs(u))
    live = np.abs(u) <= LOG_SWITCH
    for _ in range(k):
        logmod[~live] *= 2.0
        ul = pm.map(u[live])
        u[live] = ul
        with np.errstate(divide="ignore"):
            logmod[live] = np.log(np.abs(ul))
        newly_big = live.copy()
        newly_big[live] = np.abs(ul) > LOG_SWITCH
        live &= ~newly_big
    return logmod


def log_modulus_eval(pm: PoincareMap, z: complex) -> float:
    """log|f(z)|, accurate to 1e-6 whenever |f(z)| > 1; never overflows.

    Past |u| = 1e100 the iteration tracks L = log|u| and doubles it, which
    drops a correction smaller than |param|/|u| <= 1e-98 per step.
    """
    k = pullback_depth(pm, abs(z))
    u = complex(series_eval(pm.series_f, complex(z) / pm.mu**k))
    L = math.log(abs(u)) if u != 0 else -math.inf
    live = abs(u) <= LOG_SWITCH
    for _ in range(k):
        if live:
            u = pm.map(u)
            L = math.log(abs(u)) if u != 0 else -math.inf
            if abs(u) > LOG_SWITCH:
                live = False
        else:
            L *= 2.0
    return L


def functional_equation_residual(pm: PoincareMap, z: complex) -> float:
    """|P(f(z)) - f(mu z)| / (1 + |f(mu z)|) at one point."""
    fz = poincare_eval(pm, z)
    fmz = poincare_eval(pm, pm.mu * z)
    return abs(pm.map(fz) - fmz) / (1.0 + abs(fmz))


def check_functional_equation(pm: PoincareMap, radii=None, n: int = 256):
    """Residuals of P(f(z)) = f(mu z) on test circles.

    Returns (max pointwise relative residual, max absolute residual,
    sup |f| over the circles' images).
    """
    if radii is None:
        radii = [0.5 * pm.r0, 5.0 * pm.r0, 50.0 * pm.r0]
    worst_rel = 0.0
    worst_abs = 0.0
    sup_f = 0.0
    for r in radii:
        z = _circle(pm, r, n)
        fz = poincare_eval_many(pm, z)
        fmz = poincare_eval_many(pm, pm.mu * z)
        resid = np.abs(pm.map(fz) - fmz)
        worst_rel = max(worst_rel, float(np.max(resid / (1.0 + np.abs(fmz)))))
        worst_abs = max(worst_abs, float(np.max(resid)))
        sup_f = max(sup_f, float(np.max(np.abs(fmz))))
    return worst_rel, worst_abs, sup_f


def order_estimate(pm: PoincareMap, k_max: int) -> OrderEstimate:
    """Least-squares slope of log log M(r) against log r on geometric radii
    r = |mu|^k r0, k = 5..k_max (the first five radii are transient and are
    not sampled). M(r) is the max over 512 circle points of |f|."""
    if k_max < 10:
        raise BadParams("k_max must be >= 10")
    abs_mu = abs(pm.mu)
    logs = []
    for k in range(5, k_max + 1):
        r = abs_mu**k * pm.r0
        log_m = float(np.max(log_modulus_circle(pm, r)))
        if log_m <= 0.0:
            continue
        logs.append((math.log(r), math.log(log_m)))
    if len(logs) < 4:
        raise BadParams("too few usable radii for an order fit")
    x = np.array([p[0] for p in logs])
    y = np.array([p[1] for p in logs])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return OrderEstimate(
        rho_hat=float(slope),
        samples=logs,
        rho_formula=order_from_multiplier(pm.mu),
        residual=residual,
    )
