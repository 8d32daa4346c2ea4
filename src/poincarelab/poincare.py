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

Evaluation uses only the working heads of f and f', cut once when the map
is built: the shortest prefix whose dropped tail, as the majorant
sum_{n>D} |a_n| r0^n, is at most HEAD_TAIL_TARGET (1 + |z0|).  Every lane
reaches the series at |z / mu^k| <= r0, so the rest of the 65 coefficients
of the default N = 64 adds nothing above roundoff there: f keeps 28 of them
for c = -2 and 37 for the golden map, f' keeps 27 and 36.  Each head's safe
radius is r0, so series_eval still refuses a lane past the disk on which
its tail was measured; series_f stays whole for the series file and the
tail certificate.  On a 2-vCPU Xeon the traced Horner self time of the
pullback benchmark fell from 0.059 to 0.031 s, and batched evaluation went
from 7.4 to 10.7 million points/s; of 2^21 cloud lanes over four seeds, 7
changed, by at most 2.3e-12 relative; old and new values alike lie within
1.2e-12 relative of a long-double evaluation.

poincare_eval evaluates one point and raises OverflowSentinel where its
pullback overflows.  The array calls group their lanes by pullback depth,
evaluate the series of f (and of f') once over the scaled lanes of every
depth, and run each group's map steps; every lane is computed by the same
numpy operations whatever the array around it, so its value does not depend
on its batch.  poincare_eval_many raises OverflowSentinel if any lane
overflows; poincare_derivative_eval gives the pair (f, f') from one
pullback, NaN in the lanes that overflow, for Newton solvers.

An array call of more than series._HORNER_BLOCK (2^15) lanes runs them in
blocks of that many, each through its own depths and pullback, into
preallocated outputs: a block's complex temporaries take 512 KB each and
stay in a 2 MB L2, where whole-array passes over 2^18 lanes stream 4 MB
arrays from memory.  Since a lane's value does not depend on its batch,
blocks keep every bit.  Timed on a 2-vCPU Xeon (two 2^18-lane clouds and a
512 x 512 domain coloring, median of 7), blocks of 2^12 .. 2^18 lanes took
246, 206, 197, 197, 213, 268 and 304 ms, with traced peaks of 4.9, 5.2,
6.0, 7.3, 12.8, 24.9 and 42.7 MB; 2^14 and 2^15 tie, so the Horner block
is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series as _series
from ._linearize import conjugacy_coeffs
from .dyncore import QuadMap, order_from_multiplier, repelling_fixed_point
from .errors import BadParams, NotRepelling, OverflowSentinel
from .series import TruncatedSeries, log_bisect, make_series, series_derivative, series_eval

OVERFLOW_BOUND = 1e290
LOG_SWITCH = 1e100
CIRCLE_SAMPLES = 512
# Horner roundoff at radius r is ~eps * sum |a_n| r^n; keep that majorant small
# enough that base-level evaluations carry ~3e-12 absolute error before the
# pullback squarings amplify it.
EVAL_ROUNDOFF_TARGET = 3e-12
# A working head drops the tail whose majorant sum_{n>D} |a_n| r0^n is at
# most this times 1 + |z0|: about eps/20, below one rounding of f(0) = z0.
HEAD_TAIL_TARGET = 1e-17


@dataclass(frozen=True)
class PoincareMap:
    map: QuadMap
    z0: complex
    mu: complex
    series_f: TruncatedSeries  # center 0, coeffs[0]=z0, coeffs[1]=1
    r0: float  # pullback base radius
    # the working heads of f and f' (see _working_head), of safe radius r0:
    # the only series that evaluation uses
    head_f: TruncatedSeries = field(repr=False)
    head_df: TruncatedSeries = field(repr=False)


@dataclass(frozen=True)
class OrderEstimate:
    rho_hat: float
    samples: list  # (log r, log log M(r)) pairs actually used in the fit
    rho_formula: float
    residual: float


def poincare_coefficients(qmap: QuadMap, z0: complex, N: int) -> TruncatedSeries:
    """Series of f at a repelling fixed point z0: a0=z0, a1=1, and
    a_n = (sum_{i+j=n} a_i a_j)/(mu^n - mu) for the quadratic local form.

    The safe radius comes from the coefficients up to the last nonzero one:
    past it they have underflowed to 0 (past n = 88 for c = -2), which
    make_series would read as a polynomial of infinite radius.  The list
    itself is kept whole."""
    if N < 1:
        raise BadParams("N must be >= 1")
    if abs(qmap(z0) - z0) > 1e-9 * (1.0 + abs(z0)):
        raise BadParams(f"{z0} is not a fixed point of the map")
    mu = complex(qmap.deriv(z0))
    if abs(mu) <= 1.0:
        raise NotRepelling(f"|mu| = {abs(mu)} <= 1 at z0 = {z0}")
    coeffs = conjugacy_coeffs([mu], N)
    coeffs[0] = z0
    top = int(np.flatnonzero(coeffs)[-1])
    return TruncatedSeries(coeffs, make_series(coeffs[:top + 1]).safe_radius)


def _log_terms(coeffs: np.ndarray, r: float) -> np.ndarray:
    """log |a_n| r^n for every n (-inf where a_n = 0), so large r cannot
    overflow."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(coeffs)) + np.arange(len(coeffs)) * math.log(r)


def _log_majorant(coeffs: np.ndarray, r: float) -> float:
    """log of sum |a_n| r^n, computed in log space so large r cannot overflow."""
    t = _log_terms(coeffs, r)
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


def _working_head(series: TruncatedSeries, r0: float, scale: float) -> TruncatedSeries:
    """The shortest prefix a_0 .. a_D of the series whose dropped tail, as
    the majorant sum_{n>D} |a_n| r0^n, is at most HEAD_TAIL_TARGET * scale;
    its safe radius is r0, so series_eval refuses any lane past the disk on
    which the dropped tail was measured."""
    a = series.coeffs
    t = np.exp(_log_terms(a, r0))
    # tail[D] = sum_{n>D} t_n, summed from the top down
    tail = np.append(np.cumsum(t[:0:-1])[::-1], 0.0)
    degree = int(np.argmax(tail <= HEAD_TAIL_TARGET * scale))
    return TruncatedSeries(a[:degree + 1], r0)


def build_poincare_map(qmap: QuadMap, N: int = 64) -> PoincareMap:
    """The Poincare map at the distinguished repelling fixed point z0.

    r0 is half the certified series radius, further capped by the
    conditioning radius: pulling back one extra level costs a factor ~2 in
    error amplification but shrinks the series majorant by orders of
    magnitude, so depth is cheap and cancellation is not.  The working
    heads of f and f' are cut once here, at r0."""
    z0, mu = repelling_fixed_point(qmap)
    series = poincare_coefficients(qmap, z0, N)
    if not math.isfinite(series.safe_radius):
        raise BadParams("series certificate unexpectedly unbounded")
    scale = 1.0 + abs(z0)
    r0 = min(0.5 * series.safe_radius, conditioning_radius(series, scale))
    return PoincareMap(map=qmap, z0=complex(z0), mu=complex(mu), series_f=series, r0=r0,
                       head_f=_working_head(series, r0, scale),
                       head_df=_working_head(series_derivative(series), r0, scale))


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
    values.

    The finite lanes are gathered depth by depth, and each depth-k group's
    z / mu^k is written into its slice of one buffer, so the working head of
    f (and of f') is evaluated once over all depths; each group then runs
    its k map steps on its own slice of the values."""
    f = np.full(z.shape, complex(math.nan, math.nan))
    df = f.copy() if derivative else None
    ok = np.zeros(z.shape, dtype=bool)
    live = np.isfinite(z)
    zk = np.empty(np.count_nonzero(live), dtype=complex)
    groups, lo = [], 0
    # the depths present, ascending (np.unique would hash them)
    for k in np.flatnonzero(np.bincount(depths[live])):
        idx = np.flatnonzero(live & (depths == k))
        scale, part = pm.mu ** int(k), slice(lo, lo + idx.size)
        np.divide(z[idx], scale, out=zk[part])
        groups.append((k, idx, scale, part))
        lo = part.stop
    u_all = series_eval(pm.head_f, zk)
    d_all = series_eval(pm.head_df, zk) if derivative else None
    del zk  # free before the map steps allocate theirs
    for k, idx, scale, part in groups:
        u = u_all[part]
        d = d_all[part] / scale if derivative else None
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


def _lanes(pm: PoincareMap, z, derivative: bool):
    """The lanes of z, flattened, each evaluated at its own depth, one block
    of _HORNER_BLOCK lanes at a time into preallocated (f, f', ok)."""
    lanes = np.asarray(z, dtype=complex).reshape(-1)
    block = _series._HORNER_BLOCK
    if lanes.size <= block:
        return _pullback(pm, lanes, pullback_depths(pm, np.abs(lanes)), derivative)
    f = np.empty(lanes.shape, dtype=complex)
    df = np.empty_like(f) if derivative else None
    ok = np.empty(lanes.shape, dtype=bool)
    for lo in range(0, lanes.size, block):
        part = slice(lo, lo + block)
        zb = lanes[part]
        f[part], db, ok[part] = _pullback(pm, zb, pullback_depths(pm, np.abs(zb)), derivative)
        if derivative:
            df[part] = db
    return f, df, ok


def poincare_eval(pm: PoincareMap, z: complex) -> complex:
    """f(z) at one point anywhere in the plane, pulled back through its own
    depth as a one-lane array; OverflowSentinel where the pullback
    overflows."""
    f, _, ok = _lanes(pm, np.array([complex(z)]), derivative=False)
    if not ok[0]:
        raise OverflowSentinel(f"pullback at z = {complex(z)} passed 1e290 (or z is not finite)")
    return complex(f[0])


def poincare_eval_many(pm: PoincareMap, z: np.ndarray) -> np.ndarray:
    """Vector evaluation, grouping points by pullback depth; OverflowSentinel
    if any point overflows."""
    f, _, ok = _lanes(pm, z, derivative=False)
    if not np.all(ok):
        raise OverflowSentinel("iterate exceeded 1e290")
    return f.reshape(np.shape(z))


def poincare_derivative_eval(pm: PoincareMap, z: np.ndarray):
    """The pair (f(z), f'(z)) on an array of lanes from one pullback, f' by
    the chain rule, each array of z's shape.  A lane whose iterate or
    derivative overflows gets NaN for both.  Empirically f alone decides:
    along rays of the golden and z^2 - 2 maps, |f'| is 40 to 1000 times
    below |f| where |f| reaches OVERFLOW_BOUND."""
    f, df, _ = _lanes(pm, z, derivative=True)
    return f.reshape(np.shape(z)), df.reshape(np.shape(z))


def _circle(r: float, n: int):
    theta = np.arange(n) * (math.tau / n)
    return r * np.exp(1j * theta)


def eval_on_circle(pm: PoincareMap, r: float, n: int = CIRCLE_SAMPLES):
    """(z, f(z), f'(z)) on |z|=r, all at the circle's common pullback depth."""
    z = _circle(r, n)
    depths = np.full(z.shape, pullback_depth(pm, r))
    f, df, ok = _pullback(pm, z, depths, derivative=True)
    if not np.all(ok):
        raise OverflowSentinel("circle evaluation exceeded 1e290")
    return z, f, df


def _log_modulus(pm: PoincareMap, z: np.ndarray, k: int) -> np.ndarray:
    """log|f| on an array of lanes, all pulled back through depth k; never
    overflows.

    Past |u| = 1e100 a lane tracks L = log|u| and doubles it, which drops a
    correction smaller than |param|/|u| <= 1e-98 per step.
    """
    u = series_eval(pm.head_f, z / pm.mu**k)
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


def log_modulus_circle(pm: PoincareMap, r: float, n: int = CIRCLE_SAMPLES) -> np.ndarray:
    """log|f| on |z|=r with the overflow-safe doubling path."""
    return _log_modulus(pm, _circle(r, n), pullback_depth(pm, r))


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
        z = _circle(r, n)
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
