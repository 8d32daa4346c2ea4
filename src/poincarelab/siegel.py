"""Siegel linearization h(lambda z) = P(h(z)) and the sub-Siegel disk.

The linearizer is computed by the small-divisor coefficient recursion, its
radius of convergence is estimated two ways (root test on the coefficients,
largest circle where the conjugacy residual stays small), and the disk
W = h(D_{R_hat/2}) supplies the sampled points that every downstream
experiment consumes.  On W the map acts as a rigid rotation in linearizing
coordinates, which is what makes the inverse iterates P^{-k} computable:
P^{-k}(w) = h(lambda^{-k} h^{-1}(w)).

One builder, build_cycle_siegel_map, makes every linearizer: the same
recursion, run along the chain of the q quadratic steps of a Siegel cycle,
linearizes the q-fold composition at one cycle point.  A fixed point is the
period-1 cycle: build_siegel_map runs that builder on the cycle {0} of
w -> lam*w + w^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._linearize import conjugacy_coeffs
from .dyncore import QuadMap, cycle_through, newton_lanes
from .errors import BadParams, NoConvergence, OutOfDomain
from .series import (
    TruncatedSeries,
    horner_unchecked,
    make_series,
    root_test_rate,
    series_derivative,
)

H_INV_NEWTON_ITERS = 50
RESIDUAL_SCAN_THRESHOLD = 1e-8
SUB_FRACTION = 0.5  # W = h(D_{SUB_FRACTION * R_hat})


@dataclass(frozen=True)
class RotationAngle:
    """An irrational rotation number gamma in (0,1); from_cf takes the
    continued-fraction expansion [0; t1, t2, ...]."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise BadParams(f"gamma = {self.gamma} outside (0,1)")

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.gamma)

    @classmethod
    def golden(cls) -> "RotationAngle":
        return cls(gamma=(math.sqrt(5.0) - 1.0) / 2.0)

    @classmethod
    def from_cf(cls, terms) -> "RotationAngle":
        terms = tuple(int(t) for t in terms)
        if not terms or any(t < 1 for t in terms):
            raise BadParams("cf terms must be positive integers")
        x = 0.0
        for t in reversed(terms):
            x = 1.0 / (t + x)
        return cls(gamma=x)


@dataclass(frozen=True)
class SiegelRadiusEstimate:
    value: float
    root_estimate: float
    residual_estimate: float
    inconclusive: bool


@dataclass(frozen=True)
class SiegelMap:
    """A solved linearization: series_h conjugates the (period-fold) map to
    the rotation by lam, its multiplier at center_value.  Built only by
    build_cycle_siegel_map, which sets every field."""

    angle: RotationAngle
    map: QuadMap
    series_h: TruncatedSeries  # coeffs[0]=0, coeffs[1]=1, recentred
    radius_hat: float
    lam: complex
    center_value: complex
    period: int
    radius_info: SiegelRadiusEstimate
    conj_residual: float  # on the sub-disk's boundary, 256 angles
    series_dh: TruncatedSeries = field(repr=False)
    sub_fraction: ClassVar[float] = SUB_FRACTION


def _power(qmap: QuadMap, q: int):
    """The q-fold composition of qmap, as a function of z."""
    def forward(z):
        for _ in range(q):
            z = qmap(z)
        return z
    return forward


# lanes on circles past the first failure may overflow; their rows read inf
@np.errstate(over="ignore", invalid="ignore")
def _circle_residuals(series, center, lam, forward, radii, n_angles=128) -> np.ndarray:
    """Worst relative conjugacy residual |F(h(z)) - h(lam z)| / (1+|h(lam z)|)
    on each circle |z| = r of the array radii, n_angles points each; inf on a
    circle where some residual is not finite.  All circles share two Horner
    calls."""
    theta = np.arange(n_angles) * (math.tau / n_angles)
    z = np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta)
    h = center + horner_unchecked(series.coeffs, z)
    lhs = forward(h)
    rhs = center + horner_unchecked(series.coeffs, lam * z)
    rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    return np.where(np.all(np.isfinite(rel), axis=1), np.max(rel, axis=1), math.inf)


def siegel_radius_estimate(
    h: TruncatedSeries,
    forward,
    lam: complex,
    center: complex,
) -> SiegelRadiusEstimate:
    """Convergence-radius estimate for a linearizer series centred at center,
    which conjugates the map given by the forward callable to the rotation
    by lam.

    Root-test estimate 1/limsup|b_n|^{1/n} over the last quarter of the
    coefficients, cross-checked against the largest circle where the
    conjugacy residual stays below 1e-8: 48 geometric radii from 0.05 to
    1.5 times the root-test radius are evaluated together (128 angles each),
    and the scan keeps the circles before the first one that fails or has a
    non-finite residual. Disagreement beyond a factor 2 is flagged
    inconclusive and the smaller estimate is returned.
    """
    coeffs = np.asarray(h.coeffs, dtype=complex)
    if len(coeffs) < 64 + 1:
        raise BadParams("radius estimate needs at least 64 coefficients")
    a = np.abs(coeffs)
    nz = np.flatnonzero(a > 0.0)
    if len(nz) == 0 or nz[-1] < 2:
        return SiegelRadiusEstimate(math.inf, math.inf, math.inf, False)
    root_est = 1.0 / root_test_rate(a, nz)
    radii = root_est * np.geomspace(0.05, 1.5, 48)
    # the scan ends at the first circle that fails (inf fails too)
    fails = np.flatnonzero(~(_circle_residuals(h, center, lam, forward, radii)
                             < RESIDUAL_SCAN_THRESHOLD))
    passed = fails[0] - 1 if fails.size else len(radii) - 1
    resid_est = float(radii[passed]) if passed >= 0 else 0.0
    if resid_est == 0.0:
        return SiegelRadiusEstimate(0.0, root_est, 0.0, True)
    value = min(root_est, resid_est)
    ratio = max(root_est, resid_est) / value
    return SiegelRadiusEstimate(value, root_est, resid_est, ratio > 2.0)


def check_linearizer_terms(N: int) -> None:
    """BadParams for N < 64 terms, which the radius estimate cannot use."""
    if N < 64:
        raise BadParams(f"the Siegel linearizer needs at least 64 terms (got {N})")


def build_cycle_siegel_map(
    qmap: QuadMap,
    cycle,
    angle: RotationAngle,
    N: int = 64,
) -> SiegelMap:
    """Linearize the q-fold composition at the first point of a Siegel
    cycle, as the chain of the q quadratic steps along the cycle.  lam is
    the cycle's multiplier, the product of the steps' slopes in cycle order.
    BadParams for N < 64 terms, which the radius estimate cannot use, before
    any coefficient is computed; ResonantAngle at a divisor below 1e-14."""
    check_linearizer_terms(N)
    lam = complex(cycle.multiplier)
    if abs(abs(lam) - 1.0) > 1e-6:
        raise BadParams(f"cycle multiplier |{lam}| = {abs(lam)} is not on the unit circle")
    series = make_series(conjugacy_coeffs([qmap.deriv(p) for p in cycle.points], N))
    zeta = complex(cycle.points[0])
    forward = _power(qmap, cycle.period)
    est = siegel_radius_estimate(series, forward, lam, zeta)
    if not est.value > 0.0 or not math.isfinite(est.value):
        raise NoConvergence("could not certify a positive linearization radius")
    resid = _circle_residuals(series, zeta, lam, forward, [SUB_FRACTION * est.value],
                              n_angles=256)
    return SiegelMap(angle=angle, map=qmap, series_h=series, radius_hat=est.value,
                     lam=lam, center_value=zeta, period=cycle.period, radius_info=est,
                     conj_residual=float(resid[0]), series_dh=series_derivative(series))


def build_siegel_map(angle: RotationAngle, N: int = 64) -> SiegelMap:
    """Solve the linearization of w -> lam*w + w^2 at the origin, the
    period-1 cycle of build_cycle_siegel_map, doubling N on demand (up to
    512) until the conjugacy holds to 1e-10 on the sub-disk."""
    qmap = QuadMap.lambda_form(angle.lam)
    cycle = cycle_through(qmap, 0j, 1)
    while True:
        sm = build_cycle_siegel_map(qmap, cycle, angle, N)
        if not (sm.conj_residual > 1e-10 and N < 512):
            return sm
        N *= 2


def h_eval(sm: SiegelMap, z):
    """h(z) for |z| <= sub_fraction * radius_hat.

    The sub-disk is the domain contract here; quality on it is certified by
    the stored conjugacy residual, not by the series tail certificate (whose
    radius can sit below the sub-disk when late coefficients spike).
    """
    bound = sm.sub_fraction * sm.radius_hat * (1.0 + 1e-9)
    if np.any(np.abs(np.asarray(z)) > bound):
        raise OutOfDomain("argument outside the sub-Siegel preimage disk")
    return sm.center_value + horner_unchecked(sm.series_h.coeffs, z)


# an overflowing lane fails alone and raises OutOfDomain; warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def h_inverse_many(sm: SiegelMap, w) -> np.ndarray:
    """h^{-1} for an array of points, by dyncore.newton_lanes on every lane
    at once, each seeded at w - center pulled into D_{0.95 R_hat}; each
    evaluation gives h and h' from the two stored series.

    OutOfDomain when some lane fails within H_INV_NEWTON_ITERS steps, or
    settles outside the sub-Siegel disk: from inside the disk every lane
    settles well within that budget."""
    w = np.asarray(w, dtype=complex)
    seed = w - sm.center_value
    cap = 0.95 * sm.radius_hat
    big = np.abs(seed) > cap
    seed[big] *= cap / np.abs(seed[big])
    u, ok, _, _ = newton_lanes(
        lambda u: (sm.center_value + horner_unchecked(sm.series_h.coeffs, u),
                   horner_unchecked(sm.series_dh.coeffs, u)),
        w, seed, H_INV_NEWTON_ITERS)
    if not np.all(ok):
        raise OutOfDomain(f"Newton for h^-1 did not settle for {np.count_nonzero(~ok)} points")
    bound = sm.sub_fraction * sm.radius_hat
    worst = float(np.max(np.abs(u), initial=0.0))
    if worst > bound * (1.0 + 1e-6):
        raise OutOfDomain(
            f"|h^-1(w)| = {worst:.6g} outside the sub-Siegel disk (bound {bound:.6g})"
        )
    return u


def h_inverse(sm: SiegelMap, w: complex) -> complex:
    """Linearizing coordinate of w (one lane of h_inverse_many); OutOfDomain
    when w is not in h(D_{R/2})."""
    return complex(h_inverse_many(sm, [w])[0])


def p_inverse_many(sm: SiegelMap, w, ks) -> np.ndarray:
    """P^{-k}(w) for every w (rows) and every k in ks (columns), staying in W.

    Computed as h(rot^{-k} h^{-1}(w)) where rot is the rotation by the
    linearized angle, so h^{-1} is solved once per w whatever the number of
    k; for a period-q cycle one application of the conjugated map is the
    q-fold composition of the quadratic.  OutOfDomain when some w is not in
    h(D_{R/2}).
    """
    ks = [int(k) for k in ks]
    if any(k < 0 for k in ks):
        raise BadParams("k must be >= 0")
    u = h_inverse_many(sm, np.asarray(w, dtype=complex).reshape(-1))
    phase = cmath.phase(sm.lam)
    rot = np.array([cmath.exp(-1j * math.fmod(phase * k, math.tau)) if k else 1.0
                    for k in ks], dtype=complex)
    return sm.center_value + horner_unchecked(sm.series_h.coeffs, u[:, None] * rot)


def p_inverse_on_disk(sm: SiegelMap, w: complex, k: int) -> complex:
    """The k-th inverse iterate of w under the conjugated map, staying in W
    (one entry of p_inverse_many)."""
    return complex(p_inverse_many(sm, [w], [k])[0, 0])


def sub_siegel_sample(sm: SiegelMap, count: int, seed: int) -> np.ndarray:
    """Deterministic sample of W: h(u) with u uniform on D_{sub_fraction*R_hat}.

    Uniformity in the linearizing coordinate is this artifact's stand-in
    measure for 'almost every w in W'.
    """
    if count < 1:
        raise BadParams("count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**63 - 1)))
    radii = sm.sub_fraction * sm.radius_hat * np.sqrt(rng.random(count))
    angles = math.tau * rng.random(count)
    u = radii * np.exp(1j * angles)
    return sm.center_value + horner_unchecked(sm.series_h.coeffs, u)


def conjugacy_residual(sm: SiegelMap, r: float, n_angles: int = 256) -> float:
    """Max pointwise relative residual |F(h(z)) - h(lam z)| / (1+|h(lam z)|) on |z|=r."""
    return float(_circle_residuals(
        sm.series_h, sm.center_value, sm.lam, _power(sm.map, sm.period), [r], n_angles
    )[0])
