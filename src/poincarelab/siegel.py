"""Siegel linearization h(lambda z) = P(h(z)) and the sub-Siegel disk.

The linearizer is computed by the small-divisor coefficient recursion, its
radius of convergence is estimated two ways (root test on the coefficients,
largest circle where the conjugacy residual stays small), and the disk
W = h(D_{R_hat/2}) supplies the sampled points that every downstream
experiment consumes.  On W the map acts as a rigid rotation in linearizing
coordinates, which is what makes the inverse iterates P^{-k} computable:
P^{-k}(w) = h(lambda^{-k} h^{-1}(w)).

For the parameter-family work the same recursion is applied to the q-fold
composition at one cycle point (its local Taylor polynomial is composed
numerically), giving a periodic Siegel disk's linearizer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._linearize import conjugacy_coeffs
from .dyncore import QuadMap
from .errors import BadParams, NoConvergence, OutOfDomain
from .series import (
    TruncatedSeries,
    horner_unchecked,
    make_series,
    series_derivative,
)

TWO_PI = 2.0 * math.pi
H_INV_NEWTON_ITERS = 50
H_INV_TOL = 1e-12
RESIDUAL_SCAN_THRESHOLD = 1e-8


@dataclass(frozen=True)
class RotationAngle:
    """An irrational rotation number gamma in (0,1), optionally with its
    continued-fraction expansion [0; t1, t2, ...]."""

    gamma: float
    cf_terms: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise BadParams(f"gamma = {self.gamma} outside (0,1)")

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * self.gamma)

    @classmethod
    def golden(cls) -> "RotationAngle":
        return cls(gamma=(math.sqrt(5.0) - 1.0) / 2.0, cf_terms=(1,) * 40)

    @classmethod
    def from_cf(cls, terms) -> "RotationAngle":
        terms = tuple(int(t) for t in terms)
        if not terms or any(t < 1 for t in terms):
            raise BadParams("cf terms must be positive integers")
        x = 0.0
        for t in reversed(terms):
            x = 1.0 / (t + x)
        return cls(gamma=x, cf_terms=terms)


@dataclass(frozen=True)
class SiegelRadiusEstimate:
    value: float
    root_estimate: float
    residual_estimate: float
    inconclusive: bool


@dataclass(frozen=True)
class SiegelMap:
    """A solved linearization: series_h conjugates the (period-fold) map to
    the rotation by angle.lam around center_value."""

    angle: RotationAngle
    map: QuadMap
    series_h: TruncatedSeries  # coeffs[0]=0, coeffs[1]=1, recentred
    radius_hat: float
    sub_fraction: float = 0.5
    center_value: complex = 0j
    period: int = 1
    radius_info: SiegelRadiusEstimate | None = None
    conj_residual: float = 0.0
    series_dh: TruncatedSeries = field(default=None, repr=False)

    def forward(self, z):
        """Apply the conjugated map (the period-fold composition) once."""
        w = z
        for _ in range(self.period):
            w = self.map(w)
        return w

    @property
    def series_lambda(self) -> complex:
        if self.period == 1 and self.map.kind == "lambda":
            return self.map.param
        # multiplier of the q-fold map at the cycle point
        d = 1.0 + 0.0j
        w = self.center_value
        for _ in range(self.period):
            d *= self.map.deriv(w)
            w = self.map(w)
        return d


def siegel_coefficients(qmap: QuadMap, N: int) -> TruncatedSeries:
    """Linearizer coefficients for a lambda-form map at the origin.

    b1 = 1 and b_n = (sum_{i+j=n} b_i b_j)/(lambda^n - lambda); raises
    ResonantAngle at the first divisor below 1e-14 (rational-like angles).
    """
    if qmap.kind != "lambda":
        raise BadParams("siegel_coefficients expects a lambda-form map")
    lam = qmap.param
    if abs(abs(lam) - 1.0) > 1e-12:
        raise BadParams("lambda must lie on the unit circle")
    if N < 1:
        raise BadParams("N must be >= 1")
    b = conjugacy_coeffs(np.array([0.0, lam, 1.0], dtype=complex), N)
    return make_series(b)


def _residual_on_circle(series, center, lam, forward, r, n_angles=128):
    theta = np.arange(n_angles) * (TWO_PI / n_angles)
    z = r * np.exp(1j * theta)
    h = center + horner_unchecked(series.coeffs, z)
    lhs = forward(h)
    rhs = center + horner_unchecked(series.coeffs, lam * z)
    denom = 1.0 + np.abs(rhs)
    with np.errstate(invalid="ignore"):
        rel = np.abs(lhs - rhs) / denom
    if not np.all(np.isfinite(rel)):
        return math.inf
    return float(np.max(rel))


def siegel_radius_estimate(
    h: TruncatedSeries,
    forward=None,
    lam: complex | None = None,
    center: complex = 0j,
) -> SiegelRadiusEstimate:
    """Convergence-radius estimate for a linearizer series.

    Root-test estimate 1/limsup|b_n|^{1/n} over the last quarter of the
    coefficients; when the conjugated map is supplied (forward callable plus
    its rotation number lam), cross-checked against the largest circle where
    the conjugacy residual stays below 1e-8. Disagreement beyond a factor 2
    is flagged inconclusive and the smaller estimate is returned.
    """
    coeffs = np.asarray(h.coeffs, dtype=complex)
    if len(coeffs) < 64 + 1:
        raise BadParams("radius estimate needs at least 64 coefficients")
    a = np.abs(coeffs)
    nz = np.flatnonzero(a > 0.0)
    nz = nz[nz >= 1]
    M = int(nz[-1]) if len(nz) else 0
    lo = max(1, (3 * M) // 4)
    ks = nz[nz >= lo]
    if M < 2 or len(ks) == 0:
        return SiegelRadiusEstimate(math.inf, math.inf, math.inf, False)
    root_est = float(1.0 / np.max(a[ks] ** (1.0 / ks)))

    if forward is None or lam is None:
        return SiegelRadiusEstimate(root_est, root_est, math.nan, False)

    radii = root_est * np.geomspace(0.05, 1.5, 48)
    passed = -1
    for i, r in enumerate(radii):
        if _residual_on_circle(h, center, lam, forward, r) < RESIDUAL_SCAN_THRESHOLD:
            passed = i
        else:
            break
    resid_est = float(radii[passed]) if passed >= 0 else 0.0
    if resid_est == 0.0:
        return SiegelRadiusEstimate(0.0, root_est, 0.0, True)
    value = min(root_est, resid_est)
    ratio = max(root_est, resid_est) / value
    return SiegelRadiusEstimate(value, root_est, resid_est, ratio > 2.0)


def _assemble(angle, qmap, series, center, period, sub_fraction, forward, lam):
    est = siegel_radius_estimate(series, forward=forward, lam=lam, center=center)
    if not est.value > 0.0 or not math.isfinite(est.value):
        raise NoConvergence("could not certify a positive linearization radius")
    resid = _residual_on_circle(
        series, center, lam, forward, sub_fraction * est.value, n_angles=256
    )
    return SiegelMap(
        angle=angle,
        map=qmap,
        series_h=series,
        radius_hat=est.value,
        sub_fraction=sub_fraction,
        center_value=center,
        period=period,
        radius_info=est,
        conj_residual=resid,
        series_dh=series_derivative(series),
    )


def build_siegel_map(angle: RotationAngle, N: int = 64, sub_fraction: float = 0.5) -> SiegelMap:
    """Solve the linearization of w -> lam*w + w^2 at the origin."""
    if not 0.0 < sub_fraction < 1.0:
        raise BadParams("sub_fraction must lie in (0,1)")
    qmap = QuadMap.lambda_form(angle.lam)
    n = N
    while True:
        series = siegel_coefficients(qmap, n)
        est = siegel_radius_estimate(series, forward=qmap, lam=angle.lam, center=0j)
        # double on demand until the conjugacy holds to 1e-10 on the sub-disk
        resid = _residual_on_circle(
            series, 0j, angle.lam, qmap, sub_fraction * est.value, n_angles=256
        )
        if resid > 1e-10 and n < 512:
            n *= 2
            continue
        break
    return _assemble(angle, qmap, series, 0j, 1, sub_fraction, qmap, angle.lam)


def cycle_local_poly(qmap: QuadMap, zeta: complex, q: int) -> np.ndarray:
    """Taylor coefficients of P^q(zeta+u) - zeta in u, by polynomial composition."""
    if qmap.kind != "c":
        raise BadParams("cycle linearization implemented for c-form maps")
    c = qmap.param
    p = np.array([zeta, 1.0], dtype=complex)
    for _ in range(q):
        p = np.convolve(p, p)
        p[0] += c
    if abs(p[0] - zeta) > 1e-8 * (1.0 + abs(zeta)):
        raise BadParams(f"point {zeta} is not period-{q} (residual {abs(p[0]-zeta):.2e})")
    p[0] = 0.0
    return p


def build_cycle_siegel_map(
    qmap: QuadMap,
    cycle,
    angle: RotationAngle,
    N: int = 64,
    sub_fraction: float = 0.5,
) -> SiegelMap:
    """Linearize the q-fold composition at one point of a Siegel cycle."""
    zeta = complex(cycle.points[0])
    q = int(cycle.period)
    local = cycle_local_poly(qmap, zeta, q)
    lam = complex(local[1])
    if abs(abs(lam) - 1.0) > 1e-6:
        raise BadParams(f"cycle multiplier |{lam}| = {abs(lam)} is not on the unit circle")
    b = conjugacy_coeffs(local, N)
    series = make_series(b)

    def forward(z):
        w = z
        for _ in range(q):
            w = qmap(w)
        return w

    return _assemble(angle, qmap, series, zeta, q, sub_fraction, forward, lam)


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


def _newton_h(sm: SiegelMap, w: complex, u0: complex, iters=H_INV_NEWTON_ITERS):
    target = w - sm.center_value
    clamp = 1.2 * sm.radius_hat
    u = u0
    for _ in range(iters):
        g = complex(horner_unchecked(sm.series_h.coeffs, u)) - target
        if abs(g) < H_INV_TOL * (1.0 + abs(w)):
            return u
        dg = complex(horner_unchecked(sm.series_dh.coeffs, u))
        if abs(dg) < 1e-14:
            return None
        u = u - g / dg
        au = abs(u)
        if au > clamp:
            u *= clamp / au
    return None


def h_inverse(sm: SiegelMap, w: complex) -> complex:
    """Linearizing coordinate of w; OutOfDomain when w is not in h(D_{R/2})."""
    target = w - sm.center_value
    seed = target
    cap = 0.95 * sm.radius_hat
    if abs(seed) > cap:
        seed *= cap / abs(seed)
    u = _newton_h(sm, w, seed)
    if u is None:
        # continuation along the segment from the center
        u = 0j
        ok = True
        for t in np.linspace(0.1, 1.0, 10):
            u = _newton_h(sm, sm.center_value + t * target, u)
            if u is None:
                ok = False
                break
        if not ok:
            raise OutOfDomain("Newton for h^{-1} failed to converge")
    if abs(u) > sm.sub_fraction * sm.radius_hat * (1.0 + 1e-6):
        raise OutOfDomain(
            f"|h^-1(w)| = {abs(u):.6g} outside the sub-Siegel disk "
            f"(bound {sm.sub_fraction * sm.radius_hat:.6g})"
        )
    return u


def h_inverse_many(sm: SiegelMap, w: np.ndarray) -> np.ndarray:
    """Vectorized h_inverse for a batch of points (scalar fallback per miss)."""
    w = np.asarray(w, dtype=complex)
    target = w - sm.center_value
    u = target.copy()
    cap = 0.95 * sm.radius_hat
    big = np.abs(u) > cap
    u[big] *= cap / np.abs(u[big])
    live = np.ones(len(w), dtype=bool)
    for _ in range(H_INV_NEWTON_ITERS):
        if not np.any(live):
            break
        ul = u[live]
        g = horner_unchecked(sm.series_h.coeffs, ul) - target[live]
        done = np.abs(g) < H_INV_TOL * (1.0 + np.abs(w[live]))
        dg = horner_unchecked(sm.series_dh.coeffs, ul)
        step = np.where(done | (np.abs(dg) < 1e-14), 0.0, g / np.where(dg == 0, 1.0, dg))
        un = ul - step
        au = np.abs(un)
        clamp = 1.2 * sm.radius_hat
        over = au > clamp
        un[over] *= clamp / au[over]
        u[live] = un
        idx = np.flatnonzero(live)
        live[idx[done]] = False
    for i in np.flatnonzero(live):
        u[i] = h_inverse(sm, complex(w[i]))
    bound = sm.sub_fraction * sm.radius_hat * (1.0 + 1e-6)
    if np.any(np.abs(u) > bound):
        raise OutOfDomain("a batch point fell outside the sub-Siegel disk")
    return u


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
    phase = cmath.phase(sm.series_lambda)
    rot = np.array([cmath.exp(-1j * math.fmod(phase * k, TWO_PI)) if k else 1.0
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
    angles = TWO_PI * rng.random(count)
    u = radii * np.exp(1j * angles)
    return sm.center_value + horner_unchecked(sm.series_h.coeffs, u)


def conjugacy_residual(sm: SiegelMap, r: float, n_angles: int = 256) -> float:
    """Max pointwise relative residual |F(h(z)) - h(lam z)| / (1+|h(lam z)|) on |z|=r."""
    return _residual_on_circle(
        sm.series_h, sm.center_value, sm.series_lambda, sm.forward, r, n_angles
    )
