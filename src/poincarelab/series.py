"""Truncated power series with estimated safe-evaluation radii.

A TruncatedSeries is a coefficient list plus a disk on which evaluating the
truncation is estimated to be within tail_eps of the underlying function.
The tail "certificate" is an empirical geometric majorant, not a proof: it
is built from the observable part of the tail, taking the last nonzero
coefficient a_M and assuming that the unseen tail obeys
|a_{M+j}| <= |a_M| * q**j with

    q = max( largest of the last 8 stepwise coefficient ratios,
             root-test growth rate over the last quarter of coefficients ),

and the radius solves  T(r) = |a_M| * r**M * q*r / (1 - q*r) = tail_eps  by
bisection in log r (T increases with r).  Nothing bounds the unseen
coefficients, so a series whose tail grows faster than the observed rate
breaks the bound.  Siegel series have irregular ratios (small divisors),
which is why the root test is folded in; when some observed ratio exceeds 1
the certificate carries irregular=True.

Exact polynomials are a separate regime: their tail is genuinely zero, so
construction with exact=True (and the degenerate top-half-zero detection in
safe_radius_estimate) yields the +inf sentinel instead of a certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NotInvertible, OutOfSafeRadius
from .serialize import json_text

DEFAULT_TAIL_EPS = 1e-16
_RADIUS_SLACK = 1.0 + 1e-12  # evaluation boundary tolerance
_HORNER_BLOCK = 1 << 15  # lanes per in-place Horner block (512 KB, stays in L2)


@dataclass(frozen=True)
class RadiusCertificate:
    """Result of a tail-bound analysis on a coefficient list."""

    safe_radius: float
    root_radius: float
    ratio: float  # geometric majorant rate q (0 when degenerate)
    degenerate: bool  # tail identically zero (polynomial)
    irregular: bool  # some of the last-8 ratios exceed 1


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients about `center` and the radius inside which evaluation is
    trusted: safe_radius comes from the empirical geometric majorant of the
    module docstring (an estimate, not a proof), or is +inf for an exact
    polynomial."""

    center: complex
    coeffs: np.ndarray  # coeffs[n] multiplies (z - center)**n
    safe_radius: float
    tail_eps: float

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise BadParams("series needs at least one coefficient")

    def __call__(self, z):
        return series_eval(self, z)


def root_test_rate(a: np.ndarray, nz: np.ndarray) -> float:
    """Root-test growth rate max |a_k|^{1/k} over the last quarter of the
    nonzero support: a holds the moduli |a_k|, nz the indices where they are
    nonzero, ending at the top degree M >= 1; 1/rate estimates the radius of
    convergence."""
    M = int(nz[-1])
    ks = nz[nz >= max(1, (3 * M) // 4)]
    return float(np.max(a[ks] ** (1.0 / ks)))


def _certificate(coeffs: np.ndarray, eps: float) -> RadiusCertificate:
    a = np.abs(np.asarray(coeffs, dtype=complex))
    n = len(a)
    nz = np.flatnonzero(a > 0.0)
    if len(nz) == 0 or nz[-1] == 0:
        # constant (or zero): nothing past degree 0, evaluate anywhere
        return RadiusCertificate(math.inf, math.inf, 0.0, True, False)
    M = int(nz[-1])
    if n >= 16 and M < n // 2:
        # top half identically zero: treat as an exact polynomial
        return RadiusCertificate(math.inf, math.inf, 0.0, True, False)

    root_rate = root_test_rate(a, nz)
    root_radius = math.inf if root_rate == 0.0 else 1.0 / root_rate

    # stepwise ratios between consecutive nonzero coefficients (last 8)
    support = nz[nz >= 1]
    step_rates = []
    for i, j in zip(support[:-1], support[1:]):
        step_rates.append((a[j] / a[i]) ** (1.0 / (j - i)))
    step_rates = step_rates[-8:]
    ratio_rate = max(step_rates) if step_rates else 0.0
    irregular = any(rate > 1.0 for rate in step_rates)

    q = max(ratio_rate, root_rate)
    if q == 0.0:
        return RadiusCertificate(math.inf, root_radius, 0.0, True, False)

    log_am = math.log(a[M])
    log_eps = math.log(eps)

    def log_tail_minus_eps(r):
        return log_am + M * math.log(r) + math.log(q * r) - math.log1p(-q * r) - log_eps

    hi = (1.0 - 1e-12) / q
    if log_tail_minus_eps(hi) <= 0.0:
        # tail below eps on the whole majorant disk (a_M far below trend)
        safe = hi
    else:
        lo_r = hi * 1e-12
        # widen downward until the tail is below eps at the left end
        while log_tail_minus_eps(lo_r) > 0.0 and lo_r > 1e-280:
            lo_r *= 1e-12
        if log_tail_minus_eps(lo_r) > 0.0:
            safe = lo_r  # pathological growth; only a token disk is certified
        else:
            safe = log_bisect(lambda r: log_tail_minus_eps(r) <= 0.0, lo_r, hi)
    return RadiusCertificate(safe, root_radius, float(q), False, irregular)


def log_bisect(holds, lo: float, hi: float) -> float:
    """Largest radius in [lo, hi], to within 2^-80 of log(hi/lo) in log r,
    at which the monotone predicate `holds` is still true.

    `holds(lo)` must be true; the radius returned always satisfies it, so a
    bound found this way errs on the safe side."""
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(80):
        mid = 0.5 * (llo + lhi)
        if holds(math.exp(mid)):
            llo = mid
        else:
            lhi = mid
    return math.exp(llo)


def make_series(
    coeffs,
    center: complex = 0.0,
    tail_eps: float = DEFAULT_TAIL_EPS,
    exact: bool = False,
) -> TruncatedSeries:
    """Build a TruncatedSeries with a safe radius from the empirical tail
    majorant (an estimate, not a proof), unless exact=True.

    exact=True declares the coefficient list to BE the function (a
    polynomial), so evaluation is allowed everywhere.
    """
    arr = np.array(coeffs, dtype=complex)
    if exact:
        return TruncatedSeries(complex(center), arr, math.inf, float(tail_eps))
    cert = _certificate(arr, tail_eps)
    return TruncatedSeries(complex(center), arr, cert.safe_radius, float(tail_eps))


def safe_radius_estimate(coeffs, eps: float) -> RadiusCertificate:
    """Tail "certificate" for a coefficient list (needs >= 16 coefficients).

    safe_radius solves |a_M| r^M (q r)/(1-q r) = eps for the majorant rate q
    described in the module docstring; the majorant is fitted to the observed
    coefficients, so the radius is an empirical estimate, not a proof.
    root_radius is 1/max |a_k|^{1/k} over the last quarter. A zero tail (top
    half of the list identically zero) returns the +inf sentinel with
    degenerate=True.
    """
    if len(coeffs) < 16:
        raise BadParams("safe_radius_estimate needs at least 16 coefficients")
    if eps <= 0:
        raise BadParams("eps must be positive")
    return _certificate(np.asarray(coeffs, dtype=complex), eps)


def series_eval(s: TruncatedSeries, z):
    """Horner evaluation; z may be scalar or ndarray. Refuses points outside
    the safe disk, whose radius is the empirical tail estimate (not a proof
    that the truncation error stays below tail_eps)."""
    dz = np.asarray(z, dtype=complex) - s.center
    if s.safe_radius != math.inf:
        bad = np.abs(dz) > s.safe_radius * _RADIUS_SLACK
        if np.any(bad):
            worst = float(np.max(np.abs(dz)))
            raise OutOfSafeRadius(
                f"|z - center| = {worst:.6g} exceeds safe radius {s.safe_radius:.6g}"
            )
    val = horner_unchecked(s.coeffs, dz)
    if np.ndim(z) == 0:
        return complex(val)
    return val


def horner_unchecked(coeffs: np.ndarray, dz):
    """Raw Horner on already-shifted arguments; no radius policing.

    Internal diagnostics (radius scans) need values outside the certified
    disk; ordinary callers should use series_eval.

    The lanes of dz are evaluated in place, _HORNER_BLOCK of the flattened
    lanes at a time, so each block stays in cache across all the
    coefficients; the result has the shape of dz.  Each lane gets exactly
    the bits of the out-of-place loop `val = val * dz + a` over the whole
    array, with one exception that the code steers around: numpy rounds an
    in-place complex multiply of a single element differently from a longer
    one, so an input of one lane, and a final block of one lane, take that
    out-of-place loop.  A lane of an array therefore gets the same bits
    whatever array it is evaluated in, a 1-element array included.  A 0-d
    input (a Python complex or a numpy scalar) is not such a lane: it goes
    through numpy's scalar arithmetic, which can round differently in the
    last bits, so a caller that wants a point's batched bits passes it as a
    1-element array."""
    lanes = np.asarray(dz, dtype=complex)
    if lanes.size <= 1:
        return _horner_out_of_place(coeffs, dz)
    x = lanes.reshape(-1)
    out = np.empty_like(x)
    for lo in range(0, x.size, _HORNER_BLOCK):
        hi = min(lo + _HORNER_BLOCK, x.size)
        if hi - lo == 1:
            out[lo:hi] = _horner_out_of_place(coeffs, x[lo:hi])
            continue
        v, xb = out[lo:hi], x[lo:hi]
        v[:] = 0.0
        for a in coeffs[::-1]:
            np.multiply(v, xb, out=v)
            np.add(v, a, out=v)
    return out.reshape(lanes.shape)


def _horner_out_of_place(coeffs: np.ndarray, dz):
    """Out-of-place Horner, for inputs and final blocks of one lane.  dz is
    used as given: a numpy scalar goes through numpy's scalar arithmetic,
    as it always has, an array through the array loop."""
    val = np.zeros_like(np.asarray(dz, dtype=complex))
    for a in coeffs[::-1]:
        val = val * dz + a
    return val


def series_derivative(s: TruncatedSeries) -> TruncatedSeries:
    n = len(s.coeffs)
    if n == 1:
        d = np.zeros(1, dtype=complex)
    else:
        d = s.coeffs[1:] * np.arange(1, n)
    exact = s.safe_radius == math.inf
    return make_series(d, center=s.center, tail_eps=s.tail_eps, exact=exact)


def _trunc_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a, b)[:n]


def _trunc_compose(outer: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """outer(inner(w)) truncated to n coefficients; inner[0] must be 0."""
    out = np.zeros(n, dtype=complex)
    out[0] = outer[-1]
    for k in range(len(outer) - 2, -1, -1):
        out = _trunc_mul(out, inner[:n], n)
        out[0] += outer[k]
    return out


def series_reversion(s: TruncatedSeries, terms: int) -> TruncatedSeries:
    """Compositional inverse t with s(t(w)) = w + O(w^{terms+1}).

    Requires coeffs[0] = 0 and coeffs[1] != 0 (relative to the center: s
    maps its center to 0). Newton iteration on the composition doubles the
    attained degree each pass. The result is centered at 0 and satisfies
    t(0) = s.center.
    """
    a = np.asarray(s.coeffs, dtype=complex)
    if abs(a[0]) > 1e-14:
        raise BadParams("reversion needs a series with zero constant term")
    if len(a) < 2 or a[1] == 0:
        raise NotInvertible("reversion needs a nonzero linear coefficient")
    if terms < 1:
        raise BadParams("terms must be >= 1")

    n = terms + 1
    da = a[1:] * np.arange(1, len(a))  # s'
    t = np.zeros(2, dtype=complex)
    t[1] = 1.0 / a[1]
    deg = 1
    while deg < terms:
        deg = min(2 * deg, terms)
        m = deg + 1
        tt = np.zeros(m, dtype=complex)
        tt[: len(t)] = t[:m]
        comp = _trunc_compose(a, tt, m)  # s(t)
        comp[1] -= 1.0  # s(t) - id
        dcomp = _trunc_compose(da, tt, m)  # s'(t)
        # invert s'(t): leading term a1 != 0
        inv = np.zeros(m, dtype=complex)
        inv[0] = 1.0 / dcomp[0]
        for k in range(1, m):
            inv[k] = -inv[0] * np.dot(dcomp[1 : k + 1], inv[k - 1 :: -1][: k])
        t = tt - _trunc_mul(comp, inv, m)
    t = t[:n]
    coeffs = t.copy()
    coeffs[0] = s.center
    return make_series(coeffs, center=0.0, tail_eps=s.tail_eps,
                       exact=s.safe_radius == math.inf)


def series_to_json(s: TruncatedSeries, provenance: dict | None = None) -> str:
    return json_text({
        "center": complex(s.center),
        "coeffs": [complex(c) for c in s.coeffs],
        "safe_radius": s.safe_radius,
        "tail_eps": s.tail_eps,
        "provenance": provenance or {},
    })


def series_from_json(text: str) -> tuple[TruncatedSeries, dict]:
    doc = json.loads(text)
    center = complex(doc["center"][0], doc["center"][1])
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]], dtype=complex)
    s = TruncatedSeries(center, coeffs, float(doc["safe_radius"]), float(doc["tail_eps"]))
    return s, doc.get("provenance", {})
