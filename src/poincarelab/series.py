"""Truncated power series about 0 with estimated safe-evaluation radii.

A TruncatedSeries is a coefficient list plus a disk on which evaluating the
truncation is estimated to be within TAIL_EPS of the underlying function.
The tail "certificate" is an empirical geometric majorant, not a proof: it
is built from the observable part of the tail, taking the last nonzero
coefficient a_M and assuming that the unseen tail obeys
|a_{M+j}| <= |a_M| * q**j with

    q = max( largest of the last 8 stepwise coefficient ratios,
             root-test growth rate over the last quarter of coefficients ),

and the radius solves  T(r) = |a_M| * r**M * q*r / (1 - q*r) = TAIL_EPS  by
bisection in log r (T increases with r).  Nothing bounds the unseen
coefficients, so a series whose tail grows faster than the observed rate
breaks the bound.  Siegel series have irregular ratios (small divisors),
which is why the root test is folded in.

The radius is +inf only for a degenerate list: a constant, or one of at
least 16 coefficients whose top half is identically zero; and for the
derivative of a series of radius +inf, since it too is a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutOfSafeRadius
from .serialize import json_text

TAIL_EPS = 1e-16
_RADIUS_SLACK = 1.0 + 1e-12  # evaluation boundary tolerance
_HORNER_BLOCK = 1 << 15  # lanes per in-place Horner block (512 KB, stays in L2)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients about 0 and the radius inside which evaluation is
    trusted: safe_radius comes from the empirical geometric majorant of the
    module docstring (an estimate, not a proof)."""

    coeffs: np.ndarray  # coeffs[n] multiplies z**n
    safe_radius: float

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise BadParams("series needs at least one coefficient")


def root_test_rate(a: np.ndarray, nz: np.ndarray) -> float:
    """Root-test growth rate max |a_k|^{1/k} over the last quarter of the
    nonzero support: a holds the moduli |a_k|, nz the indices where they are
    nonzero, ending at the top degree M >= 1; 1/rate estimates the radius of
    convergence."""
    M = int(nz[-1])
    ks = nz[nz >= max(1, (3 * M) // 4)]
    return float(np.max(a[ks] ** (1.0 / ks)))


def _safe_radius(coeffs: np.ndarray, eps: float) -> float:
    """The radius at which the tail majorant of the module docstring
    reaches eps; +inf for a degenerate list."""
    a = np.abs(np.asarray(coeffs, dtype=complex))
    n = len(a)
    nz = np.flatnonzero(a > 0.0)
    if len(nz) == 0 or nz[-1] == 0:
        # constant (or zero): nothing past degree 0, evaluate anywhere
        return math.inf
    M = int(nz[-1])
    if n >= 16 and M < n // 2:
        # top half identically zero: the list is a polynomial
        return math.inf

    # stepwise ratios between consecutive nonzero coefficients (last 8)
    support = nz[nz >= 1]
    step_rates = [(a[j] / a[i]) ** (1.0 / (j - i))
                  for i, j in zip(support[:-1], support[1:])][-8:]
    q = max(max(step_rates, default=0.0), root_test_rate(a, nz))
    if q == 0.0:
        return math.inf

    log_am = math.log(a[M])
    log_eps = math.log(eps)

    def log_tail_minus_eps(r):
        return log_am + M * math.log(r) + math.log(q * r) - math.log1p(-q * r) - log_eps

    hi = (1.0 - 1e-12) / q
    if log_tail_minus_eps(hi) <= 0.0:
        # tail below eps on the whole majorant disk (a_M far below trend)
        return hi
    lo_r = hi * 1e-12
    # widen downward until the tail is below eps at the left end
    while log_tail_minus_eps(lo_r) > 0.0 and lo_r > 1e-280:
        lo_r *= 1e-12
    if log_tail_minus_eps(lo_r) > 0.0:
        return lo_r  # pathological growth; only a token disk is certified
    return log_bisect(lambda r: log_tail_minus_eps(r) <= 0.0, lo_r, hi)


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


def make_series(coeffs) -> TruncatedSeries:
    """Build a TruncatedSeries with a safe radius from the empirical tail
    majorant (an estimate, not a proof)."""
    arr = np.array(coeffs, dtype=complex)
    return TruncatedSeries(arr, _safe_radius(arr, TAIL_EPS))


def series_eval(s: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of an array of lanes, an array of z's shape.
    Refuses points outside the safe disk, whose radius is the empirical
    tail estimate (not a proof that the truncation error stays below
    TAIL_EPS)."""
    x = np.asarray(z, dtype=complex)
    bad = np.abs(x) > s.safe_radius * _RADIUS_SLACK
    if np.any(bad):
        raise OutOfSafeRadius(
            f"|z| = {float(np.max(np.abs(x[bad]))):.6g} exceeds safe radius {s.safe_radius:.6g}"
        )
    return horner_unchecked(s.coeffs, x)


def horner_unchecked(coeffs: np.ndarray, dz):
    """Raw Horner; no radius policing.

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
    """The term-by-term derivative.  A series of radius +inf is a
    polynomial, and so is its derivative: it keeps +inf, which the shorter
    list alone need not earn (a padded polynomial can lose its zero top
    half)."""
    n = len(s.coeffs)
    if n == 1:
        d = np.zeros(1, dtype=complex)
    else:
        d = s.coeffs[1:] * np.arange(1, n)
    if s.safe_radius == math.inf:
        return TruncatedSeries(d, math.inf)
    return make_series(d)


def series_to_json(s: TruncatedSeries, provenance: dict | None = None) -> str:
    """The series as JSON.  Every series is about 0 with tail TAIL_EPS; the
    "center" and "tail_eps" fields keep the file format of the series
    records written before."""
    return json_text({
        "center": 0j,
        "coeffs": [complex(c) for c in s.coeffs],
        "safe_radius": s.safe_radius,
        "tail_eps": TAIL_EPS,
        "provenance": provenance or {},
    })
