"""Spherical-derivative integrals of polynomials over the unit disk.

For P of degree n the quantity of interest is

    I(P) = Int_D  2 |P'(z)| / (1 + |P(z)|^2)  dx dy,

which Cauchy-Schwarz bounds by 2 pi sqrt(n) and which is conjectured (and
here measured) to grow like n^{1/2 - alpha} on iterate families z -> z^2 + c.
The integrand has sharp ridges along the preimages of the unit circle, so the
quadrature is adaptive: polar cells, area-weighted midpoint values, one
Richardson level per cell, and subdivision wherever the two disagree by more
than the cell's share of the tolerance.

Iterates are never expanded into coefficients; P^n and its derivative are
computed by forward iteration with the chain rule.  Lanes whose orbit passes
1e50 in modulus are frozen with derivative zero: from that point on the true
spherical derivative is below 1e-40, far under any tolerance used here.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParams, InsufficientData

EVAL_BUDGET = 100_000_000
ESCAPE_BOUND = 1e50
_MAX_LEVELS = 48
_MC_SEED = 0x5EED
_MC_PER_CELL = 32
_MC_BLOCK = 1 << 14  # cells sampled per fallback batch (bounds memory)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolyEvaluator:
    """Polynomial with derivative, vectorized over complex arrays."""

    degree: int
    label: str
    fn: Callable  # ndarray -> (values, derivatives)

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    error_bound: float
    evaluations: int
    degree: int
    budget_exceeded: bool = False


@dataclass(frozen=True)
class ExponentFit:
    pairs: list  # (log degree, log value), sorted by degree
    slope: float
    alpha_hat: float  # 1/2 - slope
    residual: float


def monomial_evaluator(n: int) -> PolyEvaluator:
    if n < 1:
        raise BadParams("monomial exponent must be >= 1")

    def fn(z):
        return z**n, n * z ** (n - 1)

    return PolyEvaluator(degree=n, label=f"z^{n}", fn=fn)


def coeff_evaluator(coeffs) -> PolyEvaluator:
    c = np.asarray(coeffs, dtype=complex)
    if len(c) < 2:
        raise BadParams("need at least a linear polynomial")
    dc = c[1:] * np.arange(1, len(c))

    def fn(z):
        v = np.full(z.shape, c[-1], dtype=complex)
        for a in c[-2::-1]:
            v = v * z + a
        d = np.full(z.shape, dc[-1], dtype=complex)
        for a in dc[-2::-1]:
            d = d * z + a
        return v, d

    return PolyEvaluator(degree=len(c) - 1, label="coeff-poly", fn=fn)


def iterate_evaluator(c: complex, n: int) -> PolyEvaluator:
    """The n-th iterate of z^2 + c (degree 2^n), with escape freezing."""
    if n < 1:
        raise BadParams("iterate count must be >= 1")
    c = complex(c)

    def fn(z):
        w = z.copy()
        d = np.ones_like(z)
        live = np.ones(z.shape, dtype=bool)
        for _ in range(n):
            d[live] *= 2.0 * w[live]
            w[live] = w[live] ** 2 + c
            escaped = live & (np.abs(w) > ESCAPE_BOUND)
            d[escaped] = 0.0
            live &= ~escaped
        return w, d

    return PolyEvaluator(degree=2**n, label=f"iterate(c={c}, n={n})", fn=fn)


def spherical_derivative(ev: PolyEvaluator, z: complex) -> float:
    v, d = ev(np.array([z], dtype=complex))
    return float(2.0 * np.abs(d[0]) / (1.0 + np.abs(v[0]) ** 2))


def _sph_many(ev: PolyEvaluator, z: np.ndarray, threads: int = 1) -> np.ndarray:
    if threads > 1 and z.size > 1 << 14:
        chunks = np.array_split(z, threads)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda zz: _sph_many(ev, zz), chunks))
        return np.concatenate(parts)
    v, d = ev(z)
    return 2.0 * np.abs(d) / (1.0 + np.abs(v) ** 2)


def _cell_mids(r0, r1, t0, t1):
    rm = 0.5 * (r0 + r1)
    tm = 0.5 * (t0 + t1)
    return rm * np.exp(1j * tm)


def _cell_area(r0, r1, t0, t1):
    return 0.5 * (r1**2 - r0**2) * (t1 - t0)


def _seed_radial_edges(ev: PolyEvaluator, degree: int):
    """Root-mesh radial edges graded toward the |P| = 1 ridge.

    P^# concentrates where |P| is near 1, in bands of radial width ~1/degree
    that midpoint probes on a uniform 8-band mesh can miss entirely once the
    degree is large.  Scan |P| on 32 rays x 512 radii, collect the radii where
    |P| crosses 1, and lay a geometric ladder of edges (spacing doubling away
    from the crossing, innermost gap ~1/(4 degree)) around each crossing and,
    unconditionally, inward from r = 1 where the equator of the target sphere
    meets the closed disk for any polynomial normalized on it.

    Returns (edges, evaluations spent on the scan).
    """
    base = np.linspace(0.0, 1.0, 9)
    w = max(1.0 / (4.0 * max(int(degree), 1)), 1e-6)
    ladder = w * 2.0 ** np.arange(0, 12)
    ladder = ladder[ladder <= 0.26]

    scan_r = np.linspace(1.0 / 512.0, 1.0, 512)
    scan_t = np.arange(32) * (TWO_PI / 32.0)
    grid = scan_r[:, None] * np.exp(1j * scan_t[None, :])
    v, _ = ev(grid.ravel())
    mag = np.abs(v).reshape(grid.shape) - 1.0
    sign_flip = mag[:-1, :] * mag[1:, :] < 0.0
    cross = 0.5 * (scan_r[:-1, None] + scan_r[1:, None])
    crossings = np.unique(cross[np.nonzero(sign_flip)[0], 0])
    if crossings.size > 256:
        crossings = crossings[:: crossings.size // 256 + 1]

    edges = [base, 1.0 - ladder]
    for c in crossings:
        edges.append(c - ladder)
        edges.append(np.array([c]))
        edges.append(c + ladder)
    merged = np.concatenate(edges)
    merged = np.unique(np.clip(merged, 0.0, 1.0))
    keep = np.concatenate([[True], np.diff(merged) > 1e-9])
    return merged[keep], grid.size


def disk_integral(ev: PolyEvaluator, tol: float, degree: int | None = None,
                  threads: int = 1) -> IntegralEstimate:
    """Adaptive polar quadrature of the spherical derivative over the unit
    disk.

    Each open cell is probed with both one-dimensional bisections (radial and
    angular midpoints, 4 evaluations); their sum minus the parent midpoint is
    the fully-refined estimate, giving the usual Richardson discrepancy.  A
    cell is accepted when that discrepancy is below its area share of tol;
    otherwise it splits along the dimension whose discrepancy dominates, so
    ridge-like integrands (P^# concentrates where |P| is near 1) refine
    across the ridge instead of exploding four ways.  Past the evaluation
    budget the remaining cells fall back to stratified Monte Carlo with a
    3-sigma error bar."""
    if not (tol > 0.0):
        raise BadParams("tol must be positive")
    if degree is None:
        degree = ev.degree

    r_edges, evals = _seed_radial_edges(ev, degree)
    t_edges = np.linspace(0.0, TWO_PI, 17)
    nr = r_edges.size - 1
    r0 = np.repeat(r_edges[:-1], 16)
    r1 = np.repeat(r_edges[1:], 16)
    t0 = np.tile(t_edges[:-1], nr)
    t1 = np.tile(t_edges[1:], nr)

    mids = _cell_mids(r0, r1, t0, t1)
    coarse = _sph_many(ev, mids, threads) * _cell_area(r0, r1, t0, t1)
    evals += mids.size

    accepted: list[float] = []
    err_parts: list[float] = []
    budget_hit = False

    for _level in range(_MAX_LEVELS):
        if r0.size == 0:
            break
        if evals + 4 * r0.size > EVAL_BUDGET:
            budget_hit = True
            break
        rm = 0.5 * (r0 + r1)
        tm = 0.5 * (t0 + t1)
        # radial-split children (slots i: low r, n+i: high r) ...
        sr0 = np.concatenate([r0, rm])
        sr1 = np.concatenate([rm, r1])
        st0 = np.concatenate([t0, t0])
        st1 = np.concatenate([t1, t1])
        # ... and angular-split children (slots i: low theta, n+i: high theta)
        ar0 = np.concatenate([r0, r0])
        ar1 = np.concatenate([r1, r1])
        at0 = np.concatenate([t0, tm])
        at1 = np.concatenate([tm, t1])
        cm = np.concatenate([_cell_mids(sr0, sr1, st0, st1),
                             _cell_mids(ar0, ar1, at0, at1)])
        careas = np.concatenate([_cell_area(sr0, sr1, st0, st1),
                                 _cell_area(ar0, ar1, at0, at1)])
        cvals = _sph_many(ev, cm, threads) * careas
        evals += cm.size
        n = r0.size
        fine_r = cvals[:n] + cvals[n:2 * n]
        fine_t = cvals[2 * n:3 * n] + cvals[3 * n:]
        # half-step-in-both-dimensions estimate up to cross terms
        fine = fine_r + fine_t - coarse
        diff = (fine - coarse) / 3.0
        err = np.abs(diff)
        share = tol * _cell_area(r0, r1, t0, t1) / math.pi
        ok = err <= share
        accepted.extend((fine[ok] + diff[ok]).tolist())
        err_parts.extend(err[ok].tolist())
        keep = np.nonzero(~ok)[0]
        if keep.size == 0:
            r0 = r0[:0]
            continue
        radial = (np.abs(fine_r - coarse) >= np.abs(fine_t - coarse))[keep]
        ri = keep[radial]
        ti = keep[~radial]
        r0 = np.concatenate([sr0[ri], sr0[ri + n], ar0[ti], ar0[ti + n]])
        r1 = np.concatenate([sr1[ri], sr1[ri + n], ar1[ti], ar1[ti + n]])
        t0 = np.concatenate([st0[ri], st0[ri + n], at0[ti], at0[ti + n]])
        t1 = np.concatenate([st1[ri], st1[ri + n], at1[ti], at1[ti + n]])
        coarse = np.concatenate([cvals[ri], cvals[ri + n],
                                 cvals[2 * n + ti], cvals[3 * n + ti]])

    if r0.size and not budget_hit:
        budget_hit = True  # ran out of levels with cells still open

    if budget_hit and r0.size:
        rng = np.random.default_rng(np.random.SeedSequence([_MC_SEED, r0.size]))
        remaining = max(EVAL_BUDGET - evals, 2 * r0.size)
        per_cell = int(max(2, min(_MC_PER_CELL, remaining // r0.size)))
        var_parts: list[float] = []
        for lo in range(0, r0.size, _MC_BLOCK):
            hi = min(lo + _MC_BLOCK, r0.size)
            u = rng.random((hi - lo, per_cell))
            v = rng.random((hi - lo, per_cell))
            b0, b1 = r0[lo:hi, None], r1[lo:hi, None]
            rr = np.sqrt(b0**2 + u * (b1**2 - b0**2))
            tt = t0[lo:hi, None] + v * (t1[lo:hi] - t0[lo:hi])[:, None]
            pts = rr * np.exp(1j * tt)
            sph = _sph_many(ev, pts.ravel(), threads).reshape(pts.shape)
            evals += pts.size
            areas = _cell_area(r0[lo:hi], r1[lo:hi], t0[lo:hi], t1[lo:hi])
            accepted.append(float(np.sum(sph.mean(axis=1) * areas)))
            var_parts.append(float(np.sum(
                sph.var(axis=1, ddof=1) / per_cell * areas**2)))
        err_parts.append(3.0 * math.sqrt(math.fsum(var_parts)))

    return IntegralEstimate(
        value=math.fsum(accepted),
        error_bound=math.fsum(err_parts),
        evaluations=evals,
        degree=int(degree),
        budget_exceeded=budget_hit,
    )


def cs_bound(degree: int) -> float:
    """The Cauchy-Schwarz ceiling 2 pi sqrt(degree)."""
    return TWO_PI * math.sqrt(degree)


def monomial_integral_oracle(n: int) -> float:
    """Independent 1-D reduction for P = z^n:
    Int_D (z^n)^# dA = 4 pi Int_0^1 u^{1/n} / (1+u^2) du."""
    from scipy.integrate import quad  # imported here: loading scipy.integrate costs ~50 MB

    val, _ = quad(lambda u: u ** (1.0 / n) / (1.0 + u * u), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return 4.0 * math.pi * val


def iterate_family_integrals(c: complex, n_max: int, tol: float,
                             threads: int = 1):
    """IntegralEstimates for the iterates n = 1..n_max of z^2 + c."""
    if not (1 <= n_max <= 14):
        raise BadParams("n_max must be in 1..14")
    return [
        disk_integral(iterate_evaluator(c, n), tol=tol, threads=threads)
        for n in range(1, n_max + 1)
    ]


def exponent_fit(estimates) -> ExponentFit:
    """Least squares of log value against log degree; alpha_hat = 1/2 - slope."""
    by_degree = sorted(estimates, key=lambda e: e.degree)
    degrees = [e.degree for e in by_degree]
    if len(set(degrees)) < 4:
        raise InsufficientData("need at least 4 estimates with distinct degrees")
    x = np.log([float(e.degree) for e in by_degree])
    y = np.log([e.value for e in by_degree])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    return ExponentFit(
        pairs=list(zip(x.tolist(), y.tolist())),
        slope=float(slope),
        alpha_hat=0.5 - float(slope),
        residual=float(np.sqrt(np.mean((y - fit) ** 2))),
    )


def family_csv(estimates) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "value", "error_bound", "cs_bound", "evaluations"])
    for e in estimates:
        writer.writerow([e.degree, repr(e.value), repr(e.error_bound),
                         repr(cs_bound(e.degree)), e.evaluations])
    return buf.getvalue()
