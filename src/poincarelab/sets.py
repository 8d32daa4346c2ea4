"""Borel sets with certified power-law density decay, plus Monte Carlo
density estimation.

The built-in adversarial sets are unions, over the dyadic annuli
A_j = {2^j <= |z| < 2^{j+1}}, of regions whose area inside A_j is exactly

    area_j = F(delta) * min(1, C * 2^{-j*delta}) * |A_j|,

with safety factor F(delta) = (1 - 2^{delta-2}) / 3.  Summing the geometric
series over j <= log2(r) and comparing with r^{2-delta} shows

    dens(S, D_r) <= C * r^{-delta}   for every r >= 1,

and the annuli start at |z| = 1, so the bound is trivial below that.  Disk
placement inside an annulus is pseudo-random but fully determined by
(seed, j); overlap between disks only removes area, so the certificate is
one-sided safe no matter how the rejection sampling goes.
Both built-in constructors check (C, delta) in one place: the bound holds
only for 0 < C < inf and 0 < delta < 2, and any other pair raises BadParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, NoCertificate

SAMPLE_BLOCK = 1 << 16
_PACK_TRIES = 200
_OVERLAP_TOL = 0.10


def safety_factor(delta: float) -> float:
    """F(delta) making the annulus budgets certify C*r^{-delta} for all r>=1."""
    return (1.0 - 2.0 ** (delta - 2.0)) / 3.0


def _annulus_area(j: int) -> float:
    return 3.0 * math.pi * 4.0**j


def _lens_area(d: float, r1: float, r2: float) -> float:
    """Area of intersection of two disks with center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    # standard two-circle lens
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return a1 + a2 - tri


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    std_error: float
    samples: int


@dataclass(frozen=True)
class SetModel:
    """A target set S of the plane.

    `indicator` is the one membership function: it maps an array of complex
    points to a bool array of the same shape, True where the point lies in S.
    `contains_many` applies it to an array of points.
    """

    kind: str  # Empty | PowerLawDisks | AnnularSectors
    indicator: Callable[[np.ndarray], np.ndarray]
    certificate: Optional[tuple] = None  # (C, delta)
    seed: Optional[int] = None
    # annulus index -> (centers, radii); filled lazily, by disk_pack only
    _packs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        return self.indicator(np.asarray(z, dtype=complex))


def _budget(C: float, delta: float, j: int) -> float:
    return safety_factor(delta) * min(1.0, C * 2.0 ** (-j * delta)) * _annulus_area(j)


def _pack_annulus(C: float, delta: float, seed: int, j: int):
    """Disk pack for annulus j: full disks of radius 2^j/8 plus one smaller
    disk so the placed area matches the budget exactly."""
    budget = _budget(C, delta, j)
    rad = 2.0**j / 8.0
    full_area = math.pi * rad * rad
    n_full = int(budget // full_area)
    rem = budget - n_full * full_area
    radii = [rad] * n_full
    if rem > 0.0:
        radii.append(math.sqrt(rem / math.pi))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), j]))
    centers = []
    placed_r = []
    lo_band, hi_band = 2.0**j, 2.0 ** (j + 1)
    for r_i in radii:
        for attempt in range(_PACK_TRIES + 1):
            mod = rng.uniform(lo_band + r_i, hi_band - r_i)
            ang = rng.uniform(0.0, math.tau)
            cand = mod * complex(math.cos(ang), math.sin(ang))
            if attempt == _PACK_TRIES:
                break  # give up on separation; overlap only lowers the true density
            overlap = 0.0
            for c_k, r_k in zip(centers, placed_r):
                overlap += _lens_area(abs(cand - c_k), r_i, r_k)
                if overlap > _OVERLAP_TOL * math.pi * r_i * r_i:
                    break
            if overlap <= _OVERLAP_TOL * math.pi * r_i * r_i:
                break
        centers.append(cand)
        placed_r.append(r_i)
    return np.array(centers, dtype=complex), np.array(placed_r, dtype=float)


def disk_pack(S: SetModel, j: int):
    """(centers, radii) of the disks the set places in annulus j."""
    if S.kind != "PowerLawDisks":
        raise BadParams("disk_pack only applies to PowerLawDisks sets")
    if j not in S._packs:
        S._packs[j] = _pack_annulus(*S.certificate, S.seed, j)
    return S._packs[j]


def make_empty_set() -> SetModel:
    return SetModel(
        kind="Empty",
        indicator=lambda z: np.zeros(z.shape, dtype=bool),
        certificate=(0.0, 1.0),
    )


def _certificate(C: float, delta: float) -> tuple:
    """The (C, delta) of a built-in set, as floats; BadParams unless
    0 < C < inf and 0 < delta < 2, where the certificate holds."""
    if not 0.0 < C < math.inf:
        raise BadParams(f"C must be positive and finite, got {C}")
    if not 0.0 < delta < 2.0:
        raise BadParams("delta must lie in (0, 2)")
    return float(C), float(delta)


def make_powerlaw_set(C: float, delta: float, seed: int) -> SetModel:
    certificate = _certificate(C, delta)

    def indicator(z: np.ndarray) -> np.ndarray:
        flat = z.ravel()
        out = np.zeros(flat.shape, dtype=bool)
        a = np.abs(flat)
        ok = (a >= 1.0) & np.isfinite(a)
        if np.any(ok):
            jj = np.floor(np.log2(a[ok])).astype(int)
            idx_ok = np.nonzero(ok)[0]
            for j in np.unique(jj):
                centers, radii = disk_pack(S, int(j))
                if len(centers) == 0:
                    continue
                sel = idx_ok[jj == j]
                pts = flat[sel]
                hit = np.any(
                    np.abs(pts[:, None] - centers[None, :]) <= radii[None, :], axis=1
                )
                out[sel] = hit
        return out.reshape(z.shape)

    S = SetModel(
        kind="PowerLawDisks",
        indicator=indicator,
        certificate=certificate,
        seed=int(seed),
    )
    return S


def make_sector_set(C: float, delta: float) -> SetModel:
    """Deterministic wedge variant: in annulus j, the sector 0 <= arg z < phi_j
    with phi_j = 2*pi*F(delta)*min(1, C*2^{-j*delta}). Same certificate."""
    C, delta = _certificate(C, delta)
    F = safety_factor(delta)

    def indicator(z: np.ndarray) -> np.ndarray:
        flat = z.ravel()
        out = np.zeros(flat.shape, dtype=bool)
        a = np.abs(flat)
        ok = (a >= 1.0) & np.isfinite(a)
        if np.any(ok):
            jj = np.floor(np.log2(a[ok])).astype(int)
            ang = np.mod(np.angle(flat[ok]), math.tau)
            phis = math.tau * F * np.minimum(1.0, C * 2.0 ** (-jj * delta))
            out[np.nonzero(ok)[0]] = ang < phis
        return out.reshape(z.shape)

    return SetModel(
        kind="AnnularSectors",
        indicator=indicator,
        certificate=(C, delta),
    )


def certified_bound(S: SetModel, r: float) -> float:
    """min(1, C * r^{-delta}) from the certificate."""
    if not (0.0 < r < math.inf):
        raise BadParams("r must be positive and finite")
    if S.certificate is None:
        raise NoCertificate("set carries no density certificate")
    C, delta = S.certificate
    if C == 0.0:
        return 0.0
    return min(1.0, C * float(r) ** (-delta))


def density_estimate(S: SetModel, r: float, samples: int, seed: int) -> DensityEstimate:
    """Monte Carlo density of S in the disk of radius r.

    Samples are drawn in fixed blocks with per-block substreams of
    (seed, block), so the result depends only on (seed, samples).
    """
    if not (0.0 < r < math.inf):
        raise BadParams("r must be positive and finite")
    if samples < 1000:
        raise BadParams("samples must be >= 1000")
    seed = int(seed) & (2**63 - 1)
    hits = 0
    done = 0
    block_index = 0
    while done < samples:
        n = min(SAMPLE_BLOCK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block_index]))
        u = rng.random(n)
        v = rng.random(n)
        z = r * np.sqrt(u) * np.exp(1j * math.tau * v)
        hits += int(np.count_nonzero(S.contains_many(z)))
        done += n
        block_index += 1
    p = hits / samples
    return DensityEstimate(
        value=p,
        std_error=math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
    )


def set_payload(S: SetModel) -> dict:
    C, delta = S.certificate if S.certificate is not None else (None, None)
    return {"kind": S.kind, "C": C, "delta": delta, "seed": S.seed}
