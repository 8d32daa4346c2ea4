"""Preimages of Siegel-disk points under an entire Poincare function.

The key objects: one inverse branch g0 of f, realized by Newton continuation
along straight segments in the linearizing coordinate of the Siegel disk
(segments stay inside the disk by convexity, so the path never approaches a
component boundary), and the derived orbit of preimages

    z(k) = mu^k * g0( P^{-k}(w) ),   k = 0, 1, 2, ...

whose k-th member is a genuine solution of f(z) = w of modulus about
|mu|^k * |g0(...)|.  Verification of f(z(k)) = w always pulls back exactly k
levels, so every intermediate value lies in the bounded sub-Siegel disk and
the check never overflows.

The solvers work on arrays of independent lanes, one (seed, target) pair
each: newton_solve runs damped Newton on every lane at once, with the step
rules of a scalar solver applied per lane, and a lane that fails (overflow
included) fails only itself.  find_base_preimage solves its whole seed grid
in one call, and branch_continue continues every point it is given along
its own segment, with the segment parameter t as the outer loop.  Because
numpy computes each lane by the same operations at any position in any
array, a lane's result does not depend on its batch, and the continuation
cache holds the same value whichever call filled it.

Also here: brute-force counting of all preimages in a disk by the argument
principle, and an empirical density-transfer probe for thin target sets.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dyncore import QuadMap
from .errors import BadParams, ContinuationLost, NoCertificate, NoConvergence, NotFound
from .poincare import PoincareMap, eval_on_circle, poincare_derivative_eval, poincare_eval
from .sets import SetModel, certified_bound
# h_inverse and p_inverse_on_disk are not called here, but stay importable
# from this module: perfbench/tracer.py wraps them under these names.
from .siegel import (  # noqa: F401
    SiegelMap,
    h_eval,
    h_inverse,
    h_inverse_many,
    p_inverse_many,
    p_inverse_on_disk,
    sub_siegel_sample,
)

NEWTON_TOL = 1e-12
NEWTON_ITERS = 60
CACHE_RESIDUAL = 1e-10
_GRID_MODULI = 24
_GRID_ANGLES = 32
_MAX_SEGMENT_STEPS = 512
TWO_PI = 2.0 * math.pi


@dataclass
class InverseBranch:
    """The branch g0 of f^{-1} with g0(center) = base_point.  The cache maps
    each continued w to g0(w); its values do not depend on the order in
    which they were computed."""

    pm: PoincareMap
    sm: SiegelMap
    base_point: complex
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def center(self) -> complex:
        return self.sm.center_value


@dataclass(frozen=True)
class OrbitPoint:
    k: int
    z: complex
    in_S: bool
    residual: float


@dataclass(frozen=True)
class PreimageReport:
    w: complex
    r: float
    orbit_points: list  # of OrbitPoint
    argument_count: Optional[int]
    notes: str = ""


def newton_solve(pm: PoincareMap, target, seed):
    """Damped Newton on f(z) = target, lane by lane: (z, ok) arrays.

    target and seed broadcast to one array of lanes.  Per lane: stop once
    |f(z) - target| <= NEWTON_TOL (1 + |target|), within NEWTON_ITERS
    iterations; each step z - t (f(z) - target)/f'(z) takes the first t in
    1, 1/2, ..., 2^-39 that lowers the residual.  A lane fails (ok False)
    when f' drops below 1e-14, when no t lowers the residual (a stall), when
    the iterations run out, or when an evaluation overflows; its z is then
    the last iterate."""
    target, z = np.broadcast_arrays(np.asarray(target, dtype=complex),
                                    np.asarray(seed, dtype=complex))
    target, z = target.reshape(-1).copy(), z.reshape(-1).copy()
    tol = NEWTON_TOL * (1.0 + np.abs(target))
    f = poincare_eval(pm, z)
    res = np.abs(f - target)
    failed = np.isnan(res)
    for _ in range(NEWTON_ITERS):
        live = np.flatnonzero(~failed & ~(res <= tol))
        if live.size == 0:
            break
        d = poincare_derivative_eval(pm, z[live])
        usable = np.abs(d) >= 1e-14  # False for an overflowed (NaN) lane too
        failed[live[~usable]] = True
        live, d = live[usable], d[usable]
        step = (f[live] - target[live]) / d
        t = 1.0
        for _ in range(40):
            if live.size == 0:
                break
            cand = z[live] - t * step
            f_cand = poincare_eval(pm, cand)
            res_cand = np.abs(f_cand - target[live])
            better = res_cand < res[live]
            took = live[better]
            z[took], f[took], res[took] = cand[better], f_cand[better], res_cand[better]
            failed[live[np.isnan(res_cand)]] = True
            keep = ~better & ~np.isnan(res_cand)
            live, step = live[keep], step[keep]
            t *= 0.5
        failed[live] = True  # stalled: no step length lowered the residual
    return z, ~failed & (res <= tol)


def find_base_preimage(pm: PoincareMap, sm: SiegelMap) -> InverseBranch:
    """Solve f(z) = Siegel center from a coarse polar grid over D_{20 r0},
    all 24 x 32 seeds in one newton_solve call; keep the smallest-modulus
    solution (ties: smallest angle)."""
    if pm.map != sm.map:
        raise BadParams("Poincare and Siegel structures built from different maps")
    center = sm.center_value
    scale = 1.0 + abs(center)
    angles = np.arange(_GRID_ANGLES) * (TWO_PI / _GRID_ANGLES)
    unit = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    for grid_radius in (20.0 * pm.r0, 40.0 * pm.r0):
        moduli = np.geomspace(0.05 * grid_radius, grid_radius, _GRID_MODULI)
        seeds = (moduli[:, None] * unit).reshape(-1)  # modulus-major order
        zs, ok = newton_solve(pm, center, seeds)
        roots = []
        for z in zs[ok]:
            z = complex(z)
            if abs(z) < 1e-12:
                continue  # f(0) = z0 is off-center by construction
            if all(abs(z - r) > 1e-6 * (1.0 + abs(r)) for r in roots):
                roots.append(z)
        if roots:
            roots.sort(key=lambda z: (abs(z), math.atan2(z.imag, z.real) % TWO_PI))
            base = roots[0]
            if abs(poincare_eval(pm, base) - center) > CACHE_RESIDUAL * scale:
                continue
            ib = InverseBranch(pm=pm, sm=sm, base_point=base)
            ib._cache[complex(center)] = base
            return ib
    raise NotFound("no base preimage found on the search grid (after one enlargement)")


def _continue_segments(ib: InverseBranch, u_w: np.ndarray) -> np.ndarray:
    """g0(h(u)) for every u, by Newton continuation from the base point
    along the segment from 0 to u in the linearizing coordinate.

    All lanes start with 8 steps, t as the outer loop and one h_eval per
    step.  A lane whose Newton fails or whose step jumps by more than
    1 + |z| drops out; the lanes that dropped out start over with twice the
    steps, up to _MAX_SEGMENT_STEPS."""
    out = np.empty(u_w.shape, dtype=complex)
    pending = np.arange(u_w.size)
    steps = 8
    while pending.size and steps <= _MAX_SEGMENT_STEPS:
        z = np.full(pending.size, ib.base_point, dtype=complex)
        alive = np.ones(pending.size, dtype=bool)
        for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            target = h_eval(ib.sm, t * u_w[pending[idx]])
            z_next, ok = newton_solve(ib.pm, target, z[idx])
            ok &= np.abs(z_next - z[idx]) <= 1.0 * (1.0 + np.abs(z[idx]))
            z[idx[ok]] = z_next[ok]
            alive[idx[~ok]] = False
        out[pending[alive]] = z[alive]
        pending = pending[~alive]
        steps *= 2
    if pending.size:
        raise ContinuationLost(
            f"segment continuation failed at {steps // 2} steps for "
            f"{pending.size} of {u_w.size} points"
        )
    return out


def branch_continue(ib: InverseBranch, w):
    """g0(w) for w in the sub-Siegel disk, by segment continuation in the
    linearizing coordinate from the center to w.

    w may be a complex number (the result is a complex) or an array (the
    result is an array of its shape).  Points already in the branch cache
    are served from it; the others get one h_inverse_many call, which
    checks their membership, and one batched continuation."""
    arr = np.asarray(w, dtype=complex)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    missing: dict = {}  # w -> lanes of flat holding it
    for i, wi in enumerate(flat.tolist()):
        hit = ib._cache.get(wi)
        if hit is None:
            missing.setdefault(wi, []).append(i)
        else:
            out[i] = hit
    if missing:
        keys = list(missing)
        g = _continue_segments(ib, h_inverse_many(ib.sm, np.array(keys, dtype=complex)))
        for wi, gi in zip(keys, g.tolist()):
            ib._cache[wi] = gi
            out[missing[wi]] = gi
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def orbit_preimages(ib: InverseBranch, w, k_max: int):
    """[(k, mu^k * g0(P^{-k} w))] for 0 <= k <= k_max.

    For an array of w the result is the pair of arrays (g, z), both of
    shape (len(w), k_max + 1), with g[i, k] = g0(P^{-k} w_i) and
    z[i, k] = mu^k g[i, k].  Either way h^{-1} is solved once per w and every
    (w, k) is continued in a single branch_continue call."""
    if k_max < 0:
        raise BadParams("k_max must be >= 0")
    ws = np.asarray(w, dtype=complex).reshape(-1)
    wk = p_inverse_many(ib.sm, ws, range(k_max + 1))
    g = branch_continue(ib, wk)
    z = g * np.array([ib.pm.mu**k for k in range(k_max + 1)])
    if np.ndim(w) == 0:
        return list(enumerate(z[0].tolist()))
    return g, z


def verify_orbit_point(ib: InverseBranch, w: complex, k: int, z: complex) -> float:
    """|f(z) - w| via exactly-k pullback (bounded intermediates), relative
    to 1 + |w|."""
    u = z / ib.pm.mu**k
    val = poincare_eval(ib.pm, u)
    for _ in range(k):
        val = ib.pm.map(val)
    return abs(val - w) / (1.0 + abs(w))


def argument_principle_count(pm: PoincareMap, w: complex, r: float) -> int:
    """Number of solutions of f(z) = w in D_r, with multiplicity, by the
    winding integral (1/2pi) Int Re[ f'(z) z / (f(z)-w) ] dtheta with node
    doubling until two consecutive estimates settle on one integer."""
    if r <= 0.0:
        raise BadParams("r must be positive")
    w = complex(w)
    r_eff = float(r)
    for attempt in range(2):
        _, f_vals, _ = eval_on_circle(pm, r_eff, 1 << 10)
        if float(np.min(np.abs(f_vals - w))) > 1e-6 * (1.0 + abs(w)):
            break
        if attempt == 0:
            r_eff *= 1.01
        else:
            raise BadParams(f"a preimage of {w} sits on |z| = {r_eff}")
    prev = None
    n = 1 << 10
    while n <= (1 << 18):
        z, f_vals, df_vals = eval_on_circle(pm, r_eff, n)
        est = float(np.mean(np.real(df_vals * z / (f_vals - w))))
        if prev is not None:
            k = round(est)
            if abs(est - k) < 1e-3 and abs(prev - k) < 1e-3:
                return int(k)
        prev = est
        n *= 2
    raise NoConvergence(
        f"argument principle did not settle by 2^18 nodes (last {prev:.6f})"
    )


def koebe_density_transfer(ib: InverseBranch, S: SetModel, k: int,
                           samples: int, seed: int):
    """(hit fraction of k-th orbit preimages landing in S, certified ambient
    bound at the enclosing radius |mu|^k * C1), where C1 is the largest of
    |base_point| and the |g0| values this call continued."""
    if S.certificate is None:
        raise NoCertificate("density transfer needs a certified set")
    if k < 0:
        raise BadParams("k must be >= 0")
    ws = sub_siegel_sample(ib.sm, samples, seed)
    g = branch_continue(ib, p_inverse_many(ib.sm, ws, [k])[:, 0])
    pts = ib.pm.mu**k * g
    hits = int(np.count_nonzero(S.contains_many(pts)))
    c1 = max([abs(ib.base_point)] + [abs(v) for v in g.tolist()])
    radius = abs(ib.pm.mu) ** k * c1
    return hits / len(pts), certified_bound(S, radius)


def build_preimage_report(ib: InverseBranch, S: SetModel, w: complex, r: float,
                          k_max: int, with_count: bool = True) -> PreimageReport:
    pts = []
    for k, z in orbit_preimages(ib, w, k_max):
        res = verify_orbit_point(ib, w, k, z)
        pts.append(OrbitPoint(k=k, z=z, in_S=S.contains(z), residual=res))
    count = None
    notes = "orbit preimages via linearizing-coordinate continuation"
    if with_count:
        count = argument_principle_count(ib.pm, w, r)
        notes += "; disk count via argument principle"
    return PreimageReport(w=complex(w), r=float(r), orbit_points=pts,
                          argument_count=count, notes=notes)


def report_to_csv(report: PreimageReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "re z", "im z", "|z|", "in_S", "residual"])
    for p in report.orbit_points:
        writer.writerow([p.k, repr(float(p.z.real)), repr(float(p.z.imag)),
                         repr(float(abs(p.z))), int(p.in_S),
                         repr(float(p.residual))])
    return buf.getvalue()


def report_to_json(report: PreimageReport) -> str:
    payload = {
        "w": [report.w.real, report.w.imag],
        "r": report.r,
        "argument_count": report.argument_count,
        "notes": report.notes,
        "orbit_points": [
            {"k": p.k, "z": [p.z.real, p.z.imag], "abs_z": abs(p.z),
             "in_S": p.in_S, "residual": p.residual}
            for p in report.orbit_points
        ],
    }
    return json.dumps(payload, indent=2)
