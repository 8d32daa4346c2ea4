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

Every solver takes and returns arrays of independent lanes, and a lane's
result does not depend on its batch.  newton_solve runs
dyncore.newton_lanes on f, each evaluation one pullback giving f and f'
together, and a lane that fails (overflow included) fails alone.
find_base_preimage solves its whole seed grid in one call.  branch_continue
continues every point along its own segment, t as the outer loop, each
step seeded with the previous solution and the f and f' that Newton last
computed there; the segments end at h^{-1}(w), from
siegel.h_inverse_many, which raises OutOfDomain for a w outside the
sub-Siegel disk.

Also here: brute-force counting of all preimages in a disk by the argument
principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyncore import newton_lanes
from .errors import BadParams, ContinuationLost, NoConvergence, NotFound
from .poincare import PoincareMap, eval_on_circle, poincare_derivative_eval, poincare_eval
from .serialize import csv_text, json_text
from .sets import SetModel
# h_inverse and p_inverse_on_disk are not called here, but stay importable
# from this module: perfbench/tracer.py wraps them under these names.
from .siegel import (  # noqa: F401
    SiegelMap,
    h_eval,
    h_inverse,
    h_inverse_many,
    p_inverse_many,
    p_inverse_on_disk,
)

NEWTON_ITERS = 60
BASE_RESIDUAL = 1e-10  # largest |f(base) - center| / (1 + |center|) of a base preimage
_GRID_MODULI = 24
_GRID_ANGLES = 32
_MAX_SEGMENT_STEPS = 512


@dataclass(frozen=True)
class InverseBranch:
    """The branch g0 of f^{-1} with g0(center) = base_point."""

    pm: PoincareMap
    sm: SiegelMap
    base_point: complex


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
    argument_count: int
    notes: str = ""


def newton_solve(pm: PoincareMap, target, seed, at_seed=None):
    """dyncore.newton_lanes on f(z) = target: (z, ok, f(z), f'(z)) arrays,
    one lane per broadcast (target, seed) pair; a lane whose evaluation
    overflows fails alone.  Each evaluation is one pullback giving f and f'
    together.  at_seed is (f, f') at the seeds, when the caller has them
    from an earlier solve: a lane's values do not depend on its batch, so
    they are the bits a fresh evaluation would give."""
    return newton_lanes(lambda z: poincare_derivative_eval(pm, z), target, seed,
                        NEWTON_ITERS, at_seed)


def find_base_preimage(pm: PoincareMap, sm: SiegelMap) -> InverseBranch:
    """Solve f(z) = Siegel center from a coarse polar grid over D_{20 r0},
    all 24 x 32 seeds in one newton_solve call; keep the smallest-modulus
    solution (ties: smallest angle).  The converged lanes, in seed order,
    give the distinct roots: each lane not within 1e-6 (1 + |r|) of an
    earlier root r is a new root.

    Only a Siegel fixed point is supported: for a cycle of period q > 1,
    p_inverse_many inverts the q-fold map while the orbit scales by mu per
    step, so the orbit points would not solve f(z) = w."""
    if pm.map != sm.map:
        raise BadParams("Poincare and Siegel structures built from different maps")
    if sm.period > 1:
        raise BadParams(f"Siegel cycles of period {sm.period} > 1 are not supported")
    center = sm.center_value
    scale = 1.0 + abs(center)
    angles = np.arange(_GRID_ANGLES) * (math.tau / _GRID_ANGLES)
    unit = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    for grid_radius in (20.0 * pm.r0, 40.0 * pm.r0):
        moduli = np.geomspace(0.05 * grid_radius, grid_radius, _GRID_MODULI)
        seeds = (moduli[:, None] * unit).reshape(-1)  # modulus-major order
        zs, ok, _, _ = newton_solve(pm, center, seeds)
        zs = zs[ok]
        zs = zs[np.abs(zs) >= 1e-12]  # f(0) = z0 is off-center by construction
        roots = []
        while zs.size:
            r = complex(zs[0])
            roots.append(r)
            zs = zs[1:][np.abs(zs[1:] - r) > 1e-6 * (1.0 + abs(r))]
        if roots:
            roots.sort(key=lambda z: (abs(z), math.atan2(z.imag, z.real) % math.tau))
            base = roots[0]
            if abs(poincare_eval(pm, base) - center) > BASE_RESIDUAL * scale:
                continue
            return InverseBranch(pm=pm, sm=sm, base_point=base)
    raise NotFound("no base preimage found on the search grid (after one enlargement)")


def _continue_segments(ib: InverseBranch, u_w: np.ndarray) -> np.ndarray:
    """g0(h(u)) for every u, by Newton continuation from the base point
    along the segment from 0 to u in the linearizing coordinate.

    All lanes start with 8 steps, t as the outer loop and one h_eval per
    step.  Each step's Newton starts from the lane's previous solution with
    the f and f' that the previous step's Newton computed there; the base
    point's pair comes from one evaluation of a one-lane array before any
    step.  A lane whose Newton fails or whose step jumps by more than
    1 + |z| drops out; the lanes that dropped out start over with twice the
    steps, up to _MAX_SEGMENT_STEPS."""
    out = np.empty(u_w.shape, dtype=complex)
    at_base = poincare_derivative_eval(ib.pm, np.array([ib.base_point]))
    pending = np.arange(u_w.size)
    steps = 8
    while pending.size and steps <= _MAX_SEGMENT_STEPS:
        z = np.full(pending.size, ib.base_point, dtype=complex)
        f, df = (np.repeat(v, pending.size) for v in at_base)
        alive = np.ones(pending.size, dtype=bool)
        for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            target = h_eval(ib.sm, t * u_w[pending[idx]])
            z_next, ok, f_next, df_next = newton_solve(ib.pm, target, z[idx],
                                                       (f[idx], df[idx]))
            ok &= np.abs(z_next - z[idx]) <= 1.0 * (1.0 + np.abs(z[idx]))
            moved = idx[ok]
            z[moved], f[moved], df[moved] = z_next[ok], f_next[ok], df_next[ok]
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


def branch_continue(ib: InverseBranch, w: np.ndarray) -> np.ndarray:
    """g0 at every point of the array w in the sub-Siegel disk, an array of
    w's shape, by segment continuation in the linearizing coordinate from
    the center.  One h_inverse_many call checks the membership of every
    point, and one batched continuation follows."""
    w = np.asarray(w, dtype=complex)
    return _continue_segments(ib, h_inverse_many(ib.sm, w.reshape(-1))).reshape(w.shape)


def orbit_preimages(ib: InverseBranch, w: np.ndarray, k_max: int):
    """The arrays (g, z) for the array w, both of shape (len(w), k_max + 1):
    g[i, k] = g0(P^{-k} w_i) and z[i, k] = mu^k g[i, k], the orbit
    preimages.  h^{-1} is solved once per w and every (w, k) is continued
    in a single branch_continue call.  A k_max with |mu|^k_max past 1e300
    is refused: mu^k overflows at about 1e308, and the survey's radii carry
    a further factor."""
    if k_max < 0:
        raise BadParams("k_max must be >= 0")
    if k_max * math.log(abs(ib.pm.mu)) > 300.0 * math.log(10.0):
        raise BadParams(f"k_max = {k_max} puts |mu|^k_max past 1e300 "
                        f"(|mu| = {abs(ib.pm.mu):.6g})")
    g = branch_continue(ib, p_inverse_many(ib.sm, w, range(k_max + 1)))
    return g, g * np.array([ib.pm.mu**k for k in range(k_max + 1)])


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
    doubling until two consecutive estimates settle on one integer.  The
    1024 nodes that check no preimage sits on the circle are the first pass."""
    if not 0.0 < r < math.inf:
        raise BadParams(f"r must be positive and finite, got {r}")
    w = complex(w)
    r_eff = float(r)
    n = 1 << 10
    for attempt in range(2):
        z, f_vals, df_vals = eval_on_circle(pm, r_eff, n)
        if float(np.min(np.abs(f_vals - w))) > 1e-6 * (1.0 + abs(w)):
            break
        if attempt == 0:
            r_eff *= 1.01
        else:
            raise BadParams(f"a preimage of {w} sits on |z| = {r_eff}")
    prev = None
    while True:
        est = float(np.mean(np.real(df_vals * z / (f_vals - w))))
        if prev is not None:
            k = round(est)
            if abs(est - k) < 1e-3 and abs(prev - k) < 1e-3:
                return int(k)
        prev = est
        n *= 2
        if n > (1 << 18):
            raise NoConvergence(
                f"argument principle did not settle by 2^18 nodes (last {prev:.6f})"
            )
        z, f_vals, df_vals = eval_on_circle(pm, r_eff, n)


def build_preimage_report(ib: InverseBranch, S: SetModel, w: complex, r: float,
                          k_max: int) -> PreimageReport:
    z = orbit_preimages(ib, [w], k_max)[1][0]
    pts = [OrbitPoint(k=k, z=zk, in_S=hit, residual=verify_orbit_point(ib, w, k, zk))
           for k, (zk, hit) in enumerate(zip(z.tolist(), S.contains_many(z).tolist()))]
    return PreimageReport(w=complex(w), r=float(r), orbit_points=pts,
                          argument_count=argument_principle_count(ib.pm, w, r),
                          notes="orbit preimages via linearizing-coordinate continuation"
                                "; disk count via argument principle")


def report_to_csv(report: PreimageReport) -> str:
    return csv_text(["k", "re z", "im z", "|z|", "in_S", "residual"],
                    [[p.k, p.z.real, p.z.imag, abs(p.z), p.in_S, p.residual]
                     for p in report.orbit_points])


def report_to_json(report: PreimageReport) -> str:
    return json_text({
        "w": report.w,
        "r": report.r,
        "argument_count": report.argument_count,
        "notes": report.notes,
        "orbit_points": [
            {"k": p.k, "z": p.z, "abs_z": abs(p.z),
             "in_S": p.in_S, "residual": p.residual}
            for p in report.orbit_points
        ],
    })
