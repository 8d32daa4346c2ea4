"""Quadratic maps in two normal forms, with fixed points, cycles, multipliers.

Two parameterizations of the same family are used throughout:

* lambda form   P(w) = lambda*w + w**2   (fixed point at 0 with multiplier
  lambda; the second fixed point sits at 1-lambda with multiplier 2-lambda)
* c form        P(z) = z**2 + c

They are affinely conjugate: z = w + lambda/2 sends the lambda form to the
c form with c = lambda/2 - lambda**2/4.  Both are kept because the lambda
form is the natural chart for linearization at the origin while the c form
is the standard chart for parameter-plane work.

All map evaluation accepts numpy arrays transparently.

Also here: find_cycle, the scalar Newton for periodic points, and
newton_lanes, the damped lane-wise Newton that inverts both the Poincare
function (preimage.newton_solve) and the Siegel linearizer (h_inverse_many).
It takes one callable giving the function and its derivative together, and
makes at most two batched calls of it per round: the full step on the 1-D
array of live lanes, then all the halved steps of the lanes it did not help.
It returns the function and its derivative at each lane's last iterate, and
takes them at the seeds when the caller has them (at_seed), so a
continuation that seeds each solve with the previous solution evaluates no
point twice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NoConvergence, NotRepelling

NEWTON_TOL = 1e-12
# the step lengths newton_lanes tries: 1, 1/2, ..., 2^-39
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(40))


@dataclass(frozen=True)
class QuadMap:
    """One quadratic map in either normal form.

    kind is "lambda" or "c"; param is the single complex parameter.
    """

    kind: str
    param: complex

    def __post_init__(self):
        if self.kind not in ("lambda", "c"):
            raise BadParams(f"unknown map kind {self.kind!r}")

    @classmethod
    def lambda_form(cls, lam: complex) -> "QuadMap":
        return cls("lambda", complex(lam))

    @classmethod
    def c_form(cls, c: complex) -> "QuadMap":
        return cls("c", complex(c))

    def __call__(self, z):
        if self.kind == "lambda":
            return self.param * z + z * z
        return z * z + self.param

    def deriv(self, z):
        if self.kind == "lambda":
            return self.param + 2.0 * z
        return 2.0 * z


@dataclass(frozen=True)
class Cycle:
    """A period-q orbit: points[i+1] = P(points[i]), with its multiplier."""

    points: tuple
    period: int
    multiplier: complex

    def min_gap(self) -> float:
        """Smallest pairwise distance between cycle points (inf for q=1)."""
        q = len(self.points)
        if q < 2:
            return math.inf
        return min(
            abs(self.points[i] - self.points[j])
            for i in range(q)
            for j in range(i + 1, q)
        )


def iterate_with_deriv(qmap: QuadMap, z: complex, q: int) -> tuple[complex, complex]:
    """(P^q(z), (P^q)'(z)), the derivative by the chain rule along the orbit."""
    w, d = z, 1.0 + 0.0j
    for _ in range(q):
        d = d * qmap.deriv(w)
        w = qmap(w)
    return w, d


def cycle_through(qmap: QuadMap, z: complex, q: int) -> Cycle:
    """The orbit z, P(z), ..., P^{q-1}(z) of a period-q point, with the
    multiplier taken as the product of P' over those points.  The values
    keep the scalar type of z and of the map's parameter."""
    pts = [z]
    for _ in range(q - 1):
        pts.append(qmap(pts[-1]))
    mult = 1.0 + 0.0j
    for p in pts:
        mult *= qmap.deriv(p)
    return Cycle(points=tuple(pts), period=q, multiplier=mult)


def find_cycle(qmap: QuadMap, q: int, seed: complex) -> Cycle:
    """Undamped Newton on P^q(z) - z from the given seed.

    Stops once |P^q(z) - z| < 1e-14 (1 + |z|); raises NoConvergence when
    |(P^q)'(z) - 1| < 1e-14 at an iterate, or when after 60 steps the
    residual is not below 1e-10 (1 + |z|).  The returned orbit starts at the
    converged point and keeps the seed's scalar type; period is q as
    requested, which callers needing primitivity must check via min_gap().
    """
    if q < 1:
        raise BadParams("cycle period must be >= 1")
    z = seed
    for _ in range(60):
        w, d = iterate_with_deriv(qmap, z, q)
        g = w - z
        if abs(g) < 1e-14 * (1.0 + abs(z)):
            return cycle_through(qmap, z, q)
        dg = d - 1.0
        if abs(dg) < 1e-14:
            raise NoConvergence("degenerate Newton step: (P^q)' == 1 at iterate")
        z = z - g / dg
    if abs(iterate_with_deriv(qmap, z, q)[0] - z) < 1e-10 * (1.0 + abs(z)):
        return cycle_through(qmap, z, q)
    raise NoConvergence(f"cycle Newton did not converge from seed {seed}")


def newton_lanes(FdF, target, seed, iters: int, at_seed=None):
    """Damped Newton on F(z) = target, lane by lane: the arrays (z, ok, F, F')
    of each lane's last iterate z, its outcome, and F and F' at z.

    FdF maps a 1-D array of lanes to the pair (F, F') of arrays of the
    function's values and derivatives; target and seed broadcast to one
    array of lanes.  at_seed, when given, is the pair (F, F') of arrays at
    those lanes' seeds, and takes the place of the first FdF call.  Per
    lane: stop once |F(z) - target| <= NEWTON_TOL (1 + |target|), within
    iters iterations; each step z - t (F(z) - target)/F'(z) takes the first
    t in 1, 1/2, ..., 2^-39 that lowers the residual.  A lane fails (ok
    False) when F' drops below 1e-14, when no t lowers the residual (a
    stall), when the iterations run out, or when an evaluation at or before
    the t it would take gives NaN (an overflow); its z is then the last
    iterate.

    A round makes at most two FdF calls: one at t = 1 on the 1-D array of
    the live lanes, then one over all the halved t of the lanes that t = 1
    did not help, as a (lanes, 39) array whose candidates past a lane's
    first lowering t are not used.  F and F' at the point a step lands on
    are kept for the next round and returned.  The outcome is the same as
    trying one t after the other."""
    target, z = np.broadcast_arrays(np.asarray(target, dtype=complex),
                                    np.asarray(seed, dtype=complex))
    target, z = target.reshape(-1).copy(), z.reshape(-1).copy()
    tol = NEWTON_TOL * (1.0 + np.abs(target))
    if at_seed is None:
        f, d = FdF(z)
    else:
        f, d = (np.array(v, dtype=complex).reshape(z.shape) for v in at_seed)
    res = np.abs(f - target)
    failed = np.isnan(res)
    for _ in range(iters):
        live = np.flatnonzero(~failed & ~(res <= tol))
        if live.size == 0:
            break
        usable = np.abs(d[live]) >= 1e-14  # False for an overflowed (NaN) lane too
        failed[live[~usable]] = True
        live = live[usable]
        if live.size == 0:
            break
        step = (f[live] - target[live]) / d[live]
        # t = 1 on 1-D lanes: a lane takes the step when it lowers the
        # residual and fails when it gives NaN.  1.0 * step is not step for
        # a -0 or infinite component; it is the product every t makes.
        cand = z[live] - 1.0 * step
        f_cand, d_cand = FdF(cand)
        res_cand = np.abs(f_cand - target[live])
        took = res_cand < res[live]
        lanes = live[took]
        z[lanes], f[lanes], d[lanes], res[lanes] = (
            cand[took], f_cand[took], d_cand[took], res_cand[took])
        nan = np.isnan(res_cand)
        failed[live[nan]] = True
        keep = ~took & ~nan
        live, step = live[keep], step[keep]
        if live.size == 0:
            continue
        lengths = _STEP_LENGTHS[1:]
        cand = z[live, None] - lengths * step[:, None]
        f_cand, d_cand = (v.reshape(cand.shape) for v in FdF(cand.reshape(-1)))
        res_cand = np.abs(f_cand - target[live, None])
        better = res_cand < res[live, None]
        nan = np.isnan(res_cand)
        first = np.argmax(better, axis=1)
        first_nan = np.where(nan.any(axis=1), np.argmax(nan, axis=1), lengths.size)
        # a lane takes its first lowering t unless a NaN came first; every
        # other lane fails, on that NaN or as a stall
        took = better.any(axis=1) & (first < first_nan)
        lanes, rows, cols = live[took], np.flatnonzero(took), first[took]
        z[lanes], f[lanes], d[lanes], res[lanes] = (
            cand[rows, cols], f_cand[rows, cols], d_cand[rows, cols], res_cand[rows, cols])
        failed[live[~took]] = True
    return z, ~failed & (res <= tol), f, d


def order_from_multiplier(mu: complex) -> float:
    """Growth order log 2 / log |mu| of the linearizer at a repelling point."""
    a = abs(mu)
    if a <= 1.0:
        raise NotRepelling(f"|mu| = {a} <= 1")
    return math.log(2.0) / math.log(a)


def repelling_fixed_point(qmap: QuadMap) -> tuple[complex, complex]:
    """The distinguished repelling fixed point and its multiplier.

    For the lambda form this is 1-lambda (multiplier 2-lambda).  For the c
    form it is the root (1 + sqrt(1-4c))/2 on the principal branch, which
    depends continuously on c along real parameter paths into [-2, 1/4).
    Raises NotRepelling when the multiplier fails |mu| > 1.
    """
    if qmap.kind == "lambda":
        z = 1.0 - qmap.param
    else:
        z = (1.0 + cmath.sqrt(1.0 - 4.0 * qmap.param)) / 2.0
    mu = complex(qmap.deriv(z))
    if abs(mu) <= 1.0:
        raise NotRepelling(f"fixed point {z} has |mu| = {abs(mu)} <= 1")
    return z, mu
