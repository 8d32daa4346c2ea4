"""Spherical-derivative integrals of polynomials over the unit disk.

For P of degree n the quantity of interest is

    I(P) = Int_D  2 |P'(z)| / (1 + |P(z)|^2)  dx dy,

which Cauchy-Schwarz bounds by 2 pi sqrt(n) and which is conjectured (and
here measured) to grow like n^{1/2 - alpha} on iterate families z -> z^2 + c.
The integrand has sharp ridges along the preimages of the unit circle, so the
quadrature is adaptive: polar cells, area-weighted midpoint values, one
Richardson level per cell, and subdivision wherever the two disagree by more
than the cell's share of the tolerance.  EVAL_BUDGET caps the refinement:
cells still open when the next level would pass it (or after _MAX_LEVELS
levels) are added at their midpoint values, and the estimate then claims
no error bound (error_bound = inf, budget_exceeded).

Symmetry: an evaluator may declare that the integrand is invariant under the
rotation z -> e^{2 pi i / m} z and, for real coefficients, under z -> conj(z)
(z^m: m and yes; iterates of z^2 + c: 2, and yes when c is real).  The disk is
then `fold` copies of one sector [0, 2 pi / fold), where fold = k (times 2
with conjugation) and k = gcd(m, 8) with conjugation, gcd(m, 16) without, so
fold divides 16 and the sector is the first 16 / fold cells of the 16-cell
angular mesh.  Only the sector is integrated, under the same per-cell
acceptance rule; its value and error sums are multiplied by fold.  The
sector's error sum is at most tol / fold, so the disk's stays at most tol.
`evaluations` counts the evaluations made.  An evaluator without a
declaration has fold 1.

Memory and cache: a level's open cells are held in chunks of _LEVEL_SLICE =
4096 cells and refined a chunk (a slice) at a time.  A slice probes 16,384
points, so each complex temporary of the evaluator and of _refine_slice is
256 KB and each float one 128 KB, and a slice's working set stays in a 2 MB
L2 cache; at 2^14 cells each complex temporary was 1 MB and spilled out of
L2 on every pass.  On a 2-vCPU Xeon (2 MB L2 per core) the 18 integrals of
the benchmark's quadrature workload took a median of 421 ms with 2^11 cells
a slice, 404 ms with 2^12, 429 ms with 2^13 and 567 ms with 2^14 (15
alternating runs in one process).  A refined slice writes its rejected
cells' children into the next level's chunks and is dropped, so only the
open cells (r0, r1, angle id, coarse value: 32 bytes) of the rest of one
level and the start of the next are held: iterate_evaluator(-1, n) at tol
1e-4 peaks at 50, 100 and 180 MB (ru_maxrss) for n = 6, 7 and 8, against
71, 192 and 399 MB with whole levels concatenated.  The sums are exact and
a cell's children depend on that cell alone, so every value, error and
evaluation count is independent of the slice size and of the order of the
open cells.  The angle id indexes a table of the angular intervals met so
far (edges, width and e^{i mid-angle}), which is small: every edge is the
midpoint of its parent's, so each dyadic interval has one entry.  Accepted
cells' values and errors are not kept: they go into exact sums (_ExactSum),
binned _SUM_BLOCK floats at a time and rounded once at the end.

Iterates are never expanded into coefficients; P^n and its derivative are
computed by forward iteration with the chain rule.  Lanes whose orbit passes
1e50 in modulus are frozen with derivative zero: from that point on the true
spherical derivative is below 1e-40, far under any tolerance used here.  The
lanes are tested only once a bound on |w| carried along the orbit says that
one may have passed 1e50.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParams, InsufficientData, OverflowSentinel
from .serialize import csv_text

EVAL_BUDGET = 100_000_000
ESCAPE_BOUND = 1e50
_MAX_LEVELS = 48
_SUM_BLOCK = 1 << 14  # floats binned at a time by _ExactSum (keeps its bin sums exact)
_LEVEL_SLICE = 1 << 12  # open cells refined at a time (a slice's temporaries stay in L2)


@dataclass(frozen=True)
class PolyEvaluator:
    """Polynomial with derivative, vectorized over complex arrays.

    fn may carry an attribute ``symmetry = (rotation, conjugation)``: the
    spherical derivative is invariant under z -> e^{2 pi i / rotation} z and,
    if conjugation is true, under z -> conj(z).  It sits on fn rather than in
    a field so that a wrapper built with functools.wraps keeps it."""

    degree: int
    label: str
    fn: Callable  # ndarray -> (values, derivatives)

    def __call__(self, z):
        """fn at z; BadParams unless every lane is finite."""
        z = np.asarray(z, dtype=complex)
        if not np.all(np.isfinite(z)):
            raise BadParams(f"{self.label} evaluated at non-finite points")
        return self.fn(z)

    @property
    def symmetry(self) -> tuple[int, bool]:
        """fn's declared (rotation, conjugation); (1, False) if it has none."""
        return getattr(self.fn, "symmetry", (1, False))


@dataclass(frozen=True)
class IntegralEstimate:
    """A disk integral.  Within the budget, error_bound is the sum of the
    accepted cells' Richardson errors (at most tol).  Over it
    (budget_exceeded), value holds the cells left open at their midpoint
    values and error_bound is inf: no bound is claimed."""

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
        # z^(n-1) by repeated squaring, then z^n from it: numpy's own complex
        # power turns about 10x slower from exponent 100 on
        below = None
        base, k = z, n - 1
        while k:
            if k & 1:
                below = base if below is None else below * base
            k >>= 1
            if k:
                base = base * base
        if below is None:  # n == 1
            return z.copy(), np.ones_like(z)
        return below * z, n * below

    fn.symmetry = (n, True)
    return PolyEvaluator(degree=n, label=f"z^{n}", fn=fn)


def coeff_evaluator(coeffs) -> PolyEvaluator:
    c = np.asarray(coeffs, dtype=complex)
    if len(c) < 2:
        raise BadParams("need at least a linear polynomial")
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails at the probes
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
    """The n-th iterate of z^2 + c (degree 2^n), with escape freezing.

    Only the live lanes are carried from step to step, compacted in order,
    and scattered out when some escape.  Every array operation thus runs on
    as many lanes as a masked update of the live lanes (the reference in
    tests/test_littlewood.py), which keeps its bits: numpy rounds an
    in-place complex multiply of one element (one live lane) differently
    from a longer one.  So the steps run in place, with one scratch array
    per call, only while two or more lanes live; one lane takes the
    reference's out-of-place step.

    bound starts at max |Re z| + max |Im z| and follows bound^2 + |c|, grown
    by 2^-40 per step to cover the step's rounding (a few ulp), so every
    |w| stays at most bound; the lanes are tested for escape only once bound
    passes ESCAPE_BOUND / 1000.  A NaN or infinite bound fails the
    comparison, so its lanes are tested."""
    if n < 1:
        raise BadParams("iterate count must be >= 1")
    c = complex(c)
    abs_c = abs(c)
    limit = ESCAPE_BOUND / 1000.0

    def fn(z):
        w = z.ravel()
        d = np.ones_like(w)
        t = np.empty_like(w)
        bound = float(np.max(np.abs(w.real), initial=0.0)
                      + np.max(np.abs(w.imag), initial=0.0))
        out_w = pos = None
        for step in range(n):
            if w.size <= 1:
                d *= 2.0 * w
                w = w**2 + c
            else:  # in place, after the first step, which must leave z as it is
                d *= np.multiply(2.0, w, out=t[:w.size])
                w = np.square(w, out=w if step else None)
                np.add(w, c, out=w)
            bound = (bound * bound + abs_c) * (1.0 + 2.0**-40)
            if bound <= limit:
                continue  # no lane can have passed ESCAPE_BOUND
            escaped = np.abs(w) > ESCAPE_BOUND
            if escaped.any():
                if out_w is None:
                    out_w, out_d = np.empty_like(w), np.zeros_like(w)
                    pos = np.arange(w.size)
                out_w[pos[escaped]] = w[escaped]  # frozen, derivative zero
                live = ~escaped
                pos, w, d = pos[live], w[live], d[live]
        if out_w is not None:
            out_w[pos] = w
            out_d[pos] = d
            w, d = out_w, out_d
        return w.reshape(z.shape), d.reshape(z.shape)

    fn.symmetry = (2, c.imag == 0.0)
    return PolyEvaluator(degree=2**n, label=f"iterate(c={c}, n={n})", fn=fn)


def _sph_many(ev: PolyEvaluator, z: np.ndarray) -> np.ndarray:
    """The spherical derivative at every point of z; OverflowSentinel,
    without a numpy warning, unless every value is finite.  |P| past the
    float range is fine: its value is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        v, d = ev.fn(z)
        sph = np.abs(d)
        sph *= 2.0
        den = np.abs(v)
        np.square(den, out=den)
        den += 1.0
        sph /= den
    if not np.isfinite(sph).all():
        bad = np.count_nonzero(~np.isfinite(sph))
        raise OverflowSentinel(
            f"{ev.label}: spherical derivative not finite at {bad} of {sph.size} points")
    return sph


def _fold(ev: PolyEvaluator) -> int:
    """How many copies of the integrated sector make up the disk (divides 16)."""
    rotation, conjugation = ev.symmetry
    if conjugation:
        return 2 * math.gcd(rotation, 8)
    return math.gcd(rotation, 16)


class _ExactSum:
    """The correctly rounded sum of float arrays added one at a time:
    math.fsum's value, without keeping the floats.

    A float of biased exponent k is a multiple of u_k = 2^(max(k, 1) - 1075),
    below 2^53 u_k in modulus.  add() copies the floats into a buffer, and
    each full buffer of _SUM_BLOCK = 2^14 floats is binned by k with
    np.bincount: each float splits exactly into hi, its significand with the
    low 27 bits cleared (a multiple of 2^27 u_k), and lo = x - hi (below
    2^27 u_k).  Every partial sum in bin k is then a multiple of its unit
    below 2^40 (hi) or 2^41 (lo) units, so float64 holds it exactly, and
    the bin sums move into int64 accumulators, exact below 2^36 floats
    added.  The sum is exact, so how the floats are grouped into add()
    calls and blocks cannot change it; the buffer only makes each bincount
    pay off.  total() bins what the buffer holds and rounds the exact sum
    once.

    Floats of k >= _BINS (|x| >= 2^1009, where a hi sum of 2^14 floats
    could overflow) and non-finite floats are kept apart, in order.  The
    former are integers and join the exact sum as such; the latter go
    through math.fsum with the finite total, so NaN, infinities, its
    ValueError for inf - inf and the OverflowError of a sum past the
    largest float are those of math.fsum."""

    _BINS = 2032  # k = 0 .. 2031; larger k are kept apart
    _UNIT = np.maximum(np.arange(_BINS), 1) - 1075  # log2 u_k

    def __init__(self):
        self._low = np.zeros(self._BINS, dtype=np.int64)  # units u_k
        self._high = np.zeros(self._BINS, dtype=np.int64)  # units 2^27 u_k
        self._rare: list[float] = []
        self._buf = np.empty(_SUM_BLOCK, dtype=np.int64)  # float bits
        self._used = 0

    def add(self, x: np.ndarray) -> None:
        bits = np.asarray(x, dtype=np.float64).ravel().view(np.int64)
        while bits.size:
            take = min(bits.size, _SUM_BLOCK - self._used)
            self._buf[self._used:self._used + take] = bits[:take]
            self._used += take
            bits = bits[take:]
            if self._used == _SUM_BLOCK:
                self._bin()

    def _bin(self) -> None:
        """Add the buffered floats to the bins and empty the buffer."""
        b = self._buf[:self._used]
        self._used = 0
        k = b >> 52
        k &= 0x7FF
        if k.max(initial=0) >= self._BINS:
            rare = k >= self._BINS
            self._rare.extend(b[rare].view(np.float64).tolist())
            b, k = b[~rare], k[~rare]
        hi = (b & ~((1 << 27) - 1)).view(np.float64)
        lo = b.view(np.float64) - hi
        high = np.bincount(k, weights=hi, minlength=self._BINS)
        low = np.bincount(k, weights=lo, minlength=self._BINS)
        self._high += np.ldexp(high, -27 - self._UNIT).astype(np.int64)
        self._low += np.ldexp(low, -self._UNIT).astype(np.int64)

    def total(self) -> float:
        self._bin()
        exact = 0  # the sum in units of 2^-1074
        for k in np.flatnonzero(self._low | self._high).tolist():
            exact += ((int(self._high[k]) << 27) + int(self._low[k])) << max(k - 1, 0)
        special = []
        for x in self._rare:
            if math.isfinite(x):
                exact += int(x) << 1074
            else:
                special.append(x)
        # int / int is correctly rounded and raises OverflowError past the
        # largest float, as math.fsum does
        finite = exact / (1 << 1074)
        return math.fsum([finite, *special]) if special else finite


def _seed_radial_edges(ev: PolyEvaluator):
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
    w = max(1.0 / (4.0 * max(int(ev.degree), 1)), 1e-6)
    ladder = w * 2.0 ** np.arange(0, 12)
    ladder = ladder[ladder <= 0.26]

    scan_r = np.linspace(1.0 / 512.0, 1.0, 512)
    scan_t = np.arange(32) * (math.tau / 32.0)
    grid = scan_r[:, None] * np.exp(1j * scan_t[None, :])
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails at the root mesh
        v, _ = ev(grid.ravel())
        mag = np.abs(v).reshape(grid.shape) - 1.0
    sign_flip = (mag[:-1] < 0.0) & (mag[1:] > 0.0) | (mag[:-1] > 0.0) & (mag[1:] < 0.0)
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


class _Angles:
    """The angular intervals of one quadrature, by id: edges t0 and t1,
    width dt = t1 - t0, e = exp(i * mid-angle) and the ids of the low and
    high halves (-1 until a level first needs them).  A half's new edge is
    0.5 * (t0 + t1) of its parent's, so an interval's floats depend only on
    its dyadic position and every cell on it shares its one entry."""

    def __init__(self, edges: np.ndarray):
        self.t0 = self.t1 = self.dt = self.e = np.empty(0)
        self.low = self.high = np.empty(0, dtype=np.intp)
        self._append(edges[:-1], edges[1:])
        self.split(np.ones(self.t0.size, dtype=bool))

    def _append(self, t0, t1):
        self.t0 = np.concatenate([self.t0, t0])
        self.t1 = np.concatenate([self.t1, t1])
        self.dt = np.concatenate([self.dt, t1 - t0])
        self.e = np.concatenate([self.e, np.exp(1j * (0.5 * (t0 + t1)))])
        unsplit = np.full(t0.size, -1, dtype=np.intp)
        self.low = np.concatenate([self.low, unsplit])
        self.high = np.concatenate([self.high, unsplit])

    def split(self, needed: np.ndarray) -> None:
        """Give the intervals marked in needed (a mask over the table)
        their halves where they have none yet."""
        new = np.flatnonzero(needed & (self.low < 0))
        if new.size == 0:
            return
        first = self.t0.size
        self.low[new] = first + np.arange(new.size)
        self.high[new] = first + new.size + np.arange(new.size)
        t0, t1 = self.t0[new], self.t1[new]
        tm = 0.5 * (t0 + t1)
        self._append(np.concatenate([t0, tm]), np.concatenate([tm, t1]))


class _Chunks:
    """Open cells written in order into chunks of _LEVEL_SLICE cells, each
    a tuple of arrays (r0, r1, angle id, coarse value) cut to its cells."""

    def __init__(self):
        self.chunks, self._used = [], _LEVEL_SLICE

    def write(self, fields, idx):
        """Append the cells idx of the four slice arrays fields."""
        while idx.size:
            if self._used == _LEVEL_SLICE:  # the last chunk is full
                block = np.empty((4, _LEVEL_SLICE))  # one allocation a chunk
                self._rows = (block[0], block[1], block[2].view(np.int64), block[3])
                self.chunks.append(self._rows)
                self._used = 0
            k = min(idx.size, _LEVEL_SLICE - self._used)
            for src, dst in zip(fields, self._rows):
                np.take(src, idx[:k], out=dst[self._used:self._used + k])
            self._used += k
            self.chunks[-1] = tuple(a[:self._used] for a in self._rows)
            idx = idx[k:]


def _refine_slice(ev, tol, angles, r0, r1, aid, coarse, out, needed):
    """Probe a slice of a level's open cells (radial edges, angle id and
    coarse value of each; angles holds the halves of their intervals) with
    their 4 children.  Writes the rejected cells' children to out (a
    _Chunks) in 4 groups, marks the angular children's intervals in needed
    and returns the accepted cells' estimates and their errors."""
    n = r0.size
    rm = 0.5 * (r0 + r1)
    lo_id = angles.low[aid]
    hi_id = angles.high[aid]
    e = angles.e[aid]
    # children: radial split (low r, high r), then angular (low t, high t)
    cm = np.empty(4 * n, dtype=complex)
    np.multiply(0.5 * (r0 + rm), e, out=cm[:n])
    np.multiply(0.5 * (rm + r1), e, out=cm[n:2 * n])
    np.multiply(rm, angles.e[lo_id], out=cm[2 * n:3 * n])
    np.multiply(rm, angles.e[hi_id], out=cm[3 * n:])
    cvals = _sph_many(ev, cm).reshape(4, n)
    r0sq, rmsq, r1sq = r0**2, rm**2, r1**2
    half = 0.5 * (r1sq - r0sq)
    dt = angles.dt[aid]
    cvals[0] *= 0.5 * (rmsq - r0sq) * dt
    cvals[1] *= 0.5 * (r1sq - rmsq) * dt
    cvals[2] *= half * angles.dt[lo_id]
    cvals[3] *= half * angles.dt[hi_id]
    fine_r = cvals[0] + cvals[1]
    fine_t = cvals[2] + cvals[3]
    # half-step-in-both-dimensions estimate up to cross terms
    fine = fine_r + fine_t - coarse
    diff = (fine - coarse) / 3.0
    err = np.abs(diff)
    ok = err <= tol * (half * dt) / math.pi
    keep = np.flatnonzero(~ok)
    radial = (np.abs(fine_r - coarse) >= np.abs(fine_t - coarse))[keep]
    ri = keep[radial]
    ti = keep[~radial]
    out.write((r0, rm, aid, cvals[0]), ri)
    out.write((rm, r1, aid, cvals[1]), ri)
    out.write((r0, r1, lo_id, cvals[2]), ti)
    out.write((r0, r1, hi_id, cvals[3]), ti)
    needed[lo_id[ti]] = needed[hi_id[ti]] = True
    accepted = np.flatnonzero(ok)
    return (fine + diff)[accepted], err[accepted]


def disk_integral(ev: PolyEvaluator, tol: float) -> IntegralEstimate:
    """Adaptive polar quadrature of the spherical derivative over the unit
    disk.

    Each open cell is probed with both one-dimensional bisections (radial and
    angular midpoints, 4 evaluations); their sum minus the parent midpoint is
    the fully-refined estimate, giving the usual Richardson discrepancy.  A
    cell is accepted when that discrepancy is below its area share of tol
    (err <= tol * area / pi); otherwise it splits along the dimension whose
    discrepancy dominates, so ridge-like integrands (P^# concentrates where
    |P| is near 1) refine across the ridge instead of exploding four ways.
    A level is refined only if its 4 evaluations per open cell fit in
    EVAL_BUDGET, so evaluations exceed it only when the seed scan and root
    mesh (about 2e4) already do; cells still open then (or after
    _MAX_LEVELS levels) are added at the midpoint values they carry, with
    error_bound = inf and budget_exceeded set.  Every probe must give
    a finite spherical derivative, else OverflowSentinel.

    With a declared symmetry (see the module docstring) only the sector
    [0, 2 pi / fold) is meshed: the first 16 / fold angular cells of the
    16-cell mesh, refined by the same rule.  value and error_bound are fold
    times the sector's correctly rounded sums of accepted values and of
    error estimates, so error_bound stays at most tol within the budget;
    evaluations counts only what was evaluated.  With fold 1 this is the
    whole disk.

    Each level streams through chunks of _LEVEL_SLICE = 4096 open cells,
    refined one at a time (a chunk's 16,384 probes stay in a 2 MB L2
    cache); a chunk's rejected cells write their 4 child groups, in order,
    into the next level's chunks (timings and peaks in the module
    docstring).  The budget is checked per level, from the chunk sizes, and
    the sums are exact, so the result has the same bits for any slice size.
    The cells' angles come from one table of intervals (_Angles), computed
    once per interval and split once per level."""
    if not (0.0 < tol < math.inf):
        raise BadParams("tol must be positive and finite")
    fold = _fold(ev)

    r_edges, evals = _seed_radial_edges(ev)
    nt = 16 // fold
    angles = _Angles(np.linspace(0.0, math.tau, 17)[:nt + 1])
    nr = r_edges.size - 1
    r0 = np.repeat(r_edges[:-1], nt)
    r1 = np.repeat(r_edges[1:], nt)
    aid = np.tile(np.arange(nt), nr)
    coarse = (_sph_many(ev, 0.5 * (r0 + r1) * angles.e[aid])
              * (0.5 * (r1**2 - r0**2) * angles.dt[aid]))
    evals += r0.size

    value = _ExactSum()  # the accepted cells' estimates
    error = _ExactSum()  # and their error estimates

    level = [tuple(a[lo:lo + _LEVEL_SLICE] for a in (r0, r1, aid, coarse))
             for lo in range(0, r0.size, _LEVEL_SLICE)]  # the open cells, in chunks
    for _level in range(_MAX_LEVELS):
        n = sum(chunk[0].size for chunk in level)
        if n == 0 or evals + 4 * n > EVAL_BUDGET:
            break
        evals += 4 * n
        children = _Chunks()
        needed = np.zeros(angles.t0.size, dtype=bool)
        while level:  # each chunk is dropped once refined
            accepted, errs = _refine_slice(ev, tol, angles, *level.pop(0), children, needed)
            value.add(accepted)
            error.add(errs)
        angles.split(needed)
        level = children.chunks

    budget_hit = bool(level)  # over budget, or out of levels
    for chunk in level:
        value.add(chunk[3])  # the open cells at their midpoint values
    return IntegralEstimate(
        value=fold * value.total(),
        error_bound=math.inf if budget_hit else fold * error.total(),
        evaluations=evals,
        degree=int(ev.degree),
        budget_exceeded=budget_hit,
    )


def cs_bound(degree: int) -> float:
    """The Cauchy-Schwarz ceiling 2 pi sqrt(degree)."""
    return math.tau * math.sqrt(degree)


def monomial_integral_oracle(n: int) -> float:
    """Independent 1-D reduction for P = z^n:
    Int_D (z^n)^# dA = 4 pi Int_0^1 u^{1/n} / (1+u^2) du.

    The 1-D integral is composite 16-point Gauss-Legendre on the dyadic
    panels [2^-(j+1), 2^-j], j < 60: u^{1/n} is smooth on each panel at the
    panel's own scale, and the part below 2^-60 is under 1e-18."""
    u, w = _dyadic_gauss_legendre()
    return 4.0 * math.pi * float(np.dot(w, u ** (1.0 / n) / (1.0 + u * u)))


@functools.cache
def _dyadic_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the oracle's rule on (0, 1], built once."""
    x, w = np.polynomial.legendre.leggauss(16)
    lo = 2.0 ** -np.arange(1, 61)[:, None]  # panel j is [lo_j, 2 lo_j]
    return (lo * (1.5 + 0.5 * x)).ravel(), (lo * (0.5 * w)).ravel()


def iterate_family_integrals(c: complex, n_max: int, tol: float):
    """IntegralEstimates for the iterates n = 1..n_max of z^2 + c."""
    if not (1 <= n_max <= 14):
        raise BadParams("n_max must be in 1..14")
    return [
        disk_integral(iterate_evaluator(c, n), tol=tol)
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
    return csv_text(["degree", "value", "error_bound", "cs_bound", "evaluations"],
                    [[e.degree, e.value, e.error_bound, cs_bound(e.degree), e.evaluations]
                     for e in estimates])
