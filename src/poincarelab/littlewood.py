"""Spherical-derivative integrals of polynomials over the unit disk.

For P of degree n the quantity of interest is

    I(P) = Int_D  2 |P'(z)| / (1 + |P(z)|^2)  dx dy,

which Cauchy-Schwarz bounds by 2 pi sqrt(n) and which Littlewood conjectured
(Lewis and Wu proved) to grow like n^{1/2 - alpha}; here it is measured on
iterate families z -> z^2 + c.  The integrand has sharp ridges along the
preimages of the unit circle, so the quadrature (disk_integral) is adaptive
and global: polar cells under the degree-7 Genz-Malik rule, and rounds that
split the cells with the largest error estimates until their sum fits the
tolerance.  The estimate is empirical: nothing here proves a bound.

Symmetry: an evaluator may declare that the integrand is invariant under the
rotation z -> e^{2 pi i / m} z and, for real coefficients, under z -> conj(z)
(z^m: m and yes; iterates of z^2 + c: 2, and yes when c is real).  The disk is
then `fold` copies of one sector [0, 2 pi / fold), where fold = k (times 2
with conjugation) and k = gcd(m, 8) with conjugation, gcd(m, 16) without, so
fold divides 16 and the sector is the first 16 / fold cells of the 16-cell
angular mesh.  Only the sector is integrated; its sums, correctly rounded by
math.fsum, are multiplied by fold, a power of 2, so every stopping test on
the disk's error is exact (a round's test calls fsum only when a float sum
and its rounding error bracket cannot decide: _sum_at_most).  An evaluator
without a declaration has fold 1.

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
_CELL_SLICE = 1 << 12  # cells the rule evaluates at a time (bounds a round's temporaries)

# The degree-7 Genz-Malik rule on [-1, 1]^2 and its embedded degree-5 rule
# (Genz & Malik, J. Comput. Appl. Math. 6, 1980), weights scaled to sum to 1.
# Node j is (_NODE_R[j], _NODE_T[j]): the centre, (+-l2, 0), (0, +-l2),
# (+-l3, 0), (0, +-l3), (+-l3, +-l3) and (+-l5, +-l5); _W7 weighs the centre
# and the sums of the four groups of four after it, _W5 the first four of these.
_L2, _L3, _L5 = math.sqrt(9 / 70), math.sqrt(9 / 10), math.sqrt(9 / 19)
_NODE_R = np.array([0, _L2, -_L2, 0, 0, _L3, -_L3, 0, 0, _L3, _L3, -_L3, -_L3, _L5, _L5, -_L5, -_L5])
_NODE_T = np.array([0, 0, 0, _L2, -_L2, 0, 0, _L3, -_L3, _L3, -_L3, _L3, -_L3, _L5, -_L5, _L5, -_L5])
_NODES = _NODE_R.size
_W7 = np.array([-3816 / 19683, 980 / 6561, 1020 / 19683, 200 / 19683, 6859 / 78732])[:, None]
_W5 = np.array([-971 / 729, 245 / 486, 65 / 1458, 25 / 729])[:, None]


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
    """A disk integral.  Within the budget, error_bound is an error
    estimate, at most tol: the last integration's summed |I7 - I5| plus its
    distance from the one before (see disk_integral).  It is empirical, not
    proven.  Over the budget (budget_exceeded), value holds the cells as far
    as they were refined and error_bound is inf: no estimate is claimed."""

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


def _sum_at_most(x: np.ndarray, target: float) -> bool:
    """math.fsum(x) <= target for floats x >= 0, decided by np.sum if it can.

    Proof.  Let S be the exact sum of the n floats.  However numpy orders
    them, s = np.sum(x) takes n - 1 additions of floats >= 0, each exact or
    rounded by a factor 1 + d, |d| <= u = 2^-53 (subnormal sums are exact),
    so |s - S| <= g S with g = (n-1) u / (1 - (n-1) u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4).  For n < 2^50, m = (n+2) 2^-52
    keeps 1 +- m exact and exceeds g + u (1 + m); rounding s (1 +- m) moves
    it by at most u s (1 + m), and a subnormal s is S itself, so
    hi = fl(s (1 + m)) >= S >= fl(s (1 - m)) = lo.  fsum rounds S to nearest,
    a monotone map that fixes floats, so lo <= fsum(x) <= hi (a finite hi
    also keeps fsum from overflowing): hi <= target or lo > target decides.
    Else (undecided, inf or NaN) fsum decides, errors and all."""
    with np.errstate(over="ignore"):
        s = float(np.sum(x))
    m = (x.size + 2) * 2.0**-52
    hi = s * (1.0 + m)
    if hi < math.inf and (hi <= target or s * (1.0 - m) > target):
        return hi <= target
    return math.fsum(x.tolist()) <= target


def _radial_edges(ev: PolyEvaluator) -> np.ndarray:
    """The root mesh's radial edges: 8 uniform bands and a ladder inward from
    r = 1, gaps doubling from ~1/(4 degree): P^# peaks where |P| = 1, which
    every node of an outer cell can miss without it (z^4096 would give 0)."""
    w = max(1.0 / (4.0 * max(int(ev.degree), 1)), 1e-6)
    ladder = w * 2.0 ** np.arange(0, 12)
    merged = np.unique(np.concatenate([np.linspace(0.0, 1.0, 9), 1.0 - ladder[ladder <= 0.26]]))
    return merged[np.concatenate([[True], np.diff(merged) > 1e-9])]


def _rule(ev: PolyEvaluator, cells: np.ndarray) -> np.ndarray:
    """Rows (I7, |I7 - I5|, radial) for the polar cells whose rows are
    (r centre, theta centre, r half-width, theta half-width): the cells'
    integrals of P^# r, their error estimates, and 1.0 where a cell splits
    along r (its fourth difference across r is at least that across theta).
    The rule runs _CELL_SLICE cells at a time; a cell's rows depend on that
    cell alone, so the slice size changes no bit."""
    out = np.empty((3, cells.shape[1]))
    for lo in range(0, cells.shape[1], _CELL_SLICE):
        rc, tc, hr, ht = cells[:, lo:lo + _CELL_SLICE]
        r = rc + hr * _NODE_R[:, None]
        z = r * np.exp(1j * (tc + ht * _NODE_T[:, None]))
        f = _sph_many(ev, z.ravel()).reshape(z.shape) * r
        groups = np.concatenate([f[:1], f[1:].reshape(4, 4, -1).sum(axis=1)])
        area = 4.0 * hr * ht
        i7 = area * (_W7 * groups).sum(axis=0)
        i5 = area * (_W5 * groups[:4]).sum(axis=0)
        two = 2.0 * f[0]
        across_r = np.abs(f[1] + f[2] - two - (f[5] + f[6] - two) / 7.0)
        across_t = np.abs(f[3] + f[4] - two - (f[7] + f[8] - two) / 7.0)
        out[:, lo:lo + _CELL_SLICE] = i7, np.abs(i7 - i5), across_r >= across_t
    return out


def _integrate(ev: PolyEvaluator, cells: np.ndarray, target: float, evals: int):
    """Refine the cells (rows as in _rule) until their error estimates sum
    to at most target.  Each round splits the worst cells in two, along the
    axis _rule chose, until the cells left whole sum to at most target / 2;
    a round past EVAL_BUDGET splits the worst cells that fit and is the last.
    Returns (sum of I7, sum of estimates, evaluations, over budget)."""
    cells = np.concatenate([cells, _rule(ev, cells)])
    evals += _NODES * cells.shape[1]
    over = False
    while not (over or _sum_at_most(cells[5], target)):
        order = np.argsort(cells[5], kind="stable")
        whole = np.searchsorted(np.cumsum(cells[5, order]), 0.5 * target, side="right")
        split = order[min(whole, order.size - 1):]
        room = max(EVAL_BUDGET - evals, 0) // (2 * _NODES)
        if split.size > room:
            split, over = split[split.size - room:], True
        rc, tc, hr, ht, _, _, radial = cells[:, split]
        hr, ht = hr / (1.0 + radial), ht / (2.0 - radial)  # the split axis halves
        dr, dt = hr * radial, ht * (1.0 - radial)
        kids = np.concatenate([[rc - dr, tc - dt, hr, ht], [rc + dr, tc + dt, hr, ht]], axis=1)
        evals += _NODES * kids.shape[1]
        kids = np.concatenate([kids, _rule(ev, kids)])
        cells[:, split] = kids[:, :split.size]  # the low halves take their parents' places
        cells = np.concatenate([cells, kids[:, split.size:]], axis=1)
    return math.fsum(cells[4].tolist()), math.fsum(cells[5].tolist()), evals, over


def disk_integral(ev: PolyEvaluator, tol: float) -> IntegralEstimate:
    """Adaptive polar quadrature of the spherical derivative over the unit
    disk, checked against a refined root mesh.

    The root mesh is the symmetry sector's 16 / fold angular cells times the
    radial bands of _radial_edges.  _integrate refines it until fold times
    its error sum is at most tol / 2; then the root mesh is halved in r and
    theta and integrated again, until two successive values agree within
    tol / 2.  value is the last one, and error_bound its error sum plus the
    distance between the two: at most tol to the bit, since the stopping
    tests read the same floats.  Every node must give a finite spherical
    derivative, else OverflowSentinel.  Past EVAL_BUDGET (a round that does
    not fit, or a root mesh after the first) the last value reached is
    returned with error_bound = inf and budget_exceeded set."""
    if not (0.0 < tol < math.inf):
        raise BadParams("tol must be positive and finite")
    fold = _fold(ev)
    r_edges = _radial_edges(ev)
    t_edges = np.linspace(0.0, math.tau, 17)[:16 // fold + 1]
    evals, last = 0, None
    while True:
        (rc, hr), (tc, ht) = ((0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e))
                              for e in (r_edges, t_edges))
        cells = np.array(np.broadcast_arrays(rc[:, None], tc, hr[:, None], ht)).reshape(4, -1)
        if last is not None and evals + _NODES * cells.shape[1] > EVAL_BUDGET:
            return IntegralEstimate(last, math.inf, evals, int(ev.degree), True)
        value, error, evals, over = _integrate(ev, cells, 0.5 * tol / fold, evals)
        value *= fold
        if over:
            return IntegralEstimate(value, math.inf, evals, int(ev.degree), True)
        if last is not None and abs(value - last) <= 0.5 * tol:
            return IntegralEstimate(value, fold * error + abs(value - last), evals, int(ev.degree))
        last = value
        r_edges, t_edges = (np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])]))
                            for e in (r_edges, t_edges))


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
    if not (1 <= n_max <= 10):  # past degree 1024 the estimates move with the root mesh
        raise BadParams("n_max must be in 1..10")
    return [disk_integral(iterate_evaluator(c, n), tol=tol) for n in range(1, n_max + 1)]


def exponent_fit(estimates) -> ExponentFit:
    """Least squares of log value against log degree; alpha_hat = 1/2 - slope."""
    by_degree = sorted(estimates, key=lambda e: e.degree)
    if len({e.degree for e in by_degree}) < 4:
        raise InsufficientData("need at least 4 estimates with distinct degrees")
    x = np.log([float(e.degree) for e in by_degree])
    y = np.log([e.value for e in by_degree])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    return ExponentFit(pairs=list(zip(x.tolist(), y.tolist())), slope=float(slope),
                       alpha_hat=0.5 - float(slope),
                       residual=float(np.sqrt(np.mean((y - fit) ** 2))))


def family_csv(estimates) -> str:
    return csv_text(["degree", "value", "error_estimate", "cs_bound", "evaluations"],
                    [[e.degree, e.value, e.error_bound, cs_bound(e.degree), e.evaluations]
                     for e in estimates])
