"""Parameter searches near c = -2: superattracting centers, parabolic
perturbations, and Siegel-cycle parameters for z^2 + c.

The pipeline per period q mirrors a three-stage construction:

  1. bisect the real equation Q_c^q(0) = 0 for the center closest to -2
     (the leftmost real sign change in the bracket),
  2. from that center, Newton in the pair (z, c) on P_c^q(z) = z and
     (P_c^q)'(z) = m, with m walked in equal steps from the center's
     multiplier 0 to -1 (parabolic) or to e^{2 pi i gamma} with a
     bounded-type gamma near 1/2 (Siegel cycle),
  3. read off the repelling fixed point branch z(c) = (1 + sqrt(1-4c))/2
     continuing z = 2, whose multiplier mu = 2 z(c) stays below 4 in modulus
     and drives the order rho = log 2 / log |mu| down toward 1/2.

The seed cycle and the cycle found are checked for merged points (a period
halving), which raises CycleCollision rather than returning the wrong cycle.
A search returns a ParamSearchResult: c, the cycle (with its period and
multiplier) and the residual; which search made it is the caller's to know.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyncore import (
    Cycle,
    QuadMap,
    cycle_through,
    find_cycle,
    order_from_multiplier,
    repelling_fixed_point,
)
from .errors import (
    BadParams,
    CycleCollision,
    NoConvergence,
    NoSignChange,
    PoincareLabError,
)
from .siegel import RotationAngle, build_cycle_siegel_map

_SCAN_POINTS = 4096
_PATH_STEPS = 8
_COLLISION_GAP = 1e-8
_NEWTON_ITERS = 60
_STEP_TOL = 1e-15


@dataclass(frozen=True)
class ParamSearchResult:
    c: complex
    cycle: Cycle  # period q, and the multiplier the search reached
    residual: float


@dataclass(frozen=True)
class FamilyRow:
    q: int
    c_super: Optional[float]
    c_parabolic: Optional[complex]
    c_siegel: Optional[complex]
    z_fixed: Optional[complex]
    mu: Optional[complex]
    rho: Optional[float]
    siegel_residual: Optional[float]
    mult_residual: Optional[float] = None  # worst |m(cycle) - target| over the row's searches
    error: Optional[str] = None


@dataclass(frozen=True)
class FamilyReport:
    rows: list  # of FamilyRow
    gamma: float
    limits: dict  # asymptotics summary


def _critical_orbit_value(c: float, q: int) -> float:
    z = 0.0
    for _ in range(q):
        z = z * z + c
    return z


def _bisect(q: int, a: float, b: float) -> float:
    """Bisect Q_c^q(0) on a sign-change bracket [a, b] until the midpoint
    is an endpoint; of the two adjacent doubles left, the one with the
    smaller |Q_c^q(0)|."""
    fa, fb = _critical_orbit_value(a, q), _critical_orbit_value(b, q)
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            break
        fm = _critical_orbit_value(m, q)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def find_superattracting(q: int, bracket) -> ParamSearchResult:
    """Real c with Q_c^q(0) = 0, the root closest to -2 inside the bracket
    (first sign change scanning upward from the left endpoint)."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if q < 1:
        raise BadParams("q must be >= 1")
    if not (-2.0 < lo < hi <= 0.25):
        raise BadParams("bracket must lie within (-2, 0.25]")
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = np.array([_critical_orbit_value(c, q) for c in grid])
    root = None
    exact = np.nonzero(vals == 0.0)[0]
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    first_exact = exact[0] if exact.size else None
    first_flip = sign_change[0] if sign_change.size else None
    if first_exact is not None and (first_flip is None or first_exact <= first_flip):
        root = float(grid[first_exact])
    elif first_flip is not None:
        i = int(first_flip)
        root = _bisect(q, float(grid[i]), float(grid[i + 1]))
    if root is None:
        raise NoSignChange(f"no sign change of the critical orbit in {bracket}")
    root += 0.0  # report c = -0.0 as 0.0
    # deep centers have |dQ/dc| * ulp(c) above 1e-12: no double does better
    z = dz = 0.0
    for _ in range(q):
        z, dz = z * z + root, 2.0 * z * dz + 1.0
    resid = abs(z)
    if resid >= max(1e-12, abs(dz) * math.ulp(root)):
        raise NoConvergence(f"bisection residual {resid:.3e} at c={root}")
    qm = QuadMap(kind="c", param=complex(root))
    cyc = Cycle(points=cycle_through(qm, 0.0 + 0.0j, q).points, period=q,
                multiplier=0.0 + 0.0j)
    return ParamSearchResult(c=complex(root), cycle=cyc, residual=resid)


def _cycle(c: complex, z1: complex, q: int) -> Cycle:
    """The period-q cycle of z^2 + c through z1; CycleCollision when two of
    its points have merged (a period halving)."""
    cyc = cycle_through(QuadMap(kind="c", param=c), z1, q)
    scale = max(1.0, max(abs(p) for p in cyc.points))
    if cyc.min_gap() < _COLLISION_GAP * scale:
        raise CycleCollision(f"period-{q} cycle points merged at c={c}")
    return cyc


def _newton_step(z: complex, c: complex, q: int, m: complex):
    """The Newton step (dz, dc) on P_c^q(z) = z, (P_c^q)'(z) = m.

    Along the orbit w_k = P_c^k(z) the chain rule carries a = dw/dz,
    b = dw/dc and the derivatives a_z, a_c of a, which give the exact
    Jacobian rows (a - 1, b) and (a_z, a_c)."""
    w, a, b, a_z, a_c = z, 1.0, 0.0, 0.0, 0.0
    for _ in range(q):
        w, a, b, a_z, a_c = (w * w + c, 2.0 * w * a, 2.0 * w * b + 1.0,
                             2.0 * (a * a + w * a_z), 2.0 * (a * b + w * a_c))
    f, g = w - z, a - m
    det = (a - 1.0) * a_c - b * a_z
    if det == 0 or not all(map(cmath.isfinite, (f, g, det))):
        raise NoConvergence(f"multiplier Newton Jacobian singular or not finite at c={c}")
    return (a_c * f - b * g) / det, ((a - 1.0) * g - a_z * f) / det


def find_multiplier_param(q: int, target: complex, seed_c: complex) -> ParamSearchResult:
    """The parameter whose period-q cycle, continued from the cycle of seed_c
    through find_cycle(seed_c, q, 0), has multiplier `target`.

    Newton in (z, c) on P_c^q(z) = z and (P_c^q)'(z) = m, with m walked
    from the seed cycle's multiplier to the target in _PATH_STEPS equal
    steps.  The multiplier map of a hyperbolic component is a conformal
    isomorphism onto the disk, so from a center this path is regular.
    Raises NoConvergence when a Jacobian is singular or not finite, or a
    step does not converge; CycleCollision when two points of the seed or
    the final cycle merge."""
    target, c = complex(target), complex(seed_c)
    z = find_cycle(QuadMap(kind="c", param=c), q, 0.0 + 0.0j).points[0]
    m0 = _cycle(c, z, q).multiplier
    for s in range(1, _PATH_STEPS + 1):
        m_t = m0 + s / _PATH_STEPS * (target - m0)
        for _ in range(_NEWTON_ITERS):
            dz, dc = _newton_step(z, c, q, m_t)
            z, c = z - dz, c - dc
            if abs(dz) <= _STEP_TOL * (1 + abs(z)) and abs(dc) <= _STEP_TOL * (1 + abs(c)):
                break
        else:
            raise NoConvergence(f"multiplier Newton did not converge at step {s}/{_PATH_STEPS}")
    cyc = _cycle(c, z, q)
    res = abs(cyc.multiplier - target)
    if not res < 1e-8:  # NaN fails too
        raise NoConvergence(f"multiplier Newton ended at residual {res:.3e}")
    return ParamSearchResult(c=c, cycle=cyc, residual=res)


def repelling_fixed_data(c: complex):
    """(z_fixed, mu, rho) for the fixed-point branch with z(-2) = 2."""
    c = complex(c)
    if c == 0.25:
        raise BadParams("c = 1/4 has a double fixed point")
    z, mu = repelling_fixed_point(QuadMap.c_form(c))  # NotRepelling when |mu| <= 1
    rho = order_from_multiplier(mu)
    return z, mu, rho


def family_report(q_list, gamma: RotationAngle, series_terms: int = 64) -> FamilyReport:
    """One row per period q: superattracting center, parabolic and Siegel
    parameters continued from it, repelling fixed data at the Siegel
    parameter, and the cycle linearizer residual. Rows whose search fails
    record the error and leave the remaining fields empty.  A row depends
    only on (q, gamma): for q >= 2 the center lies in -2 + (8, 24) / 4^q."""
    if list(q_list) != sorted(set(int(qq) for qq in q_list)):
        raise BadParams("q_list must be strictly increasing")
    lam = gamma.lam
    rows = []
    for q in q_list:
        bracket = (-2.0 + 8.0 / 4**q, -2.0 + 24.0 / 4**q) if q > 1 else (-2.0 + 1e-9, 0.25)
        try:
            sup = find_superattracting(q, bracket)
            par = find_multiplier_param(q, -1.0, sup.c)
            sie = find_multiplier_param(q, lam, sup.c)
            z_fixed, mu, rho = repelling_fixed_data(sie.c)
            qm = QuadMap(kind="c", param=sie.c)
            sm = build_cycle_siegel_map(qm, sie.cycle, gamma, N=series_terms)
            rows.append(FamilyRow(
                q=q, c_super=float(sup.c.real), c_parabolic=par.c,
                c_siegel=sie.c, z_fixed=z_fixed, mu=mu, rho=rho,
                siegel_residual=sm.conj_residual,
                mult_residual=max(sup.residual, par.residual, sie.residual),
            ))
        except PoincareLabError as exc:
            rows.append(FamilyRow(
                q=q, c_super=None, c_parabolic=None, c_siegel=None,
                z_fixed=None, mu=None, rho=None, siegel_residual=None,
                error=f"{type(exc).__name__}: {exc}",
            ))
    done = [r for r in rows if r.error is None]
    limits = {
        "mu_limit": 4.0,
        "rho_limit": 0.5,
        "min_abs_c_plus_2": min((abs(r.c_siegel + 2.0) for r in done), default=None),
        "final_rho": done[-1].rho if done else None,
    }
    return FamilyReport(rows=rows, gamma=gamma.gamma, limits=limits)


def family_angle(terms: int = 40) -> RotationAngle:
    """The bounded-type rotation number [0; 2, 20, 1, 1, 1, ...] used for the
    Siegel-cycle targets: close to 1/2, golden tail."""
    cf = [2, 20] + [1] * (terms - 2)
    return RotationAngle.from_cf(cf)
