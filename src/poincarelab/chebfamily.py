"""Parameter searches near c = -2: superattracting centers, parabolic
perturbations, and Siegel-cycle parameters for z^2 + c.

The pipeline per period q mirrors a three-stage construction:

  1. bisect the real equation Q_c^q(0) = 0 for the center closest to -2
     (the leftmost real sign change in the bracket),
  2. Newton in the parameter on the cycle multiplier, continued from that
     center, to hit multiplier -1 (parabolic) or e^{2 pi i gamma} with a
     bounded-type gamma near 1/2 (Siegel cycle),
  3. read off the repelling fixed point branch z(c) = (1 + sqrt(1-4c))/2
     continuing z = 2, whose multiplier mu = 2 z(c) stays below 4 in modulus
     and drives the order rho = log 2 / log |mu| down toward 1/2.

Cycle continuation walks the parameter segment in fixed small steps and
re-Newtons the cycle at each step, raising CycleCollision the moment two
cycle points merge (period halving), rather than silently following the
wrong branch.
"""

from __future__ import annotations

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
_CONT_STEPS = 32
_COLLISION_GAP = 1e-8
_NEWTON_ITERS = 60


@dataclass(frozen=True)
class ParamSearchResult:
    c: complex
    q: int
    cycle: Cycle
    multiplier: complex
    residual: float
    kind: str  # Superattracting | Parabolic | SiegelTarget | MultiplierTarget


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
    return ParamSearchResult(c=complex(root), q=q, cycle=cyc,
                             multiplier=0.0 + 0.0j, residual=resid,
                             kind="Superattracting")


def _cycle(c: complex, z1: complex, q: int) -> Cycle:
    """The period-q cycle of z^2 + c through z1; CycleCollision when two of
    its points have merged (a period halving)."""
    cyc = cycle_through(QuadMap(kind="c", param=c), z1, q)
    scale = max(1.0, max(abs(p) for p in cyc.points))
    if cyc.min_gap() < _COLLISION_GAP * scale:
        raise CycleCollision(f"cycle points merged during continuation at c={c}")
    return cyc


def _continue_cycle(z1: complex, q: int, c_from: complex, c_to: complex) -> complex:
    """Track one cycle point along the parameter segment in fixed steps."""
    for t in np.linspace(0.0, 1.0, _CONT_STEPS + 1)[1:]:
        c_t = c_from + t * (c_to - c_from)
        z1 = find_cycle(QuadMap(kind="c", param=c_t), q, z1).points[0]
        _cycle(c_t, z1, q)
    return z1


def find_multiplier_param(q: int, target: complex, seed_c: complex) -> ParamSearchResult:
    """Newton in the parameter on (multiplier of the period-q cycle) = target,
    with the cycle tracked by continuation from seed_c."""
    target = complex(target)
    c = complex(seed_c)
    z1 = find_cycle(QuadMap(kind="c", param=c), q, 0.0 + 0.0j).points[0]

    def m_of(c_new: complex, z_anchor: complex, c_anchor: complex):
        z_new = _continue_cycle(z_anchor, q, c_anchor, c_new)
        return cycle_through(QuadMap(kind="c", param=c_new), z_new, q).multiplier, z_new

    m = _cycle(c, z1, q).multiplier
    res = abs(m - target)
    for _ in range(_NEWTON_ITERS):
        if res < 1e-10:
            break
        h = 1e-6 * (1.0 + abs(c))
        try:
            m_h, _ = m_of(c + h, z1, c)
            dm = (m_h - m) / h
        except (NoConvergence, CycleCollision):
            # the forward probe can step over a cusp where the cycle
            # degenerates; probe backward instead
            m_h, _ = m_of(c - h, z1, c)
            dm = (m - m_h) / h
        if abs(dm) < 1e-14:
            raise NoConvergence("multiplier derivative vanished")
        step = (m - target) / dm
        t = 1.0
        improved = False
        for _ in range(30):
            c_cand = c - t * step
            try:
                m_cand, z_cand = m_of(c_cand, z1, c)
            except NoConvergence:
                t *= 0.5
                continue
            if abs(m_cand - target) < res:
                c, z1, m, res = c_cand, z_cand, m_cand, abs(m_cand - target)
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    if res >= 1e-8:
        raise NoConvergence(f"multiplier Newton stalled at residual {res:.3e}")
    cyc = _cycle(c, z1, q)
    if target == 0:
        kind = "Superattracting"
    elif target == -1:
        kind = "Parabolic"
    elif abs(abs(target) - 1.0) < 1e-12:
        kind = "SiegelTarget"
    else:
        kind = "MultiplierTarget"
    return ParamSearchResult(
        c=c, q=q, cycle=cyc, multiplier=m, residual=res, kind=kind,
    )


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
    record the error and leave the remaining fields empty."""
    if list(q_list) != sorted(set(int(qq) for qq in q_list)):
        raise BadParams("q_list must be strictly increasing")
    lam = gamma.lam
    rows = []
    prev = 0.25
    for q in q_list:
        margin = (prev + 2.0) / 4.0
        bracket = (-2.0 + 1e-9, prev - margin if q > 1 else 0.25)
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
            prev = float(sup.c.real)
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
