import cmath
import math

import numpy as np
import pytest

from poincarelab import (
    QuadMap,
    find_cycle,
    fixed_points,
    multiplier_at,
    order_from_multiplier,
    repelling_fixed_point,
)
from poincarelab.dyncore import newton_lanes
from poincarelab.errors import BadParams, NotRepelling


def test_lambda_form_fixed_points():
    lam = 0.3 + 0.4j
    qm = QuadMap(kind="lambda", param=lam)
    z1, z2 = fixed_points(qm)
    assert z1 == 0
    assert abs(z2 - (1 - lam)) < 1e-15
    assert abs(multiplier_at(qm, 0)) == abs(lam)
    assert abs(multiplier_at(qm, z2) - (2 - lam)) < 1e-14


def test_c_form_fixed_points_chebyshev():
    qm = QuadMap(kind="c", param=-2 + 0j)
    z1, z2 = fixed_points(qm)
    pts = sorted([z1, z2], key=lambda z: z.real)
    assert abs(pts[0] - (-1)) < 1e-15
    assert abs(pts[1] - 2) < 1e-15


def test_repelling_fixed_point_chebyshev():
    qm = QuadMap(kind="c", param=-2 + 0j)
    z0, mu = repelling_fixed_point(qm)
    assert abs(z0 - 2) < 1e-15
    assert abs(mu - 4) < 1e-15


def test_repelling_fixed_point_basilica():
    # z^2 - 1: fixed points (1 +- sqrt 5)/2, both repelling; want larger |mu|
    qm = QuadMap(kind="c", param=-1 + 0j)
    z0, mu = repelling_fixed_point(qm)
    assert abs(z0 - (1 + math.sqrt(5)) / 2) < 1e-14
    assert abs(mu - (1 + math.sqrt(5))) < 1e-13


def test_map_evaluation_both_forms():
    lam = cmath.exp(2j * cmath.pi * 0.21)
    qm = QuadMap(kind="lambda", param=lam)
    z = 0.3 - 0.1j
    assert abs(qm(z) - (lam * z + z * z)) < 1e-16
    qc = QuadMap(kind="c", param=0.25 + 0.1j)
    assert abs(qc(z) - (z * z + qc.param)) < 1e-16


def test_find_cycle_basilica_period2():
    qm = QuadMap(kind="c", param=-1 + 0j)
    cyc = find_cycle(qm, 2, seed=0.1 + 0.1j)
    assert cyc.period == 2
    vals = sorted(p.real for p in cyc.points)
    assert abs(vals[0] - (-1)) < 1e-12 and abs(vals[1]) < 1e-12
    assert abs(cyc.multiplier) < 1e-11  # superattracting


def test_find_cycle_degenerate_returned_not_rejected():
    # at c=0 the period-2 search collapses onto the fixed point; the
    # degenerate cycle is handed back for the caller to judge
    qm = QuadMap(kind="c", param=0j)
    cyc = find_cycle(qm, 2, seed=0.4 + 0.2j)
    assert cyc.period == 2
    assert all(abs(p) < 1e-10 for p in cyc.points)


def test_find_cycle_residual_contract():
    qm = QuadMap(kind="c", param=-1.2 + 0.1j)
    cyc = find_cycle(qm, 3, seed=0.05 + 0.05j)
    for p in cyc.points:
        z = p
        for _ in range(cyc.period):
            z = qm(z)
        assert abs(z - p) < 1e-12 * (1 + abs(p))


def test_find_cycle_period5_at_the_rounding_floor():
    # a period-5 cycle near c = -2 whose residual reaches 3.3e-14, then
    # 3.4e-14, above the 1e-14 (1 + |z|) stop: the step that gets below it
    # does not lower the residual first, so the Newton must not ask it to
    qm = QuadMap.c_form(-1.9854226670475708)
    cyc = find_cycle(qm, 5, -0.0001632899390574395)
    z = cyc.points[0]
    w = z
    for _ in range(5):
        w = qm(w)
    assert abs(w - z) < 1e-10 * (1 + abs(z))
    assert cyc.min_gap() > 0.1


@pytest.mark.parametrize(
    "mu,rho",
    [(4 + 0j, 0.5), (2 + 0j, 1.0), (16 + 0j, 0.25)],
)
def test_order_from_multiplier(mu, rho):
    assert abs(order_from_multiplier(mu) - rho) < 1e-15


def test_order_rejects_non_repelling():
    with pytest.raises(NotRepelling):
        order_from_multiplier(0.5 + 0.1j)
    with pytest.raises(NotRepelling):
        order_from_multiplier(cmath.exp(1j))


def test_quadmap_bad_kind():
    with pytest.raises(BadParams):
        QuadMap(kind="cubic", param=1j)


def test_newton_lanes_rules():
    """z^2 = target lane by lane: a converging lane, a lane at the critical
    point (derivative floor), a NaN lane and a lane that needs more steps
    than it is given each keep to their own outcome."""
    square = (lambda z: z * z, lambda z: 2.0 * z)
    target = np.array([4.0, 4.0, 4.0, 1e40])
    seed = np.array([1.0, 0.0, complex(math.nan, 0.0), 1.0])
    with np.errstate(invalid="ignore"):
        z, ok = newton_lanes(*square, target, seed, 20)
    assert ok.tolist() == [True, False, False, False]
    assert abs(z[0] - 2.0) <= 1e-12 * 5.0
    assert z[1] == 0.0
    for i in (0, 1, 3):
        zi, oki = newton_lanes(*square, target[i], seed[i], 20)
        assert zi.tobytes() == z[i:i + 1].tobytes() and oki[0] == ok[i]
    # a step that does not lower the residual is halved until it does
    z, ok = newton_lanes(*square, 4.0, 100.0, 60)
    assert ok[0] and abs(z[0] - 2.0) <= 1e-12 * 5.0
