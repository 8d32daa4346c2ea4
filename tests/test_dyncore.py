import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import (
    QuadMap,
    find_cycle,
    order_from_multiplier,
    repelling_fixed_point,
)
from poincarelab.dyncore import newton_lanes
from poincarelab.poincare import poincare_derivative_eval
from poincarelab.errors import BadParams, NotRepelling


def test_lambda_form_fixed_points():
    lam = 0.3 + 0.4j
    qm = QuadMap(kind="lambda", param=lam)
    assert qm(0) == 0 and qm.deriv(0) == lam
    z2, mu = repelling_fixed_point(qm)
    assert abs(z2 - (1 - lam)) < 1e-15
    assert abs(qm(z2) - z2) < 1e-15
    assert abs(mu - (2 - lam)) < 1e-14


def test_c_form_fixed_points_chebyshev():
    # the fixed points of z^2 - 2 are the period-1 cycles -1 and 2
    qm = QuadMap(kind="c", param=-2 + 0j)
    for seed, want in ((-0.8 + 0.1j, -1.0), (2.3 - 0.1j, 2.0)):
        cyc = find_cycle(qm, 1, seed)
        assert abs(cyc.points[0] - want) < 1e-15
        assert abs(cyc.multiplier - 2.0 * want) < 1e-14


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
    def square(z):
        return z * z, 2.0 * z

    target = np.array([4.0, 4.0, 4.0, 1e40])
    seed = np.array([1.0, 0.0, complex(math.nan, 0.0), 1.0])
    with np.errstate(invalid="ignore"):
        z, ok, _, _ = newton_lanes(square, target, seed, 20)
    assert ok.tolist() == [True, False, False, False]
    assert abs(z[0] - 2.0) <= 1e-12 * 5.0
    assert z[1] == 0.0
    for i in (0, 1, 3):
        zi, oki, _, _ = newton_lanes(square, target[i], seed[i], 20)
        assert zi.tobytes() == z[i:i + 1].tobytes() and oki[0] == ok[i]
    # a step that does not lower the residual is halved until it does
    z, ok, _, _ = newton_lanes(square, 4.0, 100.0, 60)
    assert ok[0] and abs(z[0] - 2.0) <= 1e-12 * 5.0


def sequential_newton_lanes(F, dF, target, seed, iters: int, trace=None):
    """The rule newton_lanes keeps, written step length by step length: one
    F call per t in 1, 1/2, ..., 2^-39 over the lanes still looking, and
    one dF call per round.  The reference for the batched solver: (z, ok)
    and F at z.  trace, when given, is a list that gets the t of each F
    call after the seeds'."""
    target, z = np.broadcast_arrays(np.asarray(target, dtype=complex),
                                    np.asarray(seed, dtype=complex))
    target, z = target.reshape(-1).copy(), z.reshape(-1).copy()
    tol = 1e-12 * (1.0 + np.abs(target))
    f = F(z)
    res = np.abs(f - target)
    failed = np.isnan(res)
    for _ in range(iters):
        live = np.flatnonzero(~failed & ~(res <= tol))
        if live.size == 0:
            break
        d = dF(z[live])
        usable = np.abs(d) >= 1e-14
        failed[live[~usable]] = True
        live, d = live[usable], d[usable]
        step = (f[live] - target[live]) / d
        t = 1.0
        for _ in range(40):
            if live.size == 0:
                break
            cand = z[live] - t * step
            f_cand = F(cand)
            if trace is not None:
                trace.append(t)
            res_cand = np.abs(f_cand - target[live])
            better = res_cand < res[live]
            took = live[better]
            z[took], f[took], res[took] = cand[better], f_cand[better], res_cand[better]
            failed[live[np.isnan(res_cand)]] = True
            keep = ~better & ~np.isnan(res_cand)
            live, step = live[keep], step[keep]
            t *= 0.5
        failed[live] = True
    return z, ~failed & (res <= tol), f


def damped_square(scale, ring):
    """(F, dF) for z^2 with F' scaled by `scale`, so that a full step is
    1/scale times the Newton step (uphill when scale < 0), and F NaN on
    the open ring ring[0] < |z| < ring[1]."""
    def F(z):
        a = np.abs(z)
        return np.where((a > ring[0]) & (a < ring[1]), complex(math.nan, math.nan), z * z)

    def dF(z):
        return scale * (2.0 * z)

    return F, dF


def assert_batched_matches_sequential(F, dF, target, seed, iters):
    """(z, ok, number of FdF calls) of newton_lanes, after checking z, ok,
    F(z) and F'(z) bitwise against the sequential reference, and checking
    that the solve handed (F, F') at the seeds gives the same bits with one
    FdF call fewer."""
    calls = []

    def FdF(v):
        calls.append(v.size)
        return F(v), dF(v)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        z, ok, f, d = newton_lanes(FdF, target, seed, iters)
        fresh_calls = len(calls)
        seeds = np.broadcast_arrays(np.asarray(target, dtype=complex),
                                    np.asarray(seed, dtype=complex))[1].reshape(-1)
        reused = newton_lanes(FdF, target, seed, iters, at_seed=(F(seeds), dF(seeds)))
        z_ref, ok_ref, f_ref = sequential_newton_lanes(F, dF, target, seed, iters)
        d_ref = dF(z_ref)
    for got in ((z, ok, f, d), reused):
        assert got[0].tobytes() == z_ref.tobytes()
        assert got[1].tolist() == ok_ref.tolist()
        assert got[2].tobytes() == f_ref.tobytes()
        assert got[3].tobytes() == d_ref.tobytes()
    assert len(calls) - fresh_calls == fresh_calls - 1
    return z, ok, fresh_calls


# From seed 3 towards z^2 = 4 with F' scaled by 2^-6, the first round's
# candidates are 3 - t 160/3: t = 1, ..., 1/8 do not lower the residual
# and t = 1/16 (at -1/3) is the first that does.  t1 is the step length
# the first round takes (None: the lane fails there), ok the outcome after
# 60 rounds.
@pytest.mark.parametrize("scale,ring,seed,t1,ok", [
    (2.0**-6, (0.0, 0.0), 3.0, 2.0**-4, True),
    (2.0**-6, (20.0, 30.0), 3.0, None, False),     # NaN at t = 1/2, before 1/16
    (2.0**-6, (1.2, 1.4), 3.0, 2.0**-4, False),    # NaN at t = 1/32, after 1/16
    (2.0**-6, (50.0, 51.0), 3.0, None, False),     # NaN at t = 1
    (2.0**-12, (0.0, 0.0), 3.0, 2.0**-10, True),   # ten halvings
    (2.0**-30, (0.0, 0.0), 3.0, 2.0**-28, True),   # 28 halvings
    (-1.0, (0.0, 0.0), 3.0, None, False),          # uphill at every t: a stall
    (1e-15, (0.0, 0.0), 3.0, None, False),         # |F'| = 6e-15, below 1e-14
    (1.0, (0.0, 0.0), 0.0, None, False),           # F' = 0 at the critical point
])
def test_batched_damping_cases(scale, ring, seed, t1, ok):
    F, dF = damped_square(scale, ring)
    z, _, _ = assert_batched_matches_sequential(F, dF, 4.0, seed, 1)
    moved = seed if t1 is None else seed - t1 * 5.0 / (6.0 * scale)
    assert abs(z[0] - moved) <= 1e-12 * (1.0 + abs(moved))
    _, ok_60, calls = assert_batched_matches_sequential(F, dF, 4.0, seed, 60)
    assert ok_60.tolist() == [ok]
    if t1 is None:
        # the seed's evaluation, then the failing iteration's t = 1 call and
        # the call with its halved steps
        assert calls <= 3


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scale=st.sampled_from([1.0, 3.0, 0.5, 2.0**-6, 2.0**-12, 1e-3, 2.0**-40,
                              -1.0, -0.01, 1e-15, 1j, -2.0**-9]),
       ring=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 10.0)),
       lanes=st.lists(st.tuples(st.complex_numbers(max_magnitude=50.0),
                                st.complex_numbers(max_magnitude=20.0)),
                      min_size=1, max_size=12),
       iters=st.integers(0, 60))
def test_batched_damping_matches_sequential_on_square(scale, ring, lanes, iters):
    """Random lanes of z^2 = target, with too long, too short and uphill
    steps and a NaN ring: the batched step lengths give every lane the bits
    and the outcome of trying one t after the other."""
    F, dF = damped_square(scale, (ring[0], ring[0] + ring[1]))
    seed, target = (np.array(v, dtype=complex) for v in zip(*lanes))
    assert_batched_matches_sequential(F, dF, target, seed, iters)


def split_square(right, left, ring):
    """damped_square with F' scaled by `right` where Re z > 0 and by `left`
    elsewhere: lanes on the two sides halve their steps in different
    iterations, and a lane that crosses changes its damping."""
    F, _ = damped_square(1.0, ring)

    def dF(z):
        return np.where(z.real > 0, right, left) * (2.0 * z)

    return F, dF


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(right=st.sampled_from([1.0, 2.0, 0.5, 2.0**-6, 2.0**-12, 2.0**-40, -1.0, 1j]),
       left=st.sampled_from([1.0, 2.0, 0.5, 2.0**-3, 2.0**-8, 2.0**-30, -0.01, -1j]),
       ring=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 10.0)),
       lanes=st.lists(st.tuples(st.complex_numbers(max_magnitude=50.0),
                                st.complex_numbers(max_magnitude=20.0)),
                      min_size=2, max_size=12),
       iters=st.integers(0, 60))
def test_staggered_halvings_match_sequential(right, left, ring, lanes, iters):
    """Lanes whose damping depends on the side of the plane they are on:
    in one call some lanes take their t = 1 step while others evaluate
    t = 1/2 ... 2^-39, and every lane keeps the bits and the outcome of
    trying one t after the other."""
    F, dF = split_square(right, left, (ring[0], ring[0] + ring[1]))
    seed, target = (np.array(v, dtype=complex) for v in zip(*lanes))
    assert_batched_matches_sequential(F, dF, target, seed, iters)


def test_staggered_halvings_share_calls():
    """Steps twice too long from 0.5 and from 3: the first lane halves in
    iterations 1, 3, 5, 7 and 9, the second in 2, 4, 6, 8 and 9.  A
    schedule that follows each round's t = 1 call with a call for the
    halved steps pays for a halved batch in almost every round; here the
    halved steps of one lane ride along with the full steps of the other."""
    F, dF = damped_square(0.5, (0.0, 0.0))
    seed = np.array([0.5, 3.0])
    trace = []
    sequential_newton_lanes(F, dF, 4.0, seed, 60, trace)
    # the seeds' call, one per round, and one per round with a halved step
    round_calls = 1 + trace.count(1.0) + trace.count(0.5)
    z, ok, calls = assert_batched_matches_sequential(F, dF, 4.0, seed, 60)
    assert ok.all() and np.all(np.abs(z - 2.0) <= 5e-12)
    assert calls <= round_calls - 1


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_damping_matches_sequential_on_golden_map(data, golden_poincare,
                                                         golden_siegel):
    """f(z) = w for the golden Poincare map from seeds at pullback depths
    0 to 9, w near the Siegel center: bitwise the sequential solver's z and
    ok, lanes whose steps overflow included."""
    pm = golden_poincare
    n = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    seed = pm.r0 * abs(pm.mu) ** rng.uniform(0.0, 9.0, n) * np.exp(2j * np.pi * rng.random(n))
    target = golden_siegel.center_value + 0.1 * (rng.random(n) - 0.5 + 1j * rng.random(n))
    iters = data.draw(st.integers(1, 60))
    assert_batched_matches_sequential(lambda z: poincare_derivative_eval(pm, z)[0],
                                      lambda z: poincare_derivative_eval(pm, z)[1],
                                      target, seed, iters)
