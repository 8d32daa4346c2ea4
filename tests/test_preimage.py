import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poincarelab import QuadMap, build_cycle_siegel_map, build_poincare_map, chebfamily
from poincarelab import poincare as pc
from poincarelab import preimage as pre
from poincarelab.errors import BadParams, NotFound
from poincarelab.poincare import poincare_eval
from poincarelab.preimage import (
    InverseBranch,
    argument_principle_count,
    branch_continue,
    build_preimage_report,
    find_base_preimage,
    newton_solve,
    orbit_preimages,
    report_to_csv,
    report_to_json,
    verify_orbit_point,
)
from poincarelab.sets import make_empty_set
from poincarelab.siegel import sub_siegel_sample


def test_base_preimage_hits_center(golden_branch, golden_poincare, golden_siegel):
    base = golden_branch.base_point
    got = poincare_eval(golden_poincare, base)
    want = golden_siegel.center_value
    assert abs(got - want) < 1e-10 * (1 + abs(want))
    # the base sits outside the Siegel disk itself
    assert abs(base) > golden_siegel.radius_hat


def test_mismatched_structures_rejected(cheb_poincare, golden_siegel):
    with pytest.raises(BadParams):
        find_base_preimage(cheb_poincare, golden_siegel)


def test_base_preimage_refuses_siegel_cycles():
    # the orbit scales by mu per step but p_inverse_many inverts the q-fold
    # map, so a period-2 cycle would give points off f(z) = w
    gamma = chebfamily.family_angle()
    sup = chebfamily.find_superattracting(2, (-1.5, -0.5))
    sie = chebfamily.find_multiplier_param(2, gamma.lam, sup.c)
    qm = QuadMap(kind="c", param=sie.c)
    sm = build_cycle_siegel_map(qm, sie.cycle, gamma, N=64)
    assert sm.period == 2
    with pytest.raises(BadParams, match="period 2"):
        find_base_preimage(build_poincare_map(qm, N=64), sm)


def test_branch_continue_solves_and_caches(golden_branch, golden_poincare, golden_siegel):
    w = sub_siegel_sample(golden_siegel, 3, seed=21)[2:]
    z1 = branch_continue(golden_branch, w)
    assert z1.shape == (1,)
    assert abs(poincare_eval(golden_poincare, z1[0]) - w[0]) < 1e-10 * (1 + abs(w[0]))
    z2 = branch_continue(golden_branch, w)
    # a continuation is a pure function of the branch and w
    assert z1.tobytes() == z2.tobytes()


def _fresh(ib):
    return InverseBranch(ib.pm, ib.sm, ib.base_point)


def test_newton_lane_alone_matches_full_batch(golden_poincare, golden_siegel):
    # the 24 x 32 seed grid of find_base_preimage at radius 20 r0
    R = 20.0 * golden_poincare.r0
    angles = 2.0 * np.pi * np.arange(32) / 32
    seeds = (np.geomspace(0.05 * R, R, 24)[:, None] * np.exp(1j * angles)).reshape(-1)
    target = golden_siegel.center_value
    z, ok, _, _ = newton_solve(golden_poincare, target, seeds)
    assert z.shape == ok.shape == (768,) and ok.any() and not ok.all()
    lanes = set(range(0, 768, 16)) | set(np.flatnonzero(~ok)[:8].tolist())
    for i in sorted(lanes):
        zi, oki, _, _ = newton_solve(golden_poincare, target, seeds[i])
        assert zi.tobytes() == z[i:i + 1].tobytes()
        assert oki[0] == ok[i]


def test_newton_overflow_fails_only_its_lane(cheb_poincare):
    # f(z) = 2 cosh(sqrt z) = 3 has simple roots (acosh(1.5) + 2 pi i m)^2;
    # f overflows at the seed 1e6
    seeds = np.array([1.0, -36.0 + 10.0j, -150.0 + 20.0j, 1e6, -350.0 + 30.0j])
    z, ok, _, _ = newton_solve(cheb_poincare, 3.0, seeds)
    assert ok.tolist() == [True, True, True, False, True]
    for i in (0, 1, 2, 4):
        assert abs(poincare_eval(cheb_poincare, complex(z[i])) - 3.0) <= 4e-12
        zi, _, _, _ = newton_solve(cheb_poincare, 3.0, seeds[i])
        assert zi[0] == z[i]


def test_base_preimage_search_pullback_calls(monkeypatch, golden_branch,
                                             golden_poincare, golden_siegel):
    # one fused (f, f') pullback per Newton call, in which the lanes'
    # t = 1 steps ride with all the halved steps of the lanes whose t = 1
    # in the call before did not help, and one pullback for the base
    # point's residual: 64 pullbacks over 26,735 lanes, the lanes that a
    # call for the full steps and one for the halved steps of each round
    # evaluated in 117
    calls, pullback = [], pc._pullback
    monkeypatch.setattr(pc, "_pullback",
                        lambda *args: calls.append(args[1].size) or pullback(*args))
    ib = find_base_preimage(golden_poincare, golden_siegel)
    assert ib.base_point == golden_branch.base_point
    assert 0 < len(calls) <= 70
    assert sum(calls) <= 26_735


def _grids_failing_below(monkeypatch, radius):
    """Make every lane of the seed grids of modulus at most `radius` fail
    in preimage.newton_solve; the list it returns gets each grid's
    largest seed modulus."""
    grids, solve = [], pre.newton_solve

    def patched(pm, target, seed, at_seed=None):
        z, ok, f, d = solve(pm, target, seed, at_seed)
        grids.append(float(np.max(np.abs(seed))))
        return z, ok & (grids[-1] > radius), f, d

    monkeypatch.setattr(pre, "newton_solve", patched)
    return grids


def test_base_preimage_enlarges_its_grid_once(monkeypatch, golden_poincare, golden_siegel):
    # no converged lane on the 20 r0 grid: the 40 r0 grid is solved
    r0 = golden_poincare.r0
    grids = _grids_failing_below(monkeypatch, 20.0 * r0 * (1.0 + 1e-12))
    ib = find_base_preimage(golden_poincare, golden_siegel)
    assert grids == pytest.approx([20.0 * r0, 40.0 * r0], rel=1e-12)
    center = golden_siegel.center_value
    residual = abs(poincare_eval(golden_poincare, ib.base_point) - center)
    assert residual <= pre.BASE_RESIDUAL * (1.0 + abs(center))
    assert abs(ib.base_point) > golden_siegel.radius_hat


def test_base_preimage_not_found_after_both_grids(monkeypatch, golden_poincare,
                                                  golden_siegel):
    grids = _grids_failing_below(monkeypatch, np.inf)
    with pytest.raises(NotFound, match="after one enlargement"):
        find_base_preimage(golden_poincare, golden_siegel)
    assert len(grids) == 2


def test_newton_solve_evaluates_f_with_f_prime(monkeypatch, golden_poincare, golden_siegel):
    def refuse(*args, **kwargs):
        raise AssertionError("newton_solve evaluated f without f'")

    monkeypatch.setattr(pre, "poincare_eval", refuse)
    seeds = golden_poincare.r0 * np.array([2.0, 9.0j, -15.0])
    z, ok, _, _ = newton_solve(golden_poincare, golden_siegel.center_value, seeds)
    assert ok.any()


def test_continuation_carries_f_between_steps(monkeypatch, golden_branch, golden_siegel):
    # the base point is evaluated once, as one lane; after that each of the
    # 8 t-steps takes 3 full steps per lane and hands the last (f, f') to
    # the next step as its seed's values, so no step re-evaluates its seed
    calls, deriv = [], pre.poincare_derivative_eval
    monkeypatch.setattr(pre, "poincare_derivative_eval",
                        lambda pm, z: calls.append(np.array(z)) or deriv(pm, z))
    u = pre.h_inverse_many(golden_siegel, sub_siegel_sample(golden_siegel, 3, seed=21))
    pre._continue_segments(golden_branch, u)
    assert calls[0].tolist() == [golden_branch.base_point]
    assert [z.size for z in calls[1:]] == [3] * (3 * 8)


def test_branch_continue_array_matches_elementwise(golden_branch, golden_siegel):
    ws = sub_siegel_sample(golden_siegel, 6, seed=41).reshape(2, 3)
    batch = branch_continue(_fresh(golden_branch), ws)
    assert batch.shape == (2, 3)
    for w, z in zip(ws.ravel().tolist(), batch.ravel().tolist()):
        assert branch_continue(_fresh(golden_branch), np.array([w])).tolist() == [z]


def test_orbit_preimages_batch_matches_single(golden_branch, golden_siegel):
    ws = sub_siegel_sample(golden_siegel, 3, seed=9)
    g, z = orbit_preimages(_fresh(golden_branch), ws, k_max=6)
    assert g.shape == z.shape == (3, 7)
    for w, row_g, row_z in zip(ws.tolist(), g.tolist(), z.tolist()):
        g1, z1 = orbit_preimages(_fresh(golden_branch), [w], k_max=6)
        assert g1.tolist() == [row_g] and z1.tolist() == [row_z]


def test_orbit_preimages_verify(golden_branch, golden_siegel):
    w = complex(sub_siegel_sample(golden_siegel, 1, seed=33)[0])
    g, z = orbit_preimages(golden_branch, [w], k_max=12)
    assert g.shape == z.shape == (1, 13)
    for k, zk in enumerate(z[0].tolist()):
        assert verify_orbit_point(golden_branch, w, k, zk) < 1e-9


def test_orbit_moduli_grow_like_multiplier(golden_branch, golden_poincare, golden_siegel):
    w = complex(sub_siegel_sample(golden_siegel, 1, seed=5)[0])
    mags = np.abs(orbit_preimages(golden_branch, [w], k_max=10)[1][0])
    mu = abs(golden_poincare.mu)
    # |z_k| = mu^k |g0(...)| with |g0| bounded on the disk, so the average
    # log-increment converges to log mu even though single steps wander
    slope = (np.log(mags[10]) - np.log(mags[0])) / 10.0
    assert abs(slope - np.log(mu)) < 0.08


def test_orbit_rejects_negative_kmax(golden_branch):
    with pytest.raises(BadParams):
        orbit_preimages(golden_branch, [0.01 + 0j], k_max=-1)


@pytest.mark.parametrize("r,count", [(10.0, 1), (100.0, 3), (1000.0, 11)])
def test_argument_principle_chebyshev_counts(cheb_poincare, r, count):
    assert argument_principle_count(cheb_poincare, 2 + 0j, r) == count


def test_argument_principle_validates_radius(cheb_poincare):
    with pytest.raises(BadParams):
        argument_principle_count(cheb_poincare, 2 + 0j, -5.0)


def test_report_counts_are_consistent(golden_branch, golden_poincare):
    S = make_empty_set()
    w = golden_branch.sm.center_value + 0.02 + 0.01j
    mu = abs(golden_poincare.mu)
    r = abs(golden_branch.base_point) * mu**5 * 1.07
    rep = build_preimage_report(golden_branch, S, w, r, k_max=5)
    inside = [p for p in rep.orbit_points if abs(p.z) <= r]
    assert rep.argument_count >= len(inside)
    assert len(rep.orbit_points) == 6


def test_report_csv_and_json_shape(golden_branch):
    S = make_empty_set()
    w = golden_branch.sm.center_value + 0.015j
    rep = build_preimage_report(golden_branch, S, w, 5000.0, k_max=4)
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "k,re z,im z,|z|,in_S,residual"
    assert len(lines) == 6
    assert "np.float64" not in text
    blob = json.loads(report_to_json(rep))
    assert blob["argument_count"] == rep.argument_count
    assert len(blob["orbit_points"]) == 5


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(5.0, 500.0))
def test_orbit_count_never_exceeds_argument_count(golden_branch, golden_poincare,
                                                  golden_siegel, seed, r):
    w = complex(sub_siegel_sample(golden_siegel, 1, seed)[0])
    try:
        count = argument_principle_count(golden_poincare, w, r)
    except BadParams as exc:  # the documented refusal for a preimage on |z| = r
        assert "sits on" in str(exc)
        assume(False)
    inside = int(np.count_nonzero(np.abs(orbit_preimages(golden_branch, [w], 12)[1]) <= r))
    assert inside <= count
