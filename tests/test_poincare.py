import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import QuadMap, RotationAngle
from poincarelab import poincare as pc
from poincarelab import series
from poincarelab.errors import BadParams, NotRepelling, OutOfSafeRadius, OverflowSentinel
from poincarelab.poincare import (
    build_poincare_map,
    check_functional_equation,
    eval_on_circle,
    functional_equation_residual,
    log_modulus_circle,
    order_estimate,
    poincare_coefficients,
    poincare_derivative_eval,
    poincare_eval,
    poincare_eval_many,
    pullback_depth,
    pullback_depths,
)
from poincarelab.series import series_derivative, series_eval


def cosh_model(z: complex) -> complex:
    """Reference solution 2*cosh(sqrt(z)) at the flat-family base parameter."""
    return 2.0 * cmath.cosh(cmath.sqrt(z))


def test_cheb_low_coefficients(cheb_poincare):
    a = cheb_poincare.series_f.coeffs
    assert abs(a[0] - 2.0) < 1e-15
    assert abs(a[1] - 1.0) < 1e-15
    assert abs(a[2] - 1.0 / 12.0) < 1e-15
    assert abs(a[3] - 1.0 / 360.0) < 1e-15


def test_golden_second_coefficient(golden_poincare):
    mu = golden_poincare.mu
    a2 = golden_poincare.series_f.coeffs[2]
    assert abs(a2 - 1.0 / (mu * mu - mu)) < 1e-15


def test_cheb_matches_cosh_reference(cheb_poincare):
    rng = np.random.default_rng(5)
    z = 100.0 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    vals = poincare_eval_many(cheb_poincare, z)
    for zz, v in zip(z, vals):
        want = cosh_model(complex(zz))
        assert abs(v - want) <= 1e-9 * (1 + abs(want))


def test_normalization_at_origin(golden_poincare, cheb_poincare):
    for pm in (golden_poincare, cheb_poincare):
        assert abs(poincare_eval(pm, 0j) - pm.z0) < 1e-14
        assert abs(poincare_derivative_eval(pm, np.array([0j]))[1][0] - 1.0) < 1e-12


def test_functional_equation_on_circles(golden_poincare, cheb_poincare):
    for pm in (golden_poincare, cheb_poincare):
        worst_rel, worst_abs, sup_f = check_functional_equation(pm)
        assert worst_abs <= 1e-9 * (1 + sup_f)
        assert worst_rel < 1e-6


def test_residual_single_points(cheb_poincare):
    for z in [10 + 3j, -40 + 17j, 200j, 5000 - 100j]:
        assert functional_equation_residual(cheb_poincare, z) < 1e-9


def test_eval_many_matches_scalar_across_depths(cheb_poincare):
    radii = [1.0, 50.0, 700.0, 9000.0, 1.3e5]
    z = np.array([r * cmath.exp(1j * 0.5 * i) for i, r in enumerate(radii)])
    vals = poincare_eval_many(cheb_poincare, z)
    for zz, v in zip(z, vals):
        assert abs(v - poincare_eval(cheb_poincare, complex(zz))) < 1e-9 * (1 + abs(v))


def unique_depth_pullback(pm, z, depths):
    """`poincare._pullback` with the depth groups taken from np.unique: the
    reference for its bincount grouping."""
    f = np.full(z.shape, complex(math.nan, math.nan))
    df = f.copy()
    for k in np.unique(depths):
        idx = np.flatnonzero(depths == k)
        scale = pm.mu ** int(k)
        u = series_eval(pm.head_f, z[idx] / scale)
        d = series_eval(pm.head_df, z[idx] / scale) / scale
        for _ in range(k):
            d = pm.map.deriv(u) * d
            u = pm.map(u)
        f[idx], df[idx] = u, d
    return f, df


def test_pullback_depth_groups_with_gaps(cheb_poincare):
    # only depths 0 and 5 occur, interleaved
    pm = cheb_poincare
    t = np.linspace(0.1, 6.0, 40)
    r = np.where(np.arange(40) % 3 == 0, 0.5 * pm.r0, 0.5 * pm.r0 * abs(pm.mu) ** 5)
    z = r * np.exp(1j * t)
    depths = pullback_depths(pm, np.abs(z))
    assert sorted(set(depths.tolist())) == [0, 5]
    f, df, ok = pc._pullback(pm, z, depths, derivative=True)
    f_ref, df_ref = unique_depth_pullback(pm, z, depths)
    assert ok.all()
    assert f.tobytes() == f_ref.tobytes() and df.tobytes() == df_ref.tobytes()


_SPECIAL_LANES = [complex(math.nan, math.nan), complex(math.inf, 0.0),
                  complex(math.nan, 1.0), complex(-math.inf, math.inf), 1e20 + 0j]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(golden=st.booleans(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       extra=st.one_of(st.none(), st.integers(0, 2)))
def test_fused_pullback_lanes_match_one_lane_calls(golden, seed, n, extra,
                                                   golden_poincare, cheb_poincare):
    """One series evaluation over all depths gives every lane the bits of
    its own one-lane call, NaN lanes included: at the lanes' own depths
    through the public calls, or at one larger depth through _pullback."""
    pm = golden_poincare if golden else cheb_poincare
    rng = np.random.default_rng(seed)
    # one lane at each of the depths 0..3, n more up to depth 10, where
    # both maps overflow, then the non-finite and overflowing lanes
    expo = np.concatenate([np.arange(4) - 0.5, rng.uniform(-2.0, 10.0, n)])
    z = pm.r0 * abs(pm.mu) ** expo * np.exp(2j * np.pi * rng.random(expo.size))
    z = rng.permutation(np.concatenate([z, _SPECIAL_LANES]))
    depths = pullback_depths(pm, np.abs(z))
    assert np.unique(depths[np.isfinite(z)]).size >= 4
    if extra is None:
        def pair(lanes):
            return poincare_derivative_eval(pm, lanes)
    else:
        depth = int(depths.max()) + extra

        def pair(lanes):
            return pc._pullback(pm, lanes, np.full(lanes.shape, depth), derivative=True)[:2]
    f, df = pair(z)
    one = [pair(z[i:i + 1]) for i in range(z.size)]
    one_f, one_df = (np.concatenate(v) for v in zip(*one))
    assert np.array_equal(np.isnan(f), np.isnan(one_f)) and np.isnan(f).any()
    assert f.tobytes() == one_f.tobytes() and df.tobytes() == one_df.tobytes()
    if extra is not None:
        return
    # poincare_eval of each lane as one point: it raises where f overflows
    # (the pair then has NaN), and elsewhere has the pair's f bits unless the
    # pair's derivative overflowed
    for zi, fi in zip(z.tolist(), f.tolist()):
        try:
            got = poincare_eval(pm, zi)
        except OverflowSentinel:
            assert cmath.isnan(fi)
            continue
        assert cmath.isnan(fi) or np.complex128(got).tobytes() == np.complex128(fi).tobytes()


def _block_lanes(pm, n, seed):
    """n lanes over pullback depths 0..10, where both maps overflow, with
    NaN, infinite and overflowing lanes mixed in when n allows."""
    rng = np.random.default_rng(seed)
    z = pm.r0 * abs(pm.mu) ** rng.uniform(-2.0, 10.0, n) * np.exp(2j * np.pi * rng.random(n))
    special = np.array(_SPECIAL_LANES)[:n]
    z[rng.choice(n, special.size, replace=False)] = special
    return z


@pytest.mark.parametrize("block", [1, 3, 7])
def test_lane_blocks_do_not_change_results(block, monkeypatch, golden_poincare, cheb_poincare):
    for pm in (golden_poincare, cheb_poincare):
        # block - 1 and block + 1 lanes: one short block, or full blocks and
        # a final one-lane block
        for n in (block - 1, block + 1, 2 * block + 1, 5 * block):
            z = _block_lanes(pm, n, seed=n)
            monkeypatch.undo()
            whole = (*poincare_derivative_eval(pm, z), pc._lanes(pm, z, derivative=False)[0])
            monkeypatch.setattr(series, "_HORNER_BLOCK", block)
            got = (*poincare_derivative_eval(pm, z), pc._lanes(pm, z, derivative=False)[0])
            assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]
            row = poincare_derivative_eval(pm, z.reshape(1, -1))
            assert [a.shape for a in row] == [(1, n)] * 2
            assert [a.tobytes() for a in row] == [a.tobytes() for a in whole[:2]]
            if n >= 2:
                assert np.isnan(whole[0]).any()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_eval_many_raises_on_a_bad_lane_in_the_last_block(block, monkeypatch, cheb_poincare):
    pm = cheb_poincare
    z = np.linspace(1.0, 50.0, 2 * block + 1).astype(complex)
    monkeypatch.setattr(series, "_HORNER_BLOCK", block)
    assert poincare_eval_many(pm, z).tobytes() == poincare_derivative_eval(pm, z)[0].tobytes()
    for bad in (1e6 + 0j, complex(math.nan, 0.0)):
        z[-1] = bad
        with pytest.raises(OverflowSentinel):
            poincare_eval_many(pm, z)


def test_eval_many_memory_is_bounded(golden_poincare):
    # one whole-array pass over 2^18 lanes peaks near 22 MB; in lane blocks
    # only the 4 MB result outlives a block
    rng = np.random.default_rng(2)
    z = 1000.0 * np.sqrt(rng.random(1 << 18)) * np.exp(2j * np.pi * rng.random(1 << 18))
    tracemalloc.start()
    try:
        poincare_eval_many(golden_poincare, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_pullback_evaluates_each_series_once(monkeypatch, golden_poincare):
    pm = golden_poincare
    calls, series_eval = [], pc.series_eval

    def counting(s, z):
        calls.append(s)
        return series_eval(s, z)

    monkeypatch.setattr(pc, "series_eval", counting)
    z = pm.r0 * abs(pm.mu) ** (np.arange(7) - 0.5) * np.exp(1j * np.arange(7))
    assert pullback_depths(pm, np.abs(z)).tolist() == list(range(7))
    for lanes in (z, z[3:4]):
        calls.clear()
        poincare_eval_many(pm, lanes)
        assert len(calls) == 1 and calls[0] is pm.head_f
        calls.clear()
        poincare_derivative_eval(pm, lanes)
        assert len(calls) == 2 and calls[0] is pm.head_f and calls[1] is pm.head_df
    calls.clear()
    poincare_eval(pm, z[3])
    assert calls == [pm.head_f]
    # every lane at one larger depth
    for derivative, want in ((False, [pm.head_f]), (True, [pm.head_f, pm.head_df])):
        calls.clear()
        pc._pullback(pm, z, np.full(z.shape, 9), derivative)
        assert calls == want


def test_cancellation_limited_accuracy_near_negative_axis(cheb_poincare):
    """Close to the negative real axis the pulled-back series evaluation
    loses digits to cancellation; accuracy degrades gracefully, staying
    within a few units of the cancellation-scaled roundoff."""
    z = 1.3e5 * cmath.exp(2.8j)
    want = cosh_model(z)
    got = poincare_eval(cheb_poincare, z)
    assert abs(got - want) < 1e-5 * abs(want)


def test_pullback_depth_monotone(cheb_poincare):
    r0 = cheb_poincare.r0
    assert pullback_depth(cheb_poincare, 0.5 * r0) == 0
    assert pullback_depth(cheb_poincare, r0) == 0
    d1 = pullback_depth(cheb_poincare, 10 * r0)
    d2 = pullback_depth(cheb_poincare, 1000 * r0)
    assert 0 < d1 < d2


def test_explicit_depth_must_reach_disk(cheb_poincare):
    # a depth that leaves z / mu^k outside the series disk is refused
    z = np.array([100.0 * cheb_poincare.r0], dtype=complex)
    with pytest.raises(OutOfSafeRadius):
        pc._pullback(cheb_poincare, z, np.array([1]), derivative=False)


def test_working_head_lengths(golden_poincare, cheb_poincare):
    # the prefixes whose dropped tail at r0 is at most 1e-17 (1 + |z0|)
    for pm, n_f, n_df in ((cheb_poincare, 28, 27), (golden_poincare, 37, 36)):
        assert len(pm.series_f.coeffs) == 65
        assert (len(pm.head_f.coeffs), len(pm.head_df.coeffs)) == (n_f, n_df)
        assert pm.head_f.safe_radius == pm.head_df.safe_radius == pm.r0


_HEAD_MAPS = [("c", complex(c)) for c in (-2, -1, 1j, -1.75, 0.3 + 0.2j)] + [("golden", None)]


@functools.lru_cache(maxsize=None)
def _head_map(kind, param):
    if kind == "golden":
        return build_poincare_map(QuadMap(kind="lambda", param=RotationAngle.golden().lam))
    return build_poincare_map(QuadMap(kind=kind, param=param))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(_HEAD_MAPS), frac=st.floats(0.0, 1.0),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_working_heads_match_full_series(which, frac, theta):
    """On |z| <= r0 the heads of f and f' agree with the whole series to
    far below the pullback's own error."""
    pm = _head_map(*which)
    z = np.array([frac * pm.r0 * cmath.exp(1j * theta)])
    for head, full in ((pm.head_f, pm.series_f),
                       (pm.head_df, series_derivative(pm.series_f))):
        want = series_eval(full, z)[0]
        assert abs(series_eval(head, z)[0] - want) <= 1e-12 * (1.0 + abs(want))


def test_overflow_sentinel(cheb_poincare):
    with pytest.raises(OverflowSentinel):
        poincare_eval(cheb_poincare, 1e6 + 0j)
    f, df = poincare_derivative_eval(cheb_poincare, np.array([1e6 + 0j]))
    assert np.isnan(f[0]) and np.isnan(df[0])
    with pytest.raises(OverflowSentinel):
        poincare_eval_many(cheb_poincare, np.array([1.0, 1e6], dtype=complex))
    # one point only: an array is refused, not read at its first lane
    with pytest.raises(TypeError):
        poincare_eval(cheb_poincare, np.array([1.0, 2.0], dtype=complex))


def test_depth_helper_matches_scalar_depth(golden_poincare, cheb_poincare):
    rng = np.random.default_rng(12)
    for pm in (golden_poincare, cheb_poincare):
        mu = abs(pm.mu)
        random_radii = pm.r0 * np.exp(rng.uniform(-3.0, 45.0 * math.log(mu), 1 << 18))
        edges = pm.r0 * mu ** np.arange(46.0)
        radii = np.concatenate([random_radii, [0.0, pm.r0], edges,
                                np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        got = pullback_depths(pm, radii)
        want = np.array([pullback_depth(pm, a) for a in radii.tolist()])
        assert np.array_equal(got, want)


def test_scalar_eval_is_the_one_lane_array_eval(golden_poincare, cheb_poincare):
    rng = np.random.default_rng(8)
    for pm in (golden_poincare, cheb_poincare):
        # moduli spread over pullback depths 0 to 4 or 5
        z = pm.r0 * np.exp(rng.uniform(-2.0, 5.0, 40)) * np.exp(2j * np.pi * rng.random(40))
        f, df = poincare_derivative_eval(pm, z)
        for i, zi in enumerate(z.tolist()):
            assert complex(f[i]) == poincare_eval(pm, zi)
            assert df[i:i + 1].tobytes() == poincare_derivative_eval(pm, z[i:i + 1])[1].tobytes()
        assert f.tobytes() == poincare_eval_many(pm, z).tobytes()


@pytest.mark.parametrize("n", [2, 3, 310, 2**15 + 1])
def test_one_lane_pair_is_every_lane_of_a_full_array(n, golden_branch, cheb_poincare):
    """(f, f') of one point as a one-lane array has the bits of every lane
    of the n-lane array of that point, past one lane block too: the
    continuation evaluates its base point once and hands the pair to every
    lane."""
    for pm, b in ((golden_branch.pm, golden_branch.base_point),
                  (cheb_poincare, -150.0 + 20.0j)):
        one = poincare_derivative_eval(pm, np.array([b]))
        full = poincare_derivative_eval(pm, np.full(n, b))
        for v, v_full in zip(one, full):
            assert np.repeat(v, n).tobytes() == v_full.tobytes()


def test_array_eval_fails_only_overflowing_lanes(cheb_poincare):
    z = np.array([5.0, 1e6, -30.0 + 4.0j, np.nan], dtype=complex)
    f, df = poincare_derivative_eval(cheb_poincare, z)
    assert np.isnan(f[1]) and np.isnan(df[1]) and np.isnan(f[3]) and np.isnan(df[3])
    for i in (0, 2):
        assert f[i] == poincare_eval(cheb_poincare, complex(z[i]))
        assert df[i] == poincare_derivative_eval(cheb_poincare, z[i:i + 1])[1][0]


def log_modulus_eval(pm, z):
    """log|f(z)| at one point: one lane of log_modulus_circle's path."""
    return pc._log_modulus(pm, np.array([z]), pullback_depth(pm, abs(z)))[0]


def test_log_modulus_beyond_overflow(cheb_poincare):
    # 2 cosh(sqrt z) has log-modulus sqrt(z) + O(exp(-2 sqrt z)) on the ray
    for z in [1e6, 1e8, 1e12]:
        got = log_modulus_eval(cheb_poincare, complex(z))
        assert abs(got - math.sqrt(z)) < 1e-6 * (1 + math.sqrt(z))


def test_log_modulus_agrees_with_direct_eval(golden_poincare):
    for z in [3 + 1j, -20 + 5j, 90j]:
        direct = math.log(abs(poincare_eval(golden_poincare, z)))
        assert abs(log_modulus_eval(golden_poincare, z) - direct) < 1e-9 * (1 + abs(direct))


def test_log_modulus_circle_shape(cheb_poincare):
    vals = log_modulus_circle(cheb_poincare, 1e7, n=128)
    assert vals.shape == (128,)
    # max over the circle sits on the positive real axis for this map
    assert np.argmax(vals) == 0
    assert abs(vals[0] - math.sqrt(1e7)) < 1e-3


def test_eval_on_circle_consistency(cheb_poincare):
    z, u, d = eval_on_circle(cheb_poincare, 50.0, n=64)
    for i in range(0, 64, 7):
        assert abs(u[i] - poincare_eval(cheb_poincare, complex(z[i]))) < 1e-10 * (1 + abs(u[i]))
        fd = poincare_derivative_eval(cheb_poincare, z[i:i + 1])[1][0]
        assert abs(d[i] - fd) < 1e-9 * (1 + abs(fd))


def test_derivative_matches_finite_difference(golden_poincare):
    h = 1e-6
    for z in [2 + 1j, -7 + 3j, 40 - 11j]:
        fd = (poincare_eval(golden_poincare, z + h) - poincare_eval(golden_poincare, z - h)) / (2 * h)
        an = poincare_derivative_eval(golden_poincare, np.array([z]))[1][0]
        assert abs(an - fd) < 1e-4 * (1 + abs(an))


def test_order_estimate_chebyshev(cheb_poincare):
    est = order_estimate(cheb_poincare, k_max=20)
    assert abs(est.rho_hat - 0.5) < 0.05
    assert abs(est.rho_formula - 0.5) < 1e-12
    assert len(est.samples) >= 10


def test_order_estimate_needs_enough_doublings(cheb_poincare):
    with pytest.raises(BadParams):
        order_estimate(cheb_poincare, k_max=5)


def test_build_rejects_attracting_fixed_point():
    qm = QuadMap(kind="c", param=0j)
    with pytest.raises(NotRepelling):
        poincare_coefficients(qm, 0j, 32)


def test_coefficients_prefix_stable_under_truncation():
    qm = QuadMap(kind="c", param=-2 + 0j)
    short = poincare_coefficients(qm, 2 + 0j, 24)
    long = poincare_coefficients(qm, 2 + 0j, 48)
    assert np.allclose(short.coeffs[:25], long.coeffs[:25], rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [-2 + 0j, -1.5 + 0.3j])
def test_underflowed_coefficients_keep_the_certificate(c):
    # the coefficients underflow to 0 past n = 88 (c = -2) or n = 94
    # (c = -1.5+0.3i); the longer lists keep those zeros, and their
    # certificate and r0 are those of N = 128
    qm = QuadMap(kind="c", param=c)
    maps = [build_poincare_map(qm, N) for N in (128, 192, 256)]
    assert [len(pm.series_f.coeffs) for pm in maps] == [129, 193, 257]
    assert not np.any(maps[-1].series_f.coeffs[128:])
    assert len({pm.series_f.safe_radius for pm in maps}) == 1
    assert len({pm.r0 for pm in maps}) == 1
