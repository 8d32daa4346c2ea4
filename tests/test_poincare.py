import cmath
import math

import numpy as np
import pytest

from poincarelab import QuadMap
from poincarelab.errors import BadParams, NotRepelling, OverflowSentinel
from poincarelab.poincare import (
    build_poincare_map,
    check_functional_equation,
    eval_on_circle,
    functional_equation_residual,
    log_modulus_circle,
    log_modulus_eval,
    order_estimate,
    poincare_coefficients,
    poincare_derivative_eval,
    poincare_eval,
    poincare_eval_many,
    pullback_depth,
    pullback_depths,
)


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
        assert abs(poincare_derivative_eval(pm, 0j) - 1.0) < 1e-12


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
    z = 100.0 * cheb_poincare.r0
    with pytest.raises(BadParams):
        poincare_eval(cheb_poincare, z, depth=1)


def test_overflow_sentinel(cheb_poincare):
    with pytest.raises(OverflowSentinel):
        poincare_eval(cheb_poincare, 1e6 + 0j)
    with pytest.raises(OverflowSentinel):
        poincare_derivative_eval(cheb_poincare, 1e6 + 0j)
    with pytest.raises(OverflowSentinel):
        poincare_eval_many(cheb_poincare, np.array([1.0, 1e6], dtype=complex))


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
        f = poincare_eval(pm, z)
        df = poincare_derivative_eval(pm, z)
        for i, zi in enumerate(z.tolist()):
            assert complex(f[i]) == poincare_eval(pm, zi)
            assert complex(df[i]) == poincare_derivative_eval(pm, zi)
        assert f.tobytes() == poincare_eval_many(pm, z).tobytes()


def test_array_eval_fails_only_overflowing_lanes(cheb_poincare):
    z = np.array([5.0, 1e6, -30.0 + 4.0j, np.nan], dtype=complex)
    f = poincare_eval(cheb_poincare, z)
    df = poincare_derivative_eval(cheb_poincare, z)
    assert np.isnan(f[1]) and np.isnan(df[1]) and np.isnan(f[3]) and np.isnan(df[3])
    for i in (0, 2):
        assert f[i] == poincare_eval(cheb_poincare, complex(z[i]))
        assert df[i] == poincare_derivative_eval(cheb_poincare, complex(z[i]))


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
        fd = poincare_derivative_eval(cheb_poincare, complex(z[i]))
        assert abs(d[i] - fd) < 1e-9 * (1 + abs(fd))


def test_derivative_matches_finite_difference(golden_poincare):
    h = 1e-6
    for z in [2 + 1j, -7 + 3j, 40 - 11j]:
        fd = (poincare_eval(golden_poincare, z + h) - poincare_eval(golden_poincare, z - h)) / (2 * h)
        an = poincare_derivative_eval(golden_poincare, z)
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
