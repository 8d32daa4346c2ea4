import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest

from poincarelab import QuadMap, find_cycle
from poincarelab import siegel
from poincarelab._linearize import conjugacy_coeffs, resubstitution_residuals
from poincarelab.chebfamily import family_angle, find_multiplier_param, find_superattracting
from poincarelab.errors import BadParams, OutOfDomain, ResonantAngle
from poincarelab.series import horner_unchecked, make_series, root_test_rate
from poincarelab.siegel import (
    RotationAngle,
    build_cycle_siegel_map,
    build_siegel_map,
    conjugacy_residual,
    h_eval,
    h_inverse,
    h_inverse_many,
    p_inverse_on_disk,
    siegel_radius_estimate,
    sub_siegel_sample,
)

GAMMA_GOLD = (math.sqrt(5) - 1) / 2


def cycle_local_poly(qmap, zeta, q):
    """Reference for the cycle linearizer: Taylor coefficients of
    P^q(zeta+u) - zeta in u, by composing the polynomial q times (degree
    2^q)."""
    c = qmap.param
    p = np.array([zeta, 1.0], dtype=complex)
    for _ in range(q):
        p = np.convolve(p, p)
        p[0] += c
    assert abs(p[0] - zeta) <= 1e-8 * (1.0 + abs(zeta)), "not a period-q point"
    p[0] = 0.0
    return p


def scalar_h_inverse(sm, w):
    """Reference h^{-1}: scalar Newton from w - center (pulled in to 0.95
    radius_hat), steps clamped to 1.2 radius_hat; None when it does not
    settle in 50 steps."""
    target = w - sm.center_value
    u = target
    if abs(u) > 0.95 * sm.radius_hat:
        u *= 0.95 * sm.radius_hat / abs(u)
    clamp = 1.2 * sm.radius_hat
    for _ in range(50):
        g = complex(horner_unchecked(sm.series_h.coeffs, u)) - target
        if abs(g) < 1e-12 * (1.0 + abs(w)):
            return u
        dg = complex(horner_unchecked(sm.series_dh.coeffs, u))
        if abs(dg) < 1e-14:
            return None
        u = u - g / dg
        if abs(u) > clamp:
            u *= clamp / abs(u)
    return None


@pytest.fixture(scope="module")
def family_siegel():
    return build_siegel_map(family_angle(), N=256)


def test_golden_angle_value():
    g = RotationAngle.golden()
    assert abs(g.gamma - GAMMA_GOLD) < 1e-16
    assert abs(g.lam - cmath.exp(2j * math.pi * GAMMA_GOLD)) < 1e-15
    assert abs(abs(g.lam) - 1.0) < 1e-15


def test_small_divisors_match_sine_formula(golden_angle):
    # |lam^n - lam| = 2 |sin(pi (n-1) gamma)| on the unit circle
    lam = golden_angle.lam
    for n in range(2, 60):
        lhs = abs(lam**n - lam)
        rhs = 2.0 * abs(math.sin(math.pi * (n - 1) * golden_angle.gamma))
        assert abs(lhs - rhs) < 1e-12


def test_second_coefficient_closed_form(golden_angle, golden_siegel):
    lam = golden_angle.lam
    b2 = golden_siegel.series_h.coeffs[2]
    assert abs(b2 - 1.0 / (lam * lam - lam)) < 1e-15


def siegel_coefficients(qm, N):
    """The linearizer series of a lambda-form map at the origin."""
    return make_series(conjugacy_coeffs([qm.param], N))


def test_resonant_angle_rejected():
    with pytest.raises(ResonantAngle):
        build_siegel_map(RotationAngle(1 / 3), 64)


@pytest.mark.parametrize("N", [-5, 0, 63])
def test_too_few_terms_fail_before_the_recursion(N, monkeypatch, golden_angle):
    def refuse(*args):
        raise AssertionError("conjugacy_coeffs ran for a term count it cannot serve")

    monkeypatch.setattr(siegel, "conjugacy_coeffs", refuse)
    with pytest.raises(BadParams, match=rf"at least 64 terms \(got {N}\)$"):
        build_siegel_map(golden_angle, N)


def test_recurrence_residual_small(golden_map, golden_siegel):
    """Plugging the series back into the conjugacy, coefficient by
    coefficient, leaves only roundoff."""
    h = golden_siegel.series_h
    lam = golden_map.param
    N = h.coeffs.size - 1
    scale = np.abs(h.coeffs).max()
    worst = 0.0
    for n in range(2, N // 2):
        conv = np.dot(h.coeffs[1:n], h.coeffs[n - 1 : 0 : -1])
        worst = max(worst, abs(lam**n * h.coeffs[n] - lam * h.coeffs[n] - conv))
    assert worst < 1e-13 * scale


def test_radius_estimate_consistent(golden_siegel):
    est = golden_siegel.radius_info
    assert est.value > 0.25
    assert not est.inconclusive
    # the two estimators agree within a factor of two
    assert est.value <= est.root_estimate * 2.0
    assert est.root_estimate <= est.value * 2.0


def test_conjugacy_residual_on_sub_disk(golden_siegel, golden_angle):
    r = 0.5 * golden_siegel.radius_hat
    assert conjugacy_residual(golden_siegel, r, n_angles=256) < 1e-10
    # the builder and the public residual share one multiplier and one
    # forward map, so they agree to the bit
    lam = golden_angle.lam
    qm = QuadMap(kind="c", param=lam / 2 - lam * lam / 4)
    cycle_map = build_cycle_siegel_map(qm, find_cycle(qm, 1, seed=lam / 2), golden_angle, N=64)
    for sm in (golden_siegel, cycle_map):
        assert conjugacy_residual(sm, sm.sub_fraction * sm.radius_hat) == sm.conj_residual


def test_h_roundtrip_inside_disk(golden_siegel):
    r = 0.4 * golden_siegel.radius_hat
    zs = r * np.exp(2j * np.pi * np.arange(64) / 64.0)
    for z in zs:
        w = h_eval(golden_siegel, complex(z))
        back = h_inverse(golden_siegel, w)
        assert abs(back - z) < 1e-10


def test_h_inverse_many_matches_scalar(golden_siegel):
    r = 0.35 * golden_siegel.radius_hat
    zs = r * np.exp(2j * np.pi * np.arange(16) / 16.0)
    ws = np.array([h_eval(golden_siegel, complex(z)) for z in zs])
    got = h_inverse_many(golden_siegel, ws)
    want = np.array([scalar_h_inverse(golden_siegel, complex(w)) for w in ws])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("which", ["golden", "family"])
def test_h_inverse_domain(which, request):
    """Every point of the sub-disk, up to (1 - 1e-9) of its radius, settles
    and matches the scalar reference; points beyond it, and far points,
    raise OutOfDomain from the one-lane and the batched call alike."""
    sm = request.getfixturevalue(f"{which}_siegel")
    bound = sm.sub_fraction * sm.radius_hat
    rng = np.random.default_rng(5)
    rho = bound * np.concatenate([np.sqrt(rng.random(200)), np.full(32, 1.0 - 1e-9)])
    u = rho * np.exp(2j * np.pi * rng.random(rho.size))
    ws = h_eval(sm, u)
    got = h_inverse_many(sm, ws)
    want = np.array([scalar_h_inverse(sm, complex(w)) for w in ws])
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got - u)) < 1e-10

    ring = np.exp(2j * np.pi * np.arange(16) / 16.0)
    outside = [sm.center_value + horner_unchecked(sm.series_h.coeffs, f * bound * ring)
               for f in (1.1, 1.25, 1.5, 2.0)]
    for ws_bad in outside + [2.5 * ring]:
        for w in ws_bad:
            with pytest.raises(OutOfDomain):
                h_inverse(sm, complex(w))
        with pytest.raises(OutOfDomain):
            h_inverse_many(sm, ws_bad)
        with pytest.raises(OutOfDomain):
            h_inverse_many(sm, np.concatenate([ws[:8], ws_bad[:1]]))


def test_h_inverse_outside_raises_without_warnings(golden_siegel):
    """Lanes far outside the disk overflow in the series and fail; the call
    raises OutOfDomain and numpy warns of nothing first."""
    ws = np.array([2.5, 40.0j, -1e3, 1e30 + 1e30j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain):
            h_inverse_many(golden_siegel, ws)


def test_h_eval_domain_bound(golden_siegel):
    bad = 1.01 * golden_siegel.sub_fraction * golden_siegel.radius_hat
    with pytest.raises(OutOfDomain):
        h_eval(golden_siegel, bad + 0j)


def test_conjugacy_functional_equation(golden_map, golden_angle, golden_siegel):
    lam = golden_angle.lam
    r = 0.4 * golden_siegel.radius_hat
    worst = 0.0
    for k in range(48):
        z = r * cmath.exp(2j * math.pi * k / 48.0)
        lhs = h_eval(golden_siegel, lam * z)
        rhs = golden_map(h_eval(golden_siegel, z))
        worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    assert worst < 1e-10


def test_p_inverse_identity_and_one_step(golden_map, golden_siegel):
    w = complex(h_eval(golden_siegel, 0.1 + 0.05j))
    assert abs(p_inverse_on_disk(golden_siegel, w, 0) - w) < 1e-13
    u = p_inverse_on_disk(golden_siegel, w, 1)
    assert abs(golden_map(u) - w) < 1e-12


def test_p_inverse_preserves_conjugated_modulus(golden_siegel):
    w = h_eval(golden_siegel, 0.12 - 0.03j)
    m0 = abs(h_inverse(golden_siegel, w))
    for k in [1, 5, 20, 50]:
        u = p_inverse_on_disk(golden_siegel, w, k)
        assert abs(abs(h_inverse(golden_siegel, u)) - m0) < 1e-10


def test_sub_siegel_sample_reproducible_and_inside(golden_siegel):
    a = sub_siegel_sample(golden_siegel, 512, seed=7)
    b = sub_siegel_sample(golden_siegel, 512, seed=7)
    assert np.array_equal(a, b)
    c = sub_siegel_sample(golden_siegel, 512, seed=8)
    assert not np.array_equal(a, c)
    bound = golden_siegel.sub_fraction * golden_siegel.radius_hat
    pre = h_inverse_many(golden_siegel, a)
    assert np.max(np.abs(pre)) <= bound * (1 + 1e-12)


def test_sub_disk_forward_invariance(golden_map, golden_siegel):
    """P maps the sampled sub-disk into itself (rotation in h coordinates)."""
    pts = sub_siegel_sample(golden_siegel, 256, seed=3)
    img = np.array([golden_map(complex(w)) for w in pts])
    pre = h_inverse_many(golden_siegel, img)
    bound = golden_siegel.sub_fraction * golden_siegel.radius_hat
    assert np.max(np.abs(pre)) <= bound * (1 + 1e-9)


def test_liouville_angle_shrinks_radius(golden_angle):
    """A rapidly-approximable rotation number gives a smaller certified disk."""
    bad = RotationAngle.from_cf((1, 30, 1, 500, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
    qm_bad = QuadMap(kind="lambda", param=bad.lam)
    qm_gold = QuadMap(kind="lambda", param=golden_angle.lam)
    h_bad = siegel_coefficients(qm_bad, 128)
    h_gold = siegel_coefficients(qm_gold, 128)
    assert root_radius(h_bad) < root_radius(h_gold)


def test_cycle_local_poly_fixed_point():
    qm = QuadMap(kind="c", param=-0.5 + 0.1j)
    zeta = (1 - cmath.sqrt(1 - 4 * qm.param)) / 2
    poly = cycle_local_poly(qm, zeta, 1)
    # P(zeta + u) - zeta = mu u + u^2
    assert abs(poly[0]) < 1e-14
    assert abs(poly[1] - 2 * zeta) < 1e-13
    assert abs(poly[2] - 1.0) < 1e-13


def test_cycle_local_poly_matches_composition():
    qm = QuadMap(kind="c", param=-1.0 + 0.15j)
    cyc = find_cycle(qm, 2, seed=0.1j)
    zeta = cyc.points[0]
    poly = cycle_local_poly(qm, zeta, 2)
    for u in [1e-3, 1e-3j, (1 + 1j) * 5e-4]:
        direct = qm(qm(zeta + u)) - zeta
        horner = 0j
        for a in poly[::-1]:
            horner = horner * u + a
        assert abs(horner - direct) < 1e-10 * (1 + abs(direct))


@pytest.fixture(scope="module")
def family_siegel_cycles():
    """{q: (map, cycle)} for the Siegel cycles of `chebyshev --q 1,...,8`,
    found by family_report's walk from one superattracting center to the
    next."""
    lam = family_angle().lam
    out, prev = {}, 0.25
    for q in range(1, 9):
        bracket = (-2.0 + 1e-9, prev - (prev + 2.0) / 4.0 if q > 1 else 0.25)
        sup = find_superattracting(q, bracket)
        sie = find_multiplier_param(q, lam, sup.c)
        out[q] = (QuadMap(kind="c", param=sie.c), sie.cycle)
        prev = float(sup.c.real)
    return out


@pytest.mark.parametrize("q", range(2, 9))
def test_cycle_chain_solves_composed_equations(q, family_siegel_cycles):
    """At the Siegel cycles of the Chebyshev family, the chain of q quadratic
    steps gives coefficients that solve the equations of the composed
    polynomial P^q (truncated to the series length, which drops only terms
    of valuation > N).  Both sides are rescaled by z -> 2^e z, an exact
    change of variable, so that the coefficients are of order one."""
    N = 64
    qm, cycle = family_siegel_cycles[q]
    b = conjugacy_coeffs([qm.deriv(p) for p in cycle.points], N)
    local = cycle_local_poly(qm, cycle.points[0], q)[: N + 1]
    scale = 2.0 ** round(math.log2(abs(b[N]) ** (-1.0 / (N - 1))))
    n = np.arange(N + 1)
    res = resubstitution_residuals(local * scale ** (n[: local.size] - 1.0),
                                   b * scale ** (n - 1.0))
    assert np.max(res) <= 1e-12


def circle_residual(series, center, lam, forward, r, n_angles=128):
    """Reference for the batched scan: the worst residual on one circle,
    with two Horner calls of its own (inf when some residual is not
    finite)."""
    theta = np.arange(n_angles) * (math.tau / n_angles)
    z = r * np.exp(1j * theta)
    with np.errstate(over="ignore", invalid="ignore"):
        h = center + horner_unchecked(series.coeffs, z)
        lhs = forward(h)
        rhs = center + horner_unchecked(series.coeffs, lam * z)
        rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    return float(np.max(rel)) if np.all(np.isfinite(rel)) else math.inf


def root_radius(series):
    """The root-test radius that siegel_radius_estimate starts from."""
    a = np.abs(series.coeffs)
    return 1.0 / root_test_rate(a, np.flatnonzero(a > 0.0))


def scan_radii(series):
    return root_radius(series) * np.geomspace(0.05, 1.5, 48)


def check_batched_scan(series, center, lam, forward):
    """The batched residuals equal the per-circle ones on every circle, and
    the scan's radius is the last circle before the first that fails,
    found circle by circle; no numpy warning on the way."""
    radii = scan_radii(series)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = siegel._circle_residuals(series, center, lam, forward, radii)
        est = siegel_radius_estimate(series, forward=forward, lam=lam, center=center)
    want = np.array([circle_residual(series, center, lam, forward, r) for r in radii])
    assert rows.tobytes() == want.tobytes()
    passed = -1
    for i, residual in enumerate(want):
        if not residual < siegel.RESIDUAL_SCAN_THRESHOLD:
            break
        passed = i
    assert est.residual_estimate == (float(radii[passed]) if passed >= 0 else 0.0)
    return rows, est


@pytest.mark.parametrize("gamma,N", [(GAMMA_GOLD, 64), (GAMMA_GOLD, 256), (0.38297, 128)])
def test_batched_scan_matches_circle_loop(gamma, N):
    qm = QuadMap(kind="lambda", param=RotationAngle(gamma).lam)
    check_batched_scan(siegel_coefficients(qm, N), 0j, qm.param, qm)


@pytest.mark.parametrize("q", range(2, 9))
def test_batched_scan_matches_circle_loop_on_cycles(q, family_siegel_cycles):
    qm, cycle = family_siegel_cycles[q]
    series = make_series(conjugacy_coeffs([qm.deriv(p) for p in cycle.points], 64))
    check_batched_scan(series, complex(cycle.points[0]), complex(cycle.multiplier),
                       siegel._power(qm, q))


@pytest.mark.parametrize("bad", [1e-6, math.nan])
def test_batched_scan_ends_at_first_failed_circle(bad, golden_angle):
    """Break the conjugacy on circle 10 alone (its |h| band is disjoint
    from its neighbours'): the scan stops there although later circles
    pass, and a NaN residual fails its circle as inf."""
    qm = QuadMap(kind="lambda", param=golden_angle.lam)
    series = siegel_coefficients(qm, 256)
    theta = np.arange(128) * (math.tau / 128)
    band = np.abs(horner_unchecked(series.coeffs, scan_radii(series)[10] * np.exp(1j * theta)))
    lo, hi = band.min(), band.max()

    def forward(h):
        a = np.abs(h)
        return np.where((a >= lo) & (a <= hi), qm(h) + bad, qm(h))

    rows, est = check_batched_scan(series, 0j, qm.param, forward)
    assert np.all(rows[:10] < siegel.RESIDUAL_SCAN_THRESHOLD)
    assert rows[10] == math.inf if math.isnan(bad) else 1e-8 < rows[10] < math.inf
    assert np.all(rows[11:20] < siegel.RESIDUAL_SCAN_THRESHOLD)
    assert est.residual_estimate == float(scan_radii(series)[9])


def test_build_cycle_siegel_map_fixed_point_case(golden_angle):
    # c chosen so the finite fixed point has multiplier exactly lam
    lam = golden_angle.lam
    c = lam / 2 - lam * lam / 4
    qm = QuadMap(kind="c", param=c)
    cyc = find_cycle(qm, 1, seed=lam / 2)
    sm = build_cycle_siegel_map(qm, cyc, golden_angle, N=64)
    assert sm.period == 1
    assert sm.radius_hat > 0
    assert sm.conj_residual < 1e-10


def test_angle_requires_irrational_in_unit_interval():
    with pytest.raises(BadParams):
        RotationAngle(gamma=1.5)
    with pytest.raises(BadParams):
        RotationAngle(gamma=0.0)


def _chebyshev_q3_map():
    """The q = 3 Siegel-cycle map of `chebyshev --q 3` (default angle and
    terms), built as family_report builds it."""
    angle = family_angle()
    sup = find_superattracting(3, (-2.0 + 8.0 / 4**3, -2.0 + 24.0 / 4**3))
    sie = find_multiplier_param(3, angle.lam, sup.c)
    return build_cycle_siegel_map(QuadMap(kind="c", param=sie.c), sie.cycle, angle, N=64)


_SIEGEL_PINS = {
    "golden_256": (
        lambda: build_siegel_map(RotationAngle.golden(), 256),
        "392191b6843959c00f798afae913a7bb131ffa872e53e1ff7e6933141854011a",
        "ee4cc26b02e850932bc3bd6b01c2658660e49c959a0f29ee3b2ede3d53bad570",
        (0.3042460422165764, 0.3366126717992553, 0.3042460422165764, False),
        5.055585542069994e-17,
    ),
    "gamma_0.38297_128": (
        lambda: build_siegel_map(RotationAngle(0.38297), 128),
        "36c48769ef55896640a2506969957b0c7525495f2cfebcdc8ed48dbd2330b26b",
        "b44839648dc018eebcb9c5c43a3969307ccca4e4a8b4ab789ecde2d48233c6d6",
        (0.28159088648296027, 0.3349285971296083, 0.28159088648296027, False),
        4.846727805258576e-17,
    ),
    "chebyshev_q3_64": (
        _chebyshev_q3_map,
        "e63efece68c748b0ab5d439374d32eafc3e397b99d307b0be6a6b19f0703941e",
        "76eb7bffac5aa4b5b817058ddfa78e3c9a614fe9890d6650af000f6dfc7942f2",
        (0.020949748960301336, 0.028798421389103518, 0.020949748960301336, False),
        2.108893506139934e-15,
    ),
}


@pytest.mark.parametrize("name", sorted(_SIEGEL_PINS))
def test_siegel_maps_keep_their_bits(name):
    """The survey's and the CLI's golden map, a plain angle and a Siegel
    cycle keep every bit of their series, radius estimate and residual."""
    build, h_sha, dh_sha, (value, root, resid, inconclusive), conj = _SIEGEL_PINS[name]
    sm = build()
    assert hashlib.sha256(sm.series_h.coeffs.tobytes()).hexdigest() == h_sha
    assert hashlib.sha256(sm.series_dh.coeffs.tobytes()).hexdigest() == dh_sha
    assert sm.radius_hat == value
    info = sm.radius_info
    assert (info.value, info.root_estimate, info.residual_estimate,
            info.inconclusive) == (value, root, resid, inconclusive)
    assert sm.conj_residual == conj
