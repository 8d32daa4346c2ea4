import cmath
import dataclasses
import functools
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.chebfamily import (
    family_angle,
    family_report,
    find_multiplier_param,
    find_superattracting,
    repelling_fixed_data,
)
from poincarelab.errors import (
    BadParams,
    CycleCollision,
    NoSignChange,
    NotRepelling,
)

# real parameter with a superattracting 3-cycle (root of c^3 + 2c^2 + c + 1
# on the negative axis), long verified in the dynamics literature
C3_CENTER = -1.7548776662466928

# brackets around the superattracting center closest to -2, per period, as
# in test_superattracting_centers and test_tip_scaling_toward_flat_limit
CENTER_BRACKETS = {
    1: (-0.4, 0.2), 2: (-1.4, -0.6), 3: (-1.79, -1.7), 4: (-1.95, -1.92),
    5: (-1.99, -1.976), 6: (-1.9975, -1.995), 7: (-1.9995, -1.9985),
    8: (-1.9999, -1.99), 9: (-1.99999, -1.99975), 10: (-1.999999, -1.99993),
}


@functools.lru_cache(maxsize=None)
def _center(q):
    return find_superattracting(q, CENTER_BRACKETS[q]).c


def test_family_angle_matches_continued_fraction():
    g = family_angle(terms=40)
    # evaluate the documented continued fraction [0; 2, 20, 1, 1, ...] exactly
    x = Fraction(0)
    for a in reversed([2, 20] + [1] * 38):
        x = Fraction(1, a + x)
    assert abs(g.gamma - float(x)) < 1e-15
    assert 0.48 < g.gamma < 0.5


@pytest.mark.parametrize(
    "q,bracket,c_want",
    [
        (1, (-0.4, 0.2), 0.0),
        (2, (-1.4, -0.6), -1.0),
        (3, (-1.79, -1.7), C3_CENTER),
        # deep enough that stopping short of the closest double leaves a
        # residual above the 1e-12 gate
        (8, (-1.9999, -1.99), -1.9997740486937273),
        # deeper still, even the closest double leaves a residual above
        # 1e-12; the centers are 50-digit Newton roots rounded to double
        (9, (-1.99999, -1.99975), -1.999943521765674),
        (10, (-1.999999, -1.99993), -1.999985881140392),
        (7, (-1.9995, -1.9985), -1.9990956823270185),
    ],
)
def test_superattracting_centers(q, bracket, c_want):
    res = find_superattracting(q, bracket)
    assert abs(res.c - c_want) < 1e-10
    # a one-ulp step in c moves Q_c^q(0) by |dQ/dc| * ulp(c)
    c = res.c.real
    z = dz = 0.0
    for _ in range(q):
        z, dz = z * z + c, 2.0 * z * dz + 1.0
    assert res.residual < max(1e-12, abs(dz) * math.ulp(c))
    if q <= 8:
        assert res.residual < 1e-12
    if c_want == 0.0:
        assert math.copysign(1.0, res.c.real) == 1.0  # +0.0, never -0.0
    assert abs(res.cycle.multiplier) < 1e-8
    assert res.cycle.period == q


def test_superattracting_requires_sign_change():
    with pytest.raises(NoSignChange):
        find_superattracting(2, (-0.5, -0.3))


def test_superattracting_bracket_validation():
    with pytest.raises(BadParams):
        find_superattracting(2, (-3.0, 0.0))
    with pytest.raises(BadParams):
        find_superattracting(0, (-1.0, 0.0))


def test_parabolic_parameters_closed_form():
    p1 = find_multiplier_param(1, -1 + 0j, seed_c=0j)
    assert abs(p1.c - (-0.75)) < 1e-10
    p2 = find_multiplier_param(2, -1 + 0j, seed_c=-1 + 0j)
    assert abs(p2.c - (-1.25)) < 1e-10
    assert abs(p2.cycle.multiplier - (-1)) < 1e-8


def test_interior_multiplier_closed_form():
    # m(c) = 1 - sqrt(1-4c) on the fixed-point disk: c = m/2 - m^2/4
    res = find_multiplier_param(1, 0.5 + 0j, seed_c=0j)
    assert abs(res.c - 0.1875) < 1e-10


def test_siegel_parameters_closed_form():
    g = family_angle()
    lam = g.lam
    s1 = find_multiplier_param(1, lam, seed_c=0j)
    assert abs(s1.c - (lam / 2 - lam * lam / 4)) < 1e-10
    s2 = find_multiplier_param(2, lam, seed_c=-1 + 0j)
    assert abs(s2.c - (-1 + lam / 4)) < 1e-10


def _mp_multiplier_param(q, target, c0, steps=8):
    """c with a period-q cycle of multiplier `target`: mpmath's Newton (its
    own difference Jacobian) at 50 digits on P_c^q(z) = z and
    (P_c^q)'(z) = t * target, t = 1/steps, ..., 1, from (z, c) = (0, c0)."""
    def system(z, c, m):
        w, d = z, mpmath.mpc(1)
        for _ in range(q):
            w, d = w * w + c, 2 * w * d
        return [w - z, d - m]

    with mpmath.workdps(50):
        z, c = mpmath.mpc(0), mpmath.mpc(c0)
        for s in range(1, steps + 1):
            m = mpmath.mpc(target) * s / steps
            z, c = mpmath.findroot(lambda z, c: system(z, c, m), (z, c))
        return complex(c)


@pytest.mark.parametrize("q", [7, 8, 9, 10])
@pytest.mark.parametrize("which", ["parabolic", "siegel"])
def test_deep_multiplier_params_match_mpmath(q, which):
    target = -1 + 0j if which == "parabolic" else family_angle().lam
    res = find_multiplier_param(q, target, _center(q))
    assert abs(res.c - _mp_multiplier_param(q, target, _center(q).real)) <= 1e-14
    assert res.cycle.min_gap() > 0.0
    assert res.cycle.period == q
    assert res.residual < 1e-8
    assert abs(res.cycle.multiplier - target) == res.residual


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.integers(1, 10), mod=st.floats(0.0, 0.99), arg=st.floats(-math.pi, math.pi))
def test_multiplier_param_hits_target_in_the_disk(q, mod, arg):
    target = cmath.rect(mod, arg)
    res = find_multiplier_param(q, target, _center(q))  # CycleCollision fails the test
    assert res.residual < 1e-8
    assert abs(res.cycle.multiplier - target) < 1e-8
    assert res.cycle.period == q


def test_degenerate_seed_collides():
    with pytest.raises(CycleCollision):
        find_multiplier_param(2, 0.5 + 0j, seed_c=0j)


def test_repelling_fixed_data_flat_family():
    z, mu, rho = repelling_fixed_data(-2 + 0j)
    assert abs(z - 2) < 1e-14
    assert abs(mu - 4) < 1e-14
    assert abs(rho - 0.5) < 1e-15
    z0, mu0, rho0 = repelling_fixed_data(0j)
    assert abs(z0 - 1) < 1e-14 and abs(mu0 - 2) < 1e-14 and abs(rho0 - 1) < 1e-15


def test_repelling_fixed_data_branch_continuity():
    # the branch continuing z=2 at c=-2 keeps Re sqrt >= 0
    z, mu, _ = repelling_fixed_data(-1.9 + 0.05j)
    assert abs(z - 2) < 0.2
    with pytest.raises(BadParams):
        repelling_fixed_data(0.25 + 0j)


def test_repelling_fixed_data_rejects_neutral():
    # at the parabolic root c = -3/4 ... the OTHER fixed point is repelling,
    # but on the cardioid boundary both multipliers have |mu| <= 1 only at
    # the cusp; check an interior attracting case is still fine (z branch is
    # the repelling one) and the cusp itself errors
    z, mu, rho = repelling_fixed_data(-0.75 + 0j)
    assert abs(mu) > 1


def test_family_report_rows_and_limits():
    g = family_angle()
    rep = family_report([1, 2, 3], g, series_terms=64)
    assert [row.q for row in rep.rows] == [1, 2, 3]
    mus = []
    for row in rep.rows:
        assert row.error is None
        assert abs(row.mu) < 4.0
        assert row.rho > 0.5
        assert row.siegel_residual < 1e-10
        assert row.mult_residual < 1e-8
        mus.append(abs(row.mu))
    assert mus == sorted(mus)  # |mu| increases toward the flat-family limit 4
    assert rep.limits["mu_limit"] == 4.0
    assert rep.limits["rho_limit"] == 0.5


def test_family_rows_depend_only_on_q():
    """A row of a list run equals the row of its one-period run, so no row
    carries state from the rows before it."""
    g = family_angle()
    listed = family_report(range(1, 11), g)
    for row in listed.rows:
        alone = family_report([row.q], g).rows[0]
        for f in dataclasses.fields(row):
            assert getattr(row, f.name) == getattr(alone, f.name), (row.q, f.name)


def test_family_report_requires_increasing_q():
    g = family_angle()
    with pytest.raises(BadParams):
        family_report([2, 1], g)


def test_tip_scaling_toward_flat_limit():
    """The superattracting centers approach c = -2 with the expected
    asymptotic rate (c_q + 2) ~ const * 4^-q."""
    c3 = find_superattracting(3, (-1.79, -1.7)).c
    c4 = find_superattracting(4, (-1.95, -1.92)).c
    c5 = find_superattracting(5, (-1.99, -1.976)).c
    r1 = (c3.real + 2) / (c4.real + 2)
    r2 = (c4.real + 2) / (c5.real + 2)
    assert 2.5 < r1 < 5.5
    assert 3.0 < r2 < 5.0
