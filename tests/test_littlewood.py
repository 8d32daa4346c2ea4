import cmath
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarelab import littlewood as lw
from poincarelab.errors import BadParams, InsufficientData, OverflowSentinel


def spherical_derivative(ev, z):
    """2 |P'(z)| / (1 + |P(z)|^2) at one point."""
    return lw._sph_many(ev, np.array([z]))[0]


def test_spherical_derivative_identity_map():
    ev = lw.coeff_evaluator([0.0, 1.0])
    assert abs(spherical_derivative(ev, 0j) - 2.0) < 1e-15
    assert abs(spherical_derivative(ev, 1 + 0j) - 1.0) < 1e-15


@pytest.mark.parametrize("z", [
    complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0),
    complex(0.5, math.nan), complex(math.inf, math.nan),
])
@pytest.mark.parametrize("ev", [
    lw.iterate_evaluator(-1, 3), lw.monomial_evaluator(4), lw.coeff_evaluator([1.0, 0.0, 2.0]),
], ids=["iterate", "monomial", "coeff"])
def test_spherical_derivative_rejects_non_finite_points(ev, z):
    """Each kind of non-finite point, alone, is refused by the evaluator's
    checked call, and numpy warns of nothing first; the quadrature takes
    spherical derivatives only at the finite points of its mesh."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            ev(np.array([z]))


@pytest.mark.parametrize("ev", [
    lw.iterate_evaluator(-1, 3), lw.monomial_evaluator(4), lw.coeff_evaluator([1.0, 0.0, 2.0]),
], ids=["iterate", "monomial", "coeff"])
def test_evaluator_rejects_non_finite_lanes(ev):
    """A batch with a NaN or infinite lane raises BadParams, and numpy warns
    of nothing first; finite lanes evaluate as before."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([math.nan, math.inf], [0.5, complex(0.0, -math.inf)],
                    [complex(math.nan, 0.0), 0.25j]):
            with pytest.raises(BadParams):
                ev(np.array(bad, dtype=complex))
        z = np.array([0.5, 0.25j, -0.3 + 0.1j])
        for got, want in zip(ev(z), ev.fn(z)):
            assert np.array_equal(got, want)


def test_monomial_and_coeff_evaluators_agree():
    n = 5
    a = lw.monomial_evaluator(n)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    b = lw.coeff_evaluator(coeffs)
    z = np.array([0.3 + 0.4j, -0.8j, 0.99 + 0j, 0.1 - 0.2j])
    va, da = a.fn(z)
    vb, db = b.fn(z)
    assert np.allclose(va, vb, atol=1e-15)
    assert np.allclose(da, db, atol=1e-14)
    assert a.degree == b.degree == n


def test_iterate_evaluator_matches_composition():
    c = -1 + 0j
    ev = lw.iterate_evaluator(c, 3)
    assert ev.degree == 8
    z = np.array([0.4 + 0.2j, -0.6 + 0.1j, 0.05j])
    vals, _ = ev.fn(z)
    direct = z.copy()
    for _ in range(3):
        direct = direct * direct + c
    assert np.allclose(vals, direct, atol=1e-13)
    # derivative against central differences
    h = 1e-6
    vp, _ = ev.fn(z + h)
    vm, _ = ev.fn(z - h)
    _, ds = ev.fn(z)
    assert np.allclose(ds, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-7)


def test_iterate_evaluator_escape_freeze():
    # far outside every filled Julia set the iterates blow past the freeze
    # threshold; values stay finite and the derivative collapses to zero
    ev = lw.iterate_evaluator(3 + 0j, 40)
    vals, ders = ev.fn(np.array([2.0 + 2.0j]))
    assert np.all(np.isfinite(vals.view(float)))
    assert ders[0] == 0


def masked_iterate(c, n, z):
    """The iterate evaluator as a masked update of the live lanes: the
    reference for the compacted one in `littlewood.iterate_evaluator`."""
    w = z.copy()
    d = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    for _ in range(n):
        d[live] *= 2.0 * w[live]
        w[live] = w[live] ** 2 + c
        escaped = live & (np.abs(w) > lw.ESCAPE_BOUND)
        d[escaped] = 0.0
        live &= ~escaped
    return w, d


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 5, 12, 40])
@pytest.mark.parametrize("c", [-1 + 0j, 0.3 + 0.5j, 3 + 0j])
@np.errstate(over="ignore", invalid="ignore")
def test_iterate_evaluator_bits_match_masked(c, n):
    # |z| <= 3: for c = -1 and n = 12 the carried bound passes its limit at
    # step 6 and lanes escape from step 7 on, so the skipped tests hide none
    rng = np.random.default_rng(np.random.SeedSequence([4096, n]))
    z = 3.0 * np.sqrt(rng.random(4096)) * np.exp(1j * math.tau * rng.random(4096))
    z[[1, 5, 9, 13, 17]] = [complex(math.nan, 0.0), complex(math.inf, 0.0),
                            complex(0.0, -math.inf), 1e30, complex(-1e30, 1e30)]
    fn = lw.iterate_evaluator(c, n).fn
    w, d = fn(z)
    w_ref, d_ref = masked_iterate(c, n, z)
    assert _same_bits(w, w_ref) and _same_bits(d, d_ref)
    assert np.all(d[np.abs(w) > lw.ESCAPE_BOUND] == 0)
    # short calls, down to one lane, where the last live lane of a call is
    # updated alone
    for k in range(0, 64, 3):
        part = z[k:k + k % 4 + 1]
        assert all(_same_bits(a, b) for a, b in zip(fn(part), masked_iterate(c, n, part)))


def test_iterate_evaluator_lone_survivor_bits():
    # every lane but one escapes: from then on the masked update multiplies
    # the survivor's derivative alone
    rng = np.random.default_rng(7)
    z = 3.0 * np.exp(1j * math.tau * rng.random(20000))
    lone = 8199
    z[lone] = np.exp(0.7j)  # on the Julia set of z^2
    w, d = lw.iterate_evaluator(0j, 40).fn(z)
    w_ref, d_ref = masked_iterate(0j, 40, z)
    assert _same_bits(w, w_ref) and _same_bits(d, d_ref)
    assert np.count_nonzero(d) == 1 and d[lone] != 0


def test_symmetry_declarations():
    assert lw.iterate_evaluator(-1 + 0j, 3).symmetry == (2, True)
    assert lw.iterate_evaluator(0.3 + 0.2j, 3).symmetry == (2, False)
    assert lw.monomial_evaluator(12).symmetry == (12, True)
    assert lw.coeff_evaluator([-1, 0, 1]).symmetry == (1, False)
    ev = lw.iterate_evaluator(-1 + 0j, 2)
    wrapped = functools.wraps(ev.fn)(lambda z: ev.fn(z))
    assert lw.PolyEvaluator(degree=4, label="wrapped", fn=wrapped).symmetry == (2, True)
    assert [lw._fold(lw.monomial_evaluator(m)) for m in (1, 2, 3, 4, 6, 8, 64)] == \
        [2, 4, 2, 8, 4, 16, 16]
    assert lw._fold(lw.iterate_evaluator(-1 + 0j, 1)) == 4
    assert lw._fold(lw.iterate_evaluator(0.3 + 0.2j, 1)) == 2


def _undeclared(ev):
    """The same polynomial with no declared symmetry (fold 1)."""
    return lw.PolyEvaluator(degree=ev.degree, label=ev.label, fn=lambda z: ev.fn(z))


@pytest.mark.parametrize("ev", [lw.iterate_evaluator(c, n)
                                for c in (-1 + 0j, 0.3 + 0.2j) for n in (1, 2, 3, 4)]
                         + [lw.monomial_evaluator(m) for m in (1, 3, 8, 64)],
                         ids=lambda ev: ev.label)
def test_fold_is_exact_reexpression(ev):
    folded = lw.disk_integral(ev, tol=1e-4)
    whole = lw.disk_integral(_undeclared(ev), tol=1e-4)
    assert abs(folded.value - whole.value) <= folded.error_bound + whole.error_bound
    assert folded.error_bound <= 1e-4 and not folded.budget_exceeded
    assert folded.evaluations < whole.evaluations


def test_undeclared_evaluator_bits_unchanged():
    # value, error estimate and evaluation count of the whole-disk quadrature
    # (fold 1) and of folded ones (fold 4, 2 and 16)
    cases = [(lw.coeff_evaluator([-1, 0, 1]),
              (4.059543827657338, 1.045385665871337e-06, 10880, False)),
             (lw.iterate_evaluator(-1, 5),
              (12.708515958514564, 4.341676439931543e-05, 28458, False)),
             (lw.iterate_evaluator(0.3 + 0.2j, 4),
              (9.430776784926632, 4.029354176639562e-05, 32164, False)),
             (lw.monomial_evaluator(64),
              (9.692681015005174, 1.401305172202822e-05, 1207, False))]
    for ev, expected in cases:
        est = lw.disk_integral(ev, 1e-4)
        assert (est.value, est.error_bound, est.evaluations, est.budget_exceeded) == \
            expected, ev.label


# (value, error_bound, evaluations, budget_exceeded) of the benchmark's
# quadrature workload at tol 1e-4
_WORKLOAD_BITS = {
    "iterate n=1": (4.059543827657338, 1.045385665037694e-06, 2720, False),
    "iterate n=2": (7.756260195746372, 3.143276251112474e-05, 3230, False),
    "iterate n=3": (9.093779189001484, 5.079159743118429e-05, 5678, False),
    "iterate n=4": (11.68061427688416, 3.4626564576741115e-05, 11730, False),
    "iterate n=5": (12.708515958514564, 4.341676439931543e-05, 28458, False),
    "z^1": (4.355172180607205, 9.367451345859701e-11, 5440, False),
    "z^2": (6.126049055452637, 1.2402780901377315e-09, 2720, False),
    "z^4": (7.597939514668651, 2.216892485592034e-08, 1530, False),
    "z^8": (8.59950456345869, 3.604361965786831e-07, 850, False),
    "z^16": (9.19491543770942, 2.6298000412092237e-06, 969, False),
    "z^32": (9.52142863238953, 9.472881126574197e-06, 1088, False),
    "z^64": (9.692681015005174, 1.401305172202822e-05, 1207, False),
    "z^128": (9.780417002533346, 1.4085022138390374e-05, 1292, False),
    "z^256": (9.824827120934183, 1.4111653278075525e-05, 1377, False),
    "z^512": (9.847169599499837, 1.4124251190960885e-05, 1462, False),
    "z^1024": (9.858375433126707, 1.4130414124939871e-05, 1547, False),
    "z^2048": (9.863987028684734, 1.4133466977016724e-05, 1632, False),
    "z^4096": (9.866794999933607, 1.4134987382396297e-05, 1717, False),
}


def test_quadrature_workload_bits_unchanged():
    evs = ([(f"iterate n={n}", lw.iterate_evaluator(-1.0, n)) for n in range(1, 6)]
           + [(f"z^{2**k}", lw.monomial_evaluator(2**k)) for k in range(13)])
    got = {}
    for name, ev in evs:
        est = lw.disk_integral(ev, 1e-4)
        got[name] = (est.value, est.error_bound, est.evaluations, est.budget_exceeded)
    assert got == _WORKLOAD_BITS


# c = -1 at tol 1e-6: deep refinement, 42 and 46 rounds of error-sum tests
# over both root meshes; the values were recorded when every round's test
# took the exact sum, which the bracketed test must reproduce
@pytest.mark.parametrize("n,pinned", [
    (8, (18.492383454624292, 3.555291914735333e-07, 1257626, False)),
    (9, (20.265898006173316, 4.262697505293203e-07, 2563872, False)),
])
def test_deep_iterate_bits_pinned(n, pinned):
    est = lw.disk_integral(lw.iterate_evaluator(-1 + 0j, n), 1e-6)
    assert (est.value, est.error_bound, est.evaluations, est.budget_exceeded) == pinned


_SLICED = ([lw.iterate_evaluator(c, n) for c in (-1 + 0j, 0.3 + 0.2j) for n in (1, 2, 3, 4)]
           + [lw.coeff_evaluator([-1, 0, 1]), lw.monomial_evaluator(8)])


@pytest.mark.parametrize("ev", _SLICED, ids=lambda ev: ev.label)
def test_level_slices_do_not_change_estimates(ev, monkeypatch):
    # the rule runs over slices of _CELL_SLICE cells; tol 1e-2 keeps the
    # one-cell slices affordable
    whole = lw.disk_integral(ev, 1e-2)
    for size in (1, 3):
        monkeypatch.setattr(lw, "_CELL_SLICE", size)
        assert lw.disk_integral(ev, 1e-2) == whole


_evaluator = st.one_of(
    st.builds(lw.iterate_evaluator,
              st.builds(complex, st.floats(-2.0, 0.25),
                        st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
              st.integers(1, 3)),
    st.builds(lw.monomial_evaluator, st.integers(1, 64)),
    st.builds(lw.coeff_evaluator,
              st.lists(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=2, max_size=4)))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(ev=_evaluator, tol=st.floats(-3.0, -1.0).map(lambda e: 10.0**e),
       budget=st.one_of(st.none(), st.integers(2_000, 20_000)))
@example(ev=lw.iterate_evaluator(0.3 + 0.5j, 3), tol=1e-3, budget=2_000)
def test_chunk_boundaries_do_not_change_estimates(ev, tol, budget):
    # any slice size of the rule, and so any slice boundary, gives the same
    # estimate, over the budget too (the budgets are those the rule can
    # pass at these tolerances)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(lw, "EVAL_BUDGET", budget)
        whole = lw.disk_integral(ev, tol)
        assert whole.budget_exceeded or whole.error_bound <= tol
        for size in (1, 3, 7):
            mp.setattr(lw, "_CELL_SLICE", size)
            assert lw.disk_integral(ev, tol) == whole, size


def test_over_budget_estimate_is_capped_and_slice_free(monkeypatch):
    # n = 5 needs 28,458 evaluations at tol 1e-4; under a cap of 10,000 the
    # last round splits only the worst cells that fit, spending the budget
    # to within one split (34 evaluations), and no estimate is claimed
    monkeypatch.setattr(lw, "EVAL_BUDGET", 10_000)
    ev = lw.iterate_evaluator(-1 + 0j, 5)
    for size in (3, lw._CELL_SLICE):
        monkeypatch.setattr(lw, "_CELL_SLICE", size)
        est = lw.disk_integral(ev, 1e-4)
        assert est == lw.IntegralEstimate(
            value=12.708693016581098, error_bound=math.inf,
            evaluations=9996, degree=32, budget_exceeded=True)
        assert lw.EVAL_BUDGET - 34 < est.evaluations <= lw.EVAL_BUDGET


def test_non_finite_probes_fail_fast():
    # 1e308 z^2 has a derivative past the float range on the outer disk
    # (2e308 z): the first probes that see it raise, long before the
    # budget.  The derivative's coefficients overflow on their way there.
    probed = []
    with np.errstate(over="ignore", invalid="ignore"):
        ev = lw.coeff_evaluator([0, 0, 1e308])

        def fn(z):
            probed.append(z.size)
            return ev.fn(z)

        counted = lw.PolyEvaluator(degree=ev.degree, label=ev.label, fn=fn)
        with pytest.raises(OverflowSentinel):
            lw.disk_integral(counted, 1e-2)
    assert sum(probed) < 100_000
    # a single point raises too, and numpy warns of nothing first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSentinel):
            spherical_derivative(ev, 0.95 + 0j)
    # nor does building the evaluator or the root mesh warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSentinel):
            lw.disk_integral(lw.coeff_evaluator([0, 0, 1e308]), 1e-2)


def test_disk_integral_memory_is_bounded():
    # n = 6 peaks near 31 MB, interpreter and numpy included: a cell is
    # seven floats, the rule runs _CELL_SLICE cells at a time, and a round's
    # error test is a numpy sum; math.fsum's list of floats is built only
    # for the two totals at the end and for a round whose rounding bracket
    # is undecided.  Refined one whole level at a time it peaked near
    # 290 MB.  The child reads its own VmHWM: ru_maxrss would carry over
    # the peak of the test process that spawned it.
    code = ("from poincarelab import littlewood as lw\n"
            "lw.disk_integral(lw.iterate_evaluator(-1, 6), 1e-4)\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(lw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) / 1024 < 65  # VmHWM is in kB


def _fsum_at_most(x, t):
    """fsum(x) <= t, or the type of the error fsum raises."""
    try:
        return math.fsum(x.tolist()) <= t
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _sum_at_most(x, t):
    try:
        return lw._sum_at_most(x, t)
    except (ValueError, OverflowError) as exc:
        return type(exc)


_nonneg = st.one_of(
    st.floats(0.0, 1e300),  # subnormals included
    st.builds(math.ldexp, st.integers(0, 2**53 - 1), st.integers(-1100, 940)),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0**1009,
                     1.7976931348623157e308]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(_nonneg, min_size=1, max_size=12),
       size=st.one_of(st.integers(0, 40), st.sampled_from([1000, 4097, 100_000])),
       seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 60),
       specials=st.lists(st.sampled_from([math.inf, math.nan]), max_size=2),
       targets=st.lists(st.floats(allow_nan=True), max_size=3), data=st.data())
def test_sum_at_most_is_fsum(pool, size, seed, spread, specials, targets, data):
    # x tiles the pool to the size, each float scaled by a random power of 2
    # up to 2^-spread (subnormals and underflows to 0 included), with
    # inf or NaN at drawn places; the targets are fsum(x), its neighbours
    # and random floats
    rng = np.random.default_rng(seed)
    x = np.ldexp(np.resize(np.array(pool), size), -rng.integers(0, spread + 1, size))
    for v in specials:
        x = np.insert(x, data.draw(st.integers(0, x.size)), v)
    try:
        exact = math.fsum(x.tolist())
    except OverflowError:
        exact = math.nan
    targets += [exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf),
                exact * (1.0 + 2.0**-40), exact * (1.0 - 2.0**-40)]
    for t in targets:
        assert _sum_at_most(x, t) == _fsum_at_most(x, t), (t, x.size)


def test_sum_at_most_where_np_sum_is_far_off():
    # np.sum adds in interleaved accumulators, and the one that starts with
    # 1.0 drops its share of the 2^-53 summands: here it ends 8 ulps below
    # the exact sum, so a fixed bracket of a few ulps would decide wrongly
    x = np.full(128, 2.0**-53)
    x[0] = 1.0
    s, exact, ulp = float(np.sum(x)), math.fsum(x.tolist()), math.ulp(1.0)
    for k in range(-2, round((exact - s) / ulp) + 3):
        t = s + k * ulp
        assert lw._sum_at_most(x, t) == (exact <= t), k


def test_sum_at_most_non_finite_and_overflow():
    inf, nan, big = math.inf, math.nan, 1.7976931348623157e308
    for xs in ([1.0, inf, 2.0], [nan, 1.0], [inf, nan, 3.0], [big, 9e291],
               [big, big], [big, 1e292], [1e308, 1e308, 0.0]):
        x = np.array(xs)
        for t in (-1.0, 0.0, 1.0, big, inf, nan):
            assert _sum_at_most(x, t) == _fsum_at_most(x, t), (xs, t)


def _integrand(ev, z):
    v, d = ev(np.array([z]))
    return 2.0 * abs(d[0]) / (1.0 + abs(v[0]) ** 2)


def _check_declared_symmetry(ev, z):
    rotation, conjugation = ev.symmetry
    f = _integrand(ev, z)
    # -z is exact; other rotations are rounded once
    images = [-z if rotation == 2 else z * cmath.exp(1j * math.tau / rotation)]
    if conjugation:
        images.append(z.conjugate())
    for u in images:
        g = _integrand(ev, u)
        assert abs(f - g) <= 1e-12 * max(f, g), (z, u, f, g)


_disk_point = st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)),
    st.floats(1e-3, 1.0), st.floats(0.0, math.tau))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(re=st.floats(-2.0, 2.0), im=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       n=st.integers(1, 6), z=_disk_point)
def test_iterate_symmetry_property(re, im, n, z):
    _check_declared_symmetry(lw.iterate_evaluator(complex(re, im), n), z)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 64), z=_disk_point)
def test_monomial_symmetry_property(m, z):
    _check_declared_symmetry(lw.monomial_evaluator(m), z)


def test_degree_one_integral_closed_form():
    est = lw.disk_integral(lw.monomial_evaluator(1), tol=1e-7)
    assert abs(est.value - 2 * math.pi * math.log(2)) < 1e-6
    assert est.error_bound < 1e-5
    assert not est.budget_exceeded


# 512 and 4096 need the root mesh's ladder toward r = 1: a plain 8-band mesh
# returns 4.7e-5 and 1.4e-53 there, against oracles near 9.85
@pytest.mark.parametrize("n", [2, 4, 16, 64, 512, 4096])
def test_monomial_integrals_match_oracle(n):
    est = lw.disk_integral(lw.monomial_evaluator(n), tol=1e-4)
    assert abs(est.value - lw.monomial_integral_oracle(n)) < 2e-4


# Independent references for iterate integrals: uniform polar midpoint sums
# of the integrand on N x N cells (N radii by N angles) at N = 4096 and
# 8192, extrapolated by Richardson as (4 I_8192 - I_4096) / 3.  They do not
# call iterate_evaluator.  The golden value's two sums and its extrapolation
# spread by 1.1e-6, those of c = -1 by at most 3.3e-6 for n <= 6.  At
# c = -1, n = 7 the sums are 16.0044671 and 16.0045367 and the
# extrapolation 16.0045600: a spread of 9.3e-5, of 2.3e-5 between the finer
# sum and the extrapolation.
_GOLDEN_LAM = cmath.exp(2j * math.pi * (math.sqrt(5.0) - 1.0) / 2.0)


@pytest.mark.parametrize("c,n,reference", [
    pytest.param(_GOLDEN_LAM / 2 - _GOLDEN_LAM**2 / 4, 6, 16.691148, id="golden-siegel"),
    pytest.param(-2 + 0j, 6, 7.0976813, id="c=-2"),
    *(pytest.param(-1 + 0j, n, reference, id=f"c=-1,n={n}") for n, reference in [
        (1, 4.0595438), (2, 7.7562552), (3, 9.0937773), (4, 11.6806135),
        (5, 12.7085111), (6, 14.7672219), (7, 16.0045600)]),
])
def test_iterate_integral_matches_reference(c, n, reference):
    tol = 1e-4
    est = lw.disk_integral(lw.iterate_evaluator(c, n), tol=tol)
    assert not est.budget_exceeded
    assert abs(est.value - reference) <= tol + est.error_bound


def test_monomial_oracle_limits():
    assert abs(lw.monomial_integral_oracle(1) - 2 * math.pi * math.log(2)) < 1e-12
    # u^(1/2) is singular at 0: 4 pi Int_0^1 u^(1/2) / (1 + u^2) du in closed form
    s2 = math.sqrt(2.0)
    assert abs(lw.monomial_integral_oracle(2)
               - s2 * math.pi * (math.pi - 2 * math.log(1 + s2))) < 1e-13
    # the large-degree limit is pi^2
    assert abs(lw.monomial_integral_oracle(100000) - math.pi**2) < 1e-3


def test_integral_deterministic():
    a = lw.disk_integral(lw.iterate_evaluator(-1 + 0j, 4), tol=1e-4)
    b = lw.disk_integral(lw.iterate_evaluator(-1 + 0j, 4), tol=1e-4)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_tolerance_refinement_consistent():
    """Tightening tol by 10x moves the value by less than the looser bound."""
    ev = lw.iterate_evaluator(-1 + 0j, 3)
    loose = lw.disk_integral(ev, tol=1e-3)
    tight = lw.disk_integral(ev, tol=1e-4)
    assert abs(loose.value - tight.value) <= loose.error_bound


def test_budget_trips_honestly(monkeypatch):
    # z^64 at tol 1e-10 needs 9,435 evaluations
    monkeypatch.setattr(lw, "EVAL_BUDGET", 5_000)
    est = lw.disk_integral(lw.monomial_evaluator(64), tol=1e-10)
    assert est.budget_exceeded
    assert est.error_bound == math.inf and est.evaluations <= 5_000
    # the cells as far as they were refined still land near the oracle
    assert abs(est.value - lw.monomial_integral_oracle(64)) < 0.05


def test_cauchy_schwarz_bound_holds():
    for n in [1, 2, 8, 32]:
        est = lw.disk_integral(lw.monomial_evaluator(n), tol=1e-4)
        assert est.value <= lw.cs_bound(n) + est.error_bound
    assert lw.cs_bound(4) == pytest.approx(2 * lw.cs_bound(1))


def test_iterate_family_rows():
    rows = lw.iterate_family_integrals(-1 + 0j, n_max=4, tol=1e-3)
    assert [est.degree for est in rows] == [2, 4, 8, 16]
    for est in rows:
        assert 0 < est.value <= lw.cs_bound(est.degree) + est.error_bound
    # past degree 1024 the estimates move with the root mesh
    for n_max in (0, 11):
        with pytest.raises(BadParams):
            lw.iterate_family_integrals(-1 + 0j, n_max=n_max, tol=1e-3)


def test_exponent_fit_recovers_synthetic_slope():
    ests = [
        lw.IntegralEstimate(value=3.7 * d**0.4, error_bound=0.0,
                            evaluations=0, degree=d, budget_exceeded=False)
        for d in [2**k for k in range(1, 9)]
    ]
    fit = lw.exponent_fit(ests)
    assert abs(fit.slope - 0.4) < 1e-10
    assert abs(fit.alpha_hat - 0.1) < 1e-10  # alpha_hat = 1/2 - slope
    assert fit.residual < 1e-10


def test_exponent_fit_needs_four_degrees():
    ests = [
        lw.IntegralEstimate(value=1.0, error_bound=0.0, evaluations=0,
                            degree=d, budget_exceeded=False)
        for d in [2, 2, 4]
    ]
    with pytest.raises(InsufficientData):
        lw.exponent_fit(ests)


def test_family_csv_header():
    rows = lw.iterate_family_integrals(-1 + 0j, n_max=2, tol=1e-3)
    text = lw.family_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "degree,value,error_estimate,cs_bound,evaluations"
    assert len(lines) == 3
    assert "np.float64" not in text


def test_disk_integral_validates_tol():
    for tol in (0.0, -1e-4, math.inf, math.nan):
        with pytest.raises(BadParams):
            lw.disk_integral(lw.monomial_evaluator(2), tol=tol)
