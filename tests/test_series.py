import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import series
from poincarelab.errors import BadParams, NotInvertible, OutOfSafeRadius
from poincarelab.series import (
    horner_unchecked,
    make_series,
    safe_radius_estimate,
    series_derivative,
    series_eval,
    series_from_json,
    series_reversion,
    series_to_json,
)

RNG = np.random.default_rng(11)


def test_geometric_series_eval_matches_closed_form():
    # a_n = 2^-n, f(z) = 1/(1 - z/2), radius of convergence 2
    coeffs = np.array([2.0 ** (-n) for n in range(64)], dtype=complex)
    s = make_series(coeffs, tail_eps=1e-16)
    assert 0 < s.safe_radius < 2.0
    for z in [0.1, 0.4j, -0.3 + 0.2j, 0.9 * s.safe_radius]:
        want = 1.0 / (1.0 - z / 2.0)
        assert abs(series_eval(s, z) - want) < 1e-12 * (1 + abs(want))


def test_eval_outside_safe_radius_raises():
    coeffs = np.ones(64, dtype=complex)  # radius of convergence 1
    s = make_series(coeffs, tail_eps=1e-16)
    with pytest.raises(OutOfSafeRadius):
        series_eval(s, 1.0001 * s.safe_radius)


def test_eval_vectorized_agrees_with_scalar():
    coeffs = RNG.standard_normal(48) + 1j * RNG.standard_normal(48)
    coeffs = coeffs * 0.5 ** np.arange(48)
    s = make_series(coeffs, tail_eps=1e-14)
    zs = 0.5 * s.safe_radius * np.exp(2j * np.pi * np.linspace(0, 1, 17))
    vals = series_eval(s, zs)
    for z, v in zip(zs, vals):
        assert abs(v - series_eval(s, complex(z))) < 1e-14


def horner_out_of_place(coeffs, dz):
    """Horner as one out-of-place loop over the whole array: the reference
    for the blocked, in-place `series.horner_unchecked`."""
    val = np.zeros_like(dz)
    for a in coeffs[::-1]:
        val = val * dz + a
    return val


def _lanes(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


_BLOCK = series._HORNER_BLOCK


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
       terms=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_blocked_horner_bits_match_out_of_place_loop(n, terms, seed):
    rng = np.random.default_rng(seed)
    coeffs = _lanes(rng, terms)
    z = 1.2 * _lanes(rng, n)
    got = horner_unchecked(coeffs, z)
    want = horner_out_of_place(coeffs, z)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # lanes evaluated alone: both ends, the block edges and a random few
    picks = {0, n - 1, _BLOCK - 1, _BLOCK, 2 * _BLOCK, *rng.integers(0, n, 8).tolist()}
    for i in sorted(k for k in picks if k < n):
        assert horner_unchecked(coeffs, z[i:i + 1]).tobytes() == want[i:i + 1].tobytes()


def test_blocked_horner_every_lane_alone(monkeypatch):
    # small blocks, so that every lane of every length, the lone last lane
    # of a block included, can be checked alone
    monkeypatch.setattr(series, "_HORNER_BLOCK", 4)
    coeffs = _lanes(RNG, 33)
    for n in range(1, 14):
        z = _lanes(RNG, n)
        got = horner_unchecked(coeffs, z)
        assert got.tobytes() == horner_out_of_place(coeffs, z).tobytes()
        for i in range(n):
            assert horner_unchecked(coeffs, z[i:i + 1]).tobytes() == got[i:i + 1].tobytes()


def test_one_lane_array_is_the_batched_lane():
    """A 1-element array gets its lane's bits in a batch; a 0-d input goes
    through numpy's scalar arithmetic and is only close to them."""
    coeffs = _lanes(RNG, 257) / 2.0 ** np.arange(257)
    z = 1.5 * np.exp(1j * np.arange(720) * (math.tau / 720))
    batch = horner_unchecked(coeffs, z)
    for i in range(z.size):
        assert horner_unchecked(coeffs, z[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
        alone = complex(horner_unchecked(coeffs, complex(z[i])))
        assert abs(alone - batch[i]) <= 1e-14 * (1.0 + abs(batch[i]))


def test_blocked_horner_keeps_shapes():
    coeffs = _lanes(RNG, 9)
    for z in (_lanes(RNG, 2 * _BLOCK + 1).reshape(1, -1),
              _lanes(RNG, 60).reshape(3, 4, 5), np.asfortranarray(_lanes(RNG, 42).reshape(6, 7)),
              np.zeros((0, 3), dtype=complex)):
        got = horner_unchecked(coeffs, z)
        want = horner_out_of_place(coeffs, z)
        assert got.shape == z.shape and np.array_equal(got, want)
        assert got.ravel().tobytes() == want.ravel().tobytes()
    for z in (np.complex128(0.3 + 0.7j), 0.3 + 0.7j, np.array(0.3 + 0.7j)):
        got = horner_unchecked(coeffs, z)
        assert np.ndim(got) == 0 and got == horner_out_of_place(coeffs, z)


def test_exact_polynomial_has_unbounded_domain():
    s = make_series(np.array([1.0, 0.0, 3.0], dtype=complex), exact=True)
    assert s.safe_radius == np.inf
    assert abs(series_eval(s, 100.0) - (1 + 3 * 100.0**2)) < 1e-9


def test_trailing_zero_padding_detected_as_polynomial():
    coeffs = np.zeros(64, dtype=complex)
    coeffs[:3] = [0.0, 2.0, -1.0]
    s = make_series(coeffs, tail_eps=1e-16)
    assert s.safe_radius == np.inf


def test_certificate_shrinks_with_tighter_eps():
    coeffs = np.array([1.0 / (n + 1) for n in range(80)], dtype=complex)
    loose = safe_radius_estimate(coeffs, eps=1e-8)
    tight = safe_radius_estimate(coeffs, eps=1e-14)
    assert tight.safe_radius <= loose.safe_radius
    assert loose.root_radius == pytest.approx(tight.root_radius)


def test_certificate_rejects_short_input():
    with pytest.raises(BadParams):
        safe_radius_estimate(np.ones(8, dtype=complex), eps=1e-12)
    with pytest.raises(BadParams):
        safe_radius_estimate(np.ones(32, dtype=complex), eps=0.0)


def test_series_derivative_coefficients():
    s = make_series(np.array([5.0, 1.0, 2.0, 3.0], dtype=complex), exact=True)
    ds = series_derivative(s)
    assert np.allclose(ds.coeffs, [1.0, 4.0, 9.0])
    z = 0.7 - 0.2j
    fd = (series_eval(s, z + 1e-7) - series_eval(s, z - 1e-7)) / 2e-7
    assert abs(series_eval(ds, z) - fd) < 1e-6


def test_reversion_roundtrip_quadratic():
    """h(z) = z + z^2 has explicit inverse (sqrt(1+4w) - 1)/2."""
    coeffs = np.zeros(40, dtype=complex)
    coeffs[1] = 1.0
    coeffs[2] = 1.0
    h = make_series(coeffs, tail_eps=1e-16)
    g = series_reversion(h, terms=40)
    for w in [0.01, -0.02 + 0.015j, 0.05j]:
        want = (cmath.sqrt(1 + 4 * w) - 1) / 2
        got = horner_unchecked(g.coeffs, w)
        assert abs(got - want) < 1e-12
    # composition h(g(w)) = w
    for w in [0.03, 0.02 - 0.01j]:
        z = horner_unchecked(g.coeffs, w)
        assert abs(series_eval(h, z) - w) < 1e-12


def _compose(outer: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """outer(inner(w)) truncated to n coefficients, by Horner on series."""
    out = np.zeros(n, dtype=complex)
    for a in outer[::-1]:
        out = np.convolve(out, inner)[:n]
        out[0] += a
    return out


_coefficient = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mod=st.floats(0.5, 2.0), arg=st.floats(0.0, math.tau),
       higher=st.lists(_coefficient, min_size=7, max_size=7),
       terms=st.integers(1, 16))
def test_reversion_roundtrip_property(mod, arg, higher, terms):
    """s(t(w)) = w through degree `terms`, for a_0 = 0, |a_1| in [0.5, 2] and
    bounded a_2..a_8; each coefficient to 1e-10 of the same composition
    taken on the moduli, which bounds its size and its roundoff."""
    a = np.array([0.0, cmath.rect(mod, arg)] + higher, dtype=complex)
    t = series_reversion(make_series(a, exact=True), terms)
    assert len(t.coeffs) == terms + 1 and t.coeffs[0] == 0
    n = terms + 1
    comp = _compose(a, t.coeffs, n)
    scale = _compose(np.abs(a), np.abs(t.coeffs), n).real
    want = np.zeros(n)
    want[1] = 1.0
    assert np.all(np.abs(comp - want) <= 1e-10 * scale)


def test_reversion_requires_simple_zero():
    coeffs = np.zeros(24, dtype=complex)
    coeffs[2] = 1.0  # h(z) = z^2 has vanishing linear term
    with pytest.raises(NotInvertible):
        series_reversion(make_series(coeffs, tail_eps=1e-16), terms=10)


def test_json_roundtrip_is_exact_and_stable():
    coeffs = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
    s = make_series(coeffs * 0.3 ** np.arange(32), tail_eps=1e-15)
    text = series_to_json(s, provenance={"note": "roundtrip check"})
    s2, meta = series_from_json(text)
    assert meta["note"] == "roundtrip check"
    assert np.array_equal(s.coeffs, s2.coeffs)
    assert s.safe_radius == s2.safe_radius
    assert s.center == s2.center
    assert series_to_json(s2, provenance={"note": "roundtrip check"}) == text
