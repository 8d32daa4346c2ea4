import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import series
from poincarelab.errors import OutOfSafeRadius
from poincarelab.series import (
    horner_unchecked,
    make_series,
    series_derivative,
    series_eval,
    series_to_json,
)

RNG = np.random.default_rng(11)


def test_geometric_series_eval_matches_closed_form():
    # a_n = 2^-n, f(z) = 1/(1 - z/2), radius of convergence 2
    coeffs = np.array([2.0 ** (-n) for n in range(64)], dtype=complex)
    s = make_series(coeffs)
    assert 0 < s.safe_radius < 2.0
    z = np.array([0.1, 0.4j, -0.3 + 0.2j, 0.9 * s.safe_radius])
    want = 1.0 / (1.0 - z / 2.0)
    assert np.all(np.abs(series_eval(s, z) - want) < 1e-12 * (1 + np.abs(want)))


def test_eval_outside_safe_radius_raises():
    coeffs = np.ones(64, dtype=complex)  # radius of convergence 1
    s = make_series(coeffs)
    with pytest.raises(OutOfSafeRadius):
        series_eval(s, np.array([0.5, 1.0001 * s.safe_radius]))


def test_eval_vectorized_agrees_with_scalar():
    coeffs = RNG.standard_normal(48) + 1j * RNG.standard_normal(48)
    coeffs = coeffs * 0.5 ** np.arange(48)
    s = make_series(coeffs)
    zs = 0.5 * s.safe_radius * np.exp(2j * np.pi * np.linspace(0, 1, 17))
    vals = series_eval(s, zs)
    assert vals.shape == zs.shape
    for i in range(zs.size):
        assert series_eval(s, zs[i:i + 1]).tobytes() == vals[i:i + 1].tobytes()


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
    # a polynomial padded to 32 coefficients: the top half is zero
    s = make_series(np.array([1.0, 0.0, 3.0] + [0.0] * 29, dtype=complex))
    assert s.safe_radius == np.inf
    assert abs(series_eval(s, np.array([100.0]))[0] - (1 + 3 * 100.0**2)) < 1e-9


def test_trailing_zero_padding_detected_as_polynomial():
    coeffs = np.zeros(64, dtype=complex)
    coeffs[:3] = [0.0, 2.0, -1.0]
    s = make_series(coeffs)
    assert s.safe_radius == np.inf


def test_certificate_shrinks_with_tighter_eps():
    coeffs = np.array([1.0 / (n + 1) for n in range(80)], dtype=complex)
    loose = series._safe_radius(coeffs, eps=1e-8)
    tight = series._safe_radius(coeffs, eps=1e-14)
    assert 0.0 < tight < loose < 1.0


def all_ratios_safe_radius(coeffs, eps):
    """`series._safe_radius` forming the stepwise ratio of every pair of
    consecutive nonzero coefficients and keeping the last 8: the reference
    for its window of the last 9 support indices."""
    a = np.abs(np.asarray(coeffs, dtype=complex))
    nz = np.flatnonzero(a > 0.0)
    if len(nz) == 0 or nz[-1] == 0:
        return math.inf
    M = int(nz[-1])
    if len(a) >= 16 and M < len(a) // 2:
        return math.inf
    support = nz[nz >= 1]
    step_rates = [(a[j] / a[i]) ** (1.0 / (j - i))
                  for i, j in zip(support[:-1], support[1:])][-8:]
    q = max(max(step_rates, default=0.0), series.root_test_rate(a, nz))
    if q == 0.0:
        return math.inf
    log_am, log_eps = math.log(a[M]), math.log(eps)

    def log_tail_minus_eps(r):
        return log_am + M * math.log(r) + math.log(q * r) - math.log1p(-q * r) - log_eps

    hi = (1.0 - 1e-12) / q
    if log_tail_minus_eps(hi) <= 0.0:
        return hi
    lo_r = hi * 1e-12
    while log_tail_minus_eps(lo_r) > 0.0 and lo_r > 1e-280:
        lo_r *= 1e-12
    if log_tail_minus_eps(lo_r) > 0.0:
        return lo_r
    return series.log_bisect(lambda r: log_tail_minus_eps(r) <= 0.0, lo_r, hi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 300), nonzero=st.integers(1, 300), spread=st.floats(0.0, 30.0),
       seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([1e-16, 1e-8, 1e-2]))
def test_certificate_window_matches_all_ratios(n, nonzero, spread, seed, eps):
    """The certificate read from the last 9 support indices equals the one
    that forms every stepwise ratio and keeps the last 8, for lists with
    zero gaps, of 2..300 coefficients, some with fewer than 9 nonzero ones
    (and some degenerate)."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n, dtype=complex)
    at = rng.choice(n, min(nonzero, n), replace=False)
    coeffs[at] = ((rng.standard_normal(at.size) + 1j * rng.standard_normal(at.size))
                  * np.exp(spread * rng.standard_normal(at.size)))
    got, want = series._safe_radius(coeffs, eps), all_ratios_safe_radius(coeffs, eps)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_series_derivative_coefficients():
    # padded to 32 coefficients, so the derivative's 31 keep an unbounded
    # domain as well
    s = make_series(np.array([5.0, 1.0, 2.0, 3.0] + [0.0] * 28, dtype=complex))
    ds = series_derivative(s)
    assert np.allclose(ds.coeffs[:3], [1.0, 4.0, 9.0]) and not ds.coeffs[3:].any()
    assert ds.safe_radius == np.inf
    z = np.array([0.7 - 0.2j])
    fd = (series_eval(s, z + 1e-7) - series_eval(s, z - 1e-7)) / 2e-7
    assert abs(series_eval(ds, z) - fd)[0] < 1e-6


def test_derivative_of_short_padded_polynomial_keeps_unbounded_domain():
    # 16 coefficients are the fewest that _safe_radius reads as a
    # polynomial; the derivative's 15 alone would get a radius near 1.4e-6
    s = make_series([5, 1, 2, 3] + [0] * 12)
    assert s.safe_radius == math.inf
    assert series._safe_radius(s.coeffs[1:] * np.arange(1, 16), series.TAIL_EPS) < 1e-5
    ds = series_derivative(s)
    assert ds.safe_radius == math.inf
    assert series_eval(ds, np.array([2.0])).tolist() == [1 + 4 * 2.0 + 9 * 2.0**2]
    assert series_derivative(ds).safe_radius == math.inf
    # a series of finite radius still gets the majorant's radius
    g = make_series([2.0**-n for n in range(40)])
    assert series_derivative(g).safe_radius == series._safe_radius(
        g.coeffs[1:] * np.arange(1, 40), series.TAIL_EPS)


def test_json_roundtrip_is_exact_and_stable():
    """The file holds every coefficient bit, the constant center and
    tail_eps, and a series rebuilt from it writes the same text."""
    coeffs = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
    s = make_series(coeffs * 0.3 ** np.arange(32))
    text = series_to_json(s, provenance={"note": "roundtrip check"})
    doc = json.loads(text)
    assert doc["provenance"] == {"note": "roundtrip check"}
    assert doc["center"] == [0.0, 0.0] and doc["tail_eps"] == 1e-16
    assert doc["safe_radius"] == s.safe_radius
    got = np.array([complex(re, im) for re, im in doc["coeffs"]])
    assert got.tobytes() == s.coeffs.tobytes()
    assert series_to_json(make_series(got), provenance={"note": "roundtrip check"}) == text


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_series_eval_lanes_are_the_batched_lanes(seed):
    """series_eval gives an array of lanes the bits of horner_unchecked, and
    each lane alone, as a one-lane array, the bits it has in the batch."""
    rng = np.random.default_rng(seed)
    s = make_series(_lanes(rng, 64) / 2.0 ** np.arange(64))
    z = 0.9 * s.safe_radius * _lanes(rng, 200) / 3.0
    z = z[np.abs(z) <= s.safe_radius]
    got = series_eval(s, z)
    assert got.tobytes() == horner_unchecked(s.coeffs, z).tobytes()
    for i in range(z.size):
        assert series_eval(s, z[i:i + 1]).tobytes() == got[i:i + 1].tobytes()
