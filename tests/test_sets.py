import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import sets
from poincarelab.errors import BadParams, NoCertificate
from poincarelab.sets import (
    SetModel,
    certified_bound,
    density_estimate,
    disk_pack,
    make_empty_set,
    make_powerlaw_set,
    make_sector_set,
    safety_factor,
    set_payload,
)
from poincarelab.serialize import json_text


def test_empty_set_everything_zero():
    S = make_empty_set()
    assert S.contains_many(np.array([1 + 1j])).tolist() == [False]
    assert certified_bound(S, 10.0) == 0.0
    est = density_estimate(S, 5.0, samples=2000, seed=1)
    assert est.value == 0.0


def test_powerlaw_membership_deterministic():
    a = make_powerlaw_set(10.0, 0.5, seed=2)
    b = make_powerlaw_set(10.0, 0.5, seed=2)
    rng = np.random.default_rng(0)
    pts = 50.0 * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    hits_a = a.contains_many(pts).tolist()
    hits_b = b.contains_many(pts).tolist()
    assert hits_a == hits_b
    assert any(hits_a)  # the set is not empty at this C


def test_powerlaw_seed_changes_layout():
    a = make_powerlaw_set(10.0, 0.5, seed=2)
    c = make_powerlaw_set(10.0, 0.5, seed=3)
    rng = np.random.default_rng(1)
    pts = 30.0 * (rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600))
    ha = a.contains_many(pts).tolist()
    hc = c.contains_many(pts).tolist()
    assert ha != hc


@pytest.mark.parametrize("r", [2.0, 5.0, 20.0, 100.0])
def test_powerlaw_monte_carlo_respects_certificate(r):
    S = make_powerlaw_set(10.0, 0.5, seed=2)
    est = density_estimate(S, r, samples=20000, seed=11)
    cert = certified_bound(S, r)
    assert est.value <= cert + 3.0 * est.std_error
    assert cert <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["powerlaw", "sectors"]), C=st.floats(0.01, 20.0),
       delta=st.floats(0.05, 1.95), r=st.floats(0.5, 1000.0),
       seed=st.integers(0, 2**32 - 1))
def test_density_respects_certificate_property(kind, C, delta, r, seed):
    # the fixed cases above, at random (C, delta, r) for both certified sets
    S = make_powerlaw_set(C, delta, seed=seed) if kind == "powerlaw" else make_sector_set(C, delta)
    est = density_estimate(S, r, samples=20000, seed=seed)
    assert est.value <= certified_bound(S, r) + 3.0 * est.std_error


def test_annulus_budget_split():
    """Each annulus gets area density C r^-delta times a safety factor;
    packed disks never exceed their budget."""
    S = make_powerlaw_set(10.0, 0.5, seed=2)
    for j in range(1, 8):
        centers, radii = disk_pack(S, j)
        used = float(np.sum(np.pi * np.asarray(radii) ** 2))
        assert used <= sets._budget(*S.certificate, j) * (1 + 1e-9)
        inner, outer = 2.0 ** (j - 1), 2.0 ** (j + 1)
        mags = np.abs(np.asarray(centers))
        if mags.size:
            assert np.all(mags + np.asarray(radii) <= outer * (1 + 1e-12))
            assert np.all(mags - np.asarray(radii) >= inner * (1 - 1e-12) - 1e-12)


def test_safety_factor_range():
    for delta in [0.1, 0.5, 1.0, 1.5, 1.9]:
        F = safety_factor(delta)
        assert 0 < F < 1


def test_sector_set_certificate_and_membership():
    S = make_sector_set(4.0, 0.8)
    est = density_estimate(S, 50.0, samples=20000, seed=4)
    cert = certified_bound(S, 50.0)
    assert est.value <= cert + 3.0 * est.std_error
    assert cert <= 4.0 * 50.0 ** (-0.8) + 1e-12


def test_custom_set_without_certificate():
    S = SetModel(kind="Custom", indicator=lambda z: z.real > 0)
    assert S.contains_many(np.array([1 + 0j, -1 + 0j])).tolist() == [True, False]
    with pytest.raises(NoCertificate):
        certified_bound(S, 3.0)
    est = density_estimate(S, 3.0, samples=5000, seed=9)
    assert abs(est.value - 0.5) < 5 * est.std_error + 0.02


def test_density_estimate_parameter_validation():
    S = make_empty_set()
    with pytest.raises(BadParams):
        density_estimate(S, -1.0, samples=2000, seed=0)
    with pytest.raises(BadParams):
        density_estimate(S, 1.0, samples=10, seed=0)


def test_powerlaw_parameter_validation():
    with pytest.raises(BadParams):
        make_powerlaw_set(-1.0, 0.5, seed=0)
    with pytest.raises(BadParams):
        make_powerlaw_set(10.0, 0.0, seed=0)
    with pytest.raises(BadParams):
        make_powerlaw_set(10.0, 2.0, seed=0)


@pytest.mark.parametrize("C", [math.inf, math.nan, -math.inf, 0.0])
@pytest.mark.parametrize("make", [
    lambda C: make_powerlaw_set(C, 0.5, seed=0),
    lambda C: make_sector_set(C, 0.5),
], ids=["powerlaw", "sectors"])
def test_certificate_constant_must_be_positive_and_finite(make, C):
    # an infinite C certifies nothing, and JSON has no token for it
    with pytest.raises(BadParams):
        make(C)


def _rebuild(text):
    """The set that a set_payload record, written as JSON, describes."""
    d = json.loads(text)
    if d["kind"] == "Empty":
        return make_empty_set()
    if d["kind"] == "PowerLawDisks":
        return make_powerlaw_set(d["C"], d["delta"], d["seed"])
    assert d["kind"] == "AnnularSectors"
    return make_sector_set(d["C"], d["delta"])


def test_json_roundtrip_powerlaw_exact():
    # the record that density.json keeps of its set determines the set
    S = make_powerlaw_set(7.0, 0.9, seed=13)
    S2 = _rebuild(json_text(set_payload(S)))
    rng = np.random.default_rng(6)
    pts = 40.0 * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))
    assert S.contains_many(pts).tolist() == S2.contains_many(pts).tolist()
    assert certified_bound(S, 17.0) == certified_bound(S2, 17.0)


def test_json_roundtrip_empty_and_sector():
    for S in [make_empty_set(), make_sector_set(3.0, 0.6)]:
        S2 = _rebuild(json_text(set_payload(S)))
        assert S2.kind == S.kind
        pts = np.array([1 + 1j, -2 + 0.5j, 10j])
        assert S.contains_many(pts).tolist() == S2.contains_many(pts).tolist()


def _agreement_points():
    """Seeded points: log-uniform |z| in [1, 1e12], then |z| within a few ulps
    of 2^j (1 + m 2.2e-16, m in -4..4, j in 0..39), where a scalar and a
    vector modulus can round to opposite sides of an annulus edge.  The first
    group is drawn in full, so the second keeps its seeded values, and checked
    on its first 50,000 points to keep the test short."""
    rng = np.random.default_rng(0)
    mod = 10.0 ** rng.uniform(0.0, 12.0, 200_000)
    spread = mod * np.exp(1j * rng.uniform(0.0, math.tau, mod.size))
    j = rng.integers(0, 40, 20_000)
    m = rng.integers(-4, 5, 20_000)
    edge = 2.0**j * (1.0 + m * 2.2e-16) * np.exp(1j * rng.uniform(0.0, math.tau, j.size))
    return np.concatenate([spread[:50_000], edge])


@pytest.mark.parametrize("make", [
    make_empty_set,
    lambda: make_powerlaw_set(10.0, 0.5, seed=7),
    lambda: make_sector_set(10.0, 0.5),
    lambda: SetModel(kind="Custom", indicator=lambda z: (np.abs(z) < 1e6) & (z.imag > 0)),
], ids=["empty", "powerlaw", "sectors", "custom"])
def test_scalar_and_array_membership_agree(make):
    S = make()
    pts = _agreement_points()
    many = S.contains_many(pts)
    assert many.dtype == bool and many.shape == pts.shape
    # each point alone, as a one-lane array
    disagree = [z for z, hit in zip(pts.tolist(), many.tolist())
                if S.contains_many(np.array([z]))[0] != hit]
    assert disagree == []
