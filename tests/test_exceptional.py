import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.errors import BadParams
from poincarelab.exceptional import (
    LIMINF_WINDOW,
    RatioRow,
    _count_table,
    _records,
    escape_fraction,
    exceptional_survey,
    liminf_proxies,
    log_growth_table,
    ratio_table_csv,
    report_to_json,
)
from poincarelab.preimage import InverseBranch
from poincarelab.sets import SetModel, make_empty_set, make_powerlaw_set


def one_record(ib, S, w, k_max):
    """The survey's record of the one point w (C1 from w's own orbit)."""
    return _records(ib, S, [w], k_max)[0][0]


def test_empty_set_counts_every_level(golden_branch, golden_poincare):
    rec = one_record(golden_branch, make_empty_set(), 0.02 + 0.01j, 15)
    # nothing is excluded; the count at r_k = |mu|^k C1 is k+1 up to the
    # bounded wobble of |g0| around the calibration constant C1
    counts = rec.counts
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    for k, c in enumerate(counts):
        assert k - 1 <= c <= k + 2
    assert counts[-1] >= 14
    assert rec.escaped
    assert not rec.conditional


def test_ratio_approaches_target_from_counts(golden_branch, golden_poincare):
    rec = one_record(golden_branch, make_empty_set(), 0.015 - 0.01j, 25)
    target = 1.0 / math.log(abs(golden_poincare.mu))
    assert rec.liminf_proxy > 0.9 * target
    assert rec.liminf_proxy < 1.2 * target


def test_custom_set_marks_conditional(golden_branch):
    S = SetModel(kind="Custom", indicator=lambda z: np.zeros(z.shape, dtype=bool))
    rec = one_record(golden_branch, S, 0.02j, 8)
    assert rec.conditional


def test_survey_shapes_and_median(golden_branch):
    S = make_empty_set()
    rep = exceptional_survey(golden_branch, S, w_count=10, k_max=12, seed=4)
    assert len(rep.records) == 10
    assert len(rep.ratio_table) == 13
    # with no exclusions the median count tracks the level index
    for k, row in enumerate(rep.ratio_table):
        assert k - 1 <= row.count <= k + 2
    assert escape_fraction(rep) == 1.0
    proxies = liminf_proxies(rep)
    assert len(proxies) == 10
    assert all(p > 0 for p in proxies)


def test_survey_requires_enough_points(golden_branch):
    with pytest.raises(BadParams):
        exceptional_survey(golden_branch, make_empty_set(), w_count=5, k_max=10, seed=1)


def test_survey_deterministic_across_threads(golden_branch):
    S = make_powerlaw_set(10.0, 0.5, seed=2)
    a = exceptional_survey(golden_branch, S, w_count=10, k_max=10, seed=7, threads=1)
    b = exceptional_survey(golden_branch, S, w_count=10, k_max=10, seed=7, threads=4)
    assert report_to_json(a) == report_to_json(b)


def test_survey_does_not_depend_on_branch_history(golden_branch):
    def fresh():
        return InverseBranch(golden_branch.pm, golden_branch.sm, golden_branch.base_point)

    S = make_powerlaw_set(10.0, 0.5, seed=7)
    first = report_to_json(exceptional_survey(fresh(), S, w_count=10, k_max=12, seed=11))
    used = fresh()
    exceptional_survey(used, make_empty_set(), w_count=40, k_max=12, seed=3)
    again = report_to_json(exceptional_survey(used, S, w_count=10, k_max=12, seed=11))
    assert again == first


def test_survey_seed_matters(golden_branch):
    S = make_empty_set()
    a = exceptional_survey(golden_branch, S, w_count=10, k_max=8, seed=1)
    b = exceptional_survey(golden_branch, S, w_count=10, k_max=8, seed=2)
    assert [r.w for r in a.records] != [r.w for r in b.records]


def test_report_json_fields(golden_branch, golden_poincare):
    rep = exceptional_survey(golden_branch, make_empty_set(), w_count=10, k_max=8, seed=4)
    blob = json.loads(report_to_json(rep))
    assert blob["k_max"] == 8
    assert abs(blob["target"] - 1.0 / math.log(abs(golden_poincare.mu))) < 1e-12
    assert abs(blob["rho"] / math.log(2) - blob["target"]) < 1e-12
    assert len(blob["records"]) == 10
    assert len(blob["ratio_table"]) == 9


def test_ratio_table_csv_format(golden_branch):
    rep = exceptional_survey(golden_branch, make_empty_set(), w_count=10, k_max=8, seed=4)
    text = ratio_table_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "r = |mu|^k * C1,count,count/log r,target = 1/log|mu|"
    assert len(lines) == 10
    assert "np.float64" not in text
    # every row parses back to floats/ints
    for ln in lines[1:]:
        r, count, ratio, target = ln.split(",")
        float(r), int(count), float(target)


def test_log_growth_table_rows(golden_branch):
    rep = exceptional_survey(golden_branch, make_empty_set(), w_count=10, k_max=8, seed=4)
    rows = log_growth_table(rep)
    assert len(rows) == 9
    for r, count, ratio, target in rows:
        assert r > 0 and count >= 1


def _scan(moduli, hits, radii):
    """The O(k^2) reference for _count_table: every radius rescans every
    point of every w."""
    def ratio(r, count):
        log_r = math.log(r) if r > 0 else -math.inf
        return count / log_r if log_r > 0 else math.nan

    k_max = len(hits[0]) - 1
    counts, proxies, escaped = [], [], []
    for mods, hs in zip(moduli, hits):
        row = [sum(1 for m, hit in zip(mods, hs) if m <= r and not hit) for r in radii]
        tail = [ratio(r, c) for r, c in zip(radii, row)][-LIMINF_WINDOW:]
        tail = [x for x in tail if not math.isnan(x)]
        counts.append(row)
        proxies.append(min(tail) if tail else math.nan)
        escaped.append(not any(hs[math.ceil(2.0 * k_max / 3.0):]))
    median_rows = []
    for j, r in enumerate(radii):
        med = float(np.median([row[j] for row in counts]))
        median_rows.append(RatioRow(r=r, count=int(round(med)), ratio=ratio(r, med)))
    return counts, proxies, escaped, median_rows


@st.composite
def _survey_arrays(draw):
    n_w = draw(st.integers(1, 6))
    n_k = draw(st.integers(1, 24))
    if draw(st.booleans()):
        radii = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=24))
    else:
        radii = draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=24))
    modulus = st.one_of(st.floats(0.0, 2e4), st.sampled_from(radii))
    moduli = [draw(st.lists(modulus, min_size=n_k, max_size=n_k)) for _ in range(n_w)]
    hits = [[True] * n_k if draw(st.integers(0, 4)) == 0
            else draw(st.lists(st.booleans(), min_size=n_k, max_size=n_k))
            for _ in range(n_w)]
    return np.array(moduli), np.array(hits, dtype=bool), radii


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrays=_survey_arrays())
def test_count_table_matches_the_scan(arrays):
    moduli, hits, radii = arrays
    counts, proxies, escaped, median_rows = _count_table(moduli, hits, radii)
    want_counts, want_proxies, want_escaped, want_rows = _scan(moduli.tolist(),
                                                               hits.tolist(), radii)
    assert counts == want_counts
    assert escaped == want_escaped
    assert len(proxies) == len(want_proxies)
    assert all(_same(a, b) for a, b in zip(proxies, want_proxies))
    assert len(median_rows) == len(want_rows)
    for got, want in zip(median_rows, want_rows):
        assert (got.r, got.count) == (want.r, want.count)
        assert _same(got.ratio, want.ratio)


def test_count_table_counts_ties_and_skips_small_radii():
    radii = [0.5, 1.0, 2.0, 4.0]
    moduli = np.array([[0.5, 2.0, 2.0, 3.0], [1.0, 1.0, 4.0, 9.0]])
    hits = np.array([[False, True, False, False], [True, True, True, True]])
    counts, proxies, escaped, median_rows = _count_table(moduli, hits, radii)
    assert counts == [[1, 1, 2, 3], [0, 0, 0, 0]]
    assert escaped == [True, False]
    assert proxies == [3 / math.log(4.0), 0.0]
    assert [row.count for row in median_rows] == [0, 0, 1, 2]
    assert math.isnan(median_rows[0].ratio) and math.isnan(median_rows[1].ratio)
    _, proxies, _, _ = _count_table(moduli[:1], hits[:1], [0.5, 1.0])
    assert math.isnan(proxies[0])


def test_survey_bytes_are_pinned(golden_branch):
    """A 200 x 40 powerlaw survey on the golden map (64/256 terms), byte
    for byte: the CLI snapshot runs no survey past 50 x 30, and a change to
    the continuation that moves one bit of one orbit point shows here."""
    rep = exceptional_survey(golden_branch, make_powerlaw_set(10, 0.5, 7),
                             w_count=200, k_max=40, seed=1)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == (
        "0fd526a0c6819d5de2b145bf99b938f55060ed808efc1f68f88152f7670a2e74")
