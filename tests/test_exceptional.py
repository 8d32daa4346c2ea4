import json
import math

import numpy as np
import pytest

from poincarelab.errors import BadParams
from poincarelab.exceptional import (
    escape_fraction,
    exceptional_count,
    exceptional_survey,
    liminf_proxies,
    log_growth_table,
    ratio_table_csv,
    report_to_json,
)
from poincarelab.preimage import InverseBranch
from poincarelab.sets import make_custom_set, make_empty_set, make_powerlaw_set


def test_empty_set_counts_every_level(golden_branch, golden_poincare):
    rec = exceptional_count(golden_branch, make_empty_set(), w=0.02 + 0.01j, k_max=15)
    # nothing is excluded; the count at r_k = |mu|^k C1 is k+1 up to the
    # bounded wobble of |g0| around the calibration constant C1
    counts = [row.count for row in rec.ratio_rows]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    for k, c in enumerate(counts):
        assert k - 1 <= c <= k + 2
    assert counts[-1] >= 14
    assert rec.escaped
    assert not rec.conditional
    for row in rec.ratio_rows:
        if row.r > 1:
            assert abs(row.ratio - row.count / math.log(row.r)) < 1e-12


def test_ratio_approaches_target_from_counts(golden_branch, golden_poincare):
    rec = exceptional_count(golden_branch, make_empty_set(), w=0.015 - 0.01j, k_max=25)
    target = 1.0 / math.log(abs(golden_poincare.mu))
    assert rec.liminf_proxy > 0.9 * target
    assert rec.liminf_proxy < 1.2 * target


def test_custom_set_marks_conditional(golden_branch):
    S = make_custom_set(lambda z: False)
    rec = exceptional_count(golden_branch, S, w=0.02j, k_max=8)
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
