import json
import math

import numpy as np
import pytest

from poincarelab.exceptional import ExceptionalReport, RatioRow, WRecord, report_to_json
from poincarelab.serialize import csv_text, json_text


def test_json_complex_is_a_pair():
    text = json_text({"z": np.complex128(1.5 - 2j), "w": 0.25j})
    assert json.loads(text) == {"z": [1.5, -2.0], "w": [0.0, 0.25]}


def test_json_nan_is_null_and_stays_strict():
    text = json_text({"x": math.nan, "rows": [np.float64("nan"), 1.0],
                      "z": complex(math.nan, 1.0)})
    assert "NaN" not in text
    assert json.loads(text) == {"x": None, "rows": [None, 1.0], "z": [None, 1.0]}


def test_json_numpy_scalars_and_tuples():
    text = json_text({"n": np.int64(5), "b": np.bool_(True), "t": (1, 2.5)})
    assert json.loads(text) == {"n": 5, "b": True, "t": [1, 2.5]}


def test_json_floats_keep_every_bit_and_indent_2():
    x = 0.1 + 0.2
    text = json_text({"x": x})
    assert text == '{\n  "x": 0.30000000000000004\n}'
    assert json.loads(text)["x"] == x


def test_csv_cells():
    text = csv_text(["a", "b", "c", "d", "e"],
                    [[np.int64(5), True, False, None, "x, y"],
                     [7, np.float64(0.1), 1e-300, math.nan, ""]])
    assert text == 'a,b,c,d,e\n5,1,0,,"x, y"\n7,0.1,1e-300,nan,\n'


def test_csv_integral_is_not_a_float():
    assert csv_text(["n"], [[np.int64(5)], [np.int32(-3)]]) == "n\n5\n-3\n"


def _report(records, ratio_rows, **head):
    fields = dict(map_descriptor="lambda-form map", set_descriptor="powerlaw C=10.0 delta=0.5",
                  rho=0.6, target=0.95, c1=1.25, k_max=3)
    fields.update(head)
    return ExceptionalReport(
        records=[WRecord(w=w, points=pts, counts=[], liminf_proxy=p, escaped=e,
                         conditional=c) for w, p, e, c, pts in records],
        ratio_table=[RatioRow(*row) for row in ratio_rows], **fields)


def _report_payload(report):
    """The survey report as one payload for json_text: the reference for
    exceptional.report_to_json."""
    return {
        "map": report.map_descriptor, "set": report.set_descriptor, "rho": report.rho,
        "target": report.target, "c1": report.c1, "k_max": report.k_max,
        "ratio_table": [{"r": row.r, "count": row.count, "ratio": row.ratio}
                        for row in report.ratio_table],
        "records": [{"w": rec.w, "liminf_proxy": rec.liminf_proxy, "escaped": rec.escaped,
                     "conditional": rec.conditional,
                     "points": [{"k": k, "z": z, "in_S": hit} for k, z, hit in rec.points]}
                    for rec in report.records],
    }


_REPORTS = [
    _report([], []),
    _report([(0.1 + 0.2j, math.nan, True, False, [])], [(1.0, 0, math.nan)]),
    _report([(complex(-0.0, 0.0), math.inf, False, True,
              [(0, 1.5 - 2j, False), (1, complex(math.inf, -math.inf), True),
               (2, complex(math.nan, -0.0), False)]),
             (0.3j, -math.inf, True, True, [(0, 0.1 + 0.2 + 0j, True)])],
            [(2.5, 1, 1.0 / 3.0), (-0.0, 2, math.inf)], c1=math.nan, rho=-math.inf),
    _report([(np.complex128(0.25 - 1e-300j), np.float64(0.96), np.bool_(True), np.bool_(False),
              [(np.int64(0), np.complex128(1e300 + 5e-324j), np.bool_(True)),
               (np.int64(1), np.complex128(complex(math.nan, 1.0)), np.bool_(False))])],
            [(np.float64(3.0), np.int64(4), np.float64("nan"))],
            k_max=np.int64(1), c1=np.float64(2.0)),
]


@pytest.mark.parametrize("report", _REPORTS)
def test_survey_writer_is_json_text(report):
    """report_to_json writes the bytes json_text writes for the same
    payload: NaN as null, +-inf as Infinity, -0.0 kept, empty lists, numpy
    scalars."""
    assert report_to_json(report) == json_text(_report_payload(report))
