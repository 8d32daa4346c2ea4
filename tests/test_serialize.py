import json
import math

import numpy as np

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
