"""Every CSV and JSON format rule of the package's output files.

numpy scalars are first turned into the Python numbers they hold.  JSON is
indented by 2; a complex number is written as [re, im], a NaN as null and a
tuple as a list.  CSV lines end in "\\n"; as the csv module does, a float is
written by repr (its shortest round-trip form), an integer as is and None as
an empty cell; a bool is written as 0/1.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def _json_value(x):
    x = x.item() if isinstance(x, np.generic) else x
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, complex):
        return [_json_value(x.real), _json_value(x.imag)]
    return None if isinstance(x, float) and math.isnan(x) else x


def json_text(payload) -> str:
    return json.dumps(_json_value(payload), indent=2)


def _csv_cell(x):
    x = x.item() if isinstance(x, np.generic) else x
    return int(x) if isinstance(x, bool) else x


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(x) for x in row] for row in rows)
    return buf.getvalue()
