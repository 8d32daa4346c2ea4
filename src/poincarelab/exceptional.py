"""The headline experiment: counting preimages that avoid a thin set.

For a sampled point w in the sub-Siegel disk W and an adversarial set S of
certified density decay, the orbit preimages z(k) = mu^k g0(P^{-k} w) give a
lower bound for the number of solutions of f(z) = w inside D_r that lie
outside S:

    count(r) = #{ k : |z(k)| <= r and z(k) not in S }.

Because |z(k)| grows like |mu|^k, counting at the geometric radii
r_k = |mu|^k * C1 makes count(r_k)/log(r_k) approach 1/log|mu|, which equals
rho/log 2 for the order rho of f.  The liminf proxy reported for each w is
the minimum of that ratio over the last ten radii.

C1 is the largest of |g0(center)| and the |g0(P^{-k} w)| that the call
itself continued, so a report is a function of its inputs alone, whatever
the branch cache held before.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyncore import order_from_multiplier
from .errors import BadParams
from .preimage import InverseBranch, orbit_preimages
from .sets import SetModel
from .siegel import sub_siegel_sample

LIMINF_WINDOW = 10


@dataclass(frozen=True)
class RatioRow:
    r: float
    count: int
    ratio: float  # count / log r  (nan when log r <= 0)


@dataclass(frozen=True)
class WRecord:
    w: complex
    points: list  # of (k, z, in_S)
    ratio_rows: list  # of RatioRow
    liminf_proxy: float
    escaped: bool  # no S-hits in the final third of k-values
    conditional: bool  # S carried no certificate


@dataclass(frozen=True)
class ExceptionalReport:
    map_descriptor: str
    set_descriptor: str
    records: list  # of WRecord
    ratio_table: list  # of RatioRow (median count across w at each radius)
    rho: float
    target: float  # rho / log 2 = 1 / log|mu|
    c1: float
    k_max: int


def _ratio_rows(points, abs_mu: float, c1: float):
    rows = []
    for k, _, _ in points:
        r = abs_mu**k * c1
        count = sum(
            1 for _kk, z, hit in points if abs(z) <= r and not hit
        )
        log_r = math.log(r) if r > 0 else -math.inf
        ratio = count / log_r if log_r > 0 else math.nan
        rows.append(RatioRow(r=r, count=count, ratio=ratio))
    return rows


def _liminf_proxy(rows) -> float:
    tail = [row.ratio for row in rows[-LIMINF_WINDOW:] if not math.isnan(row.ratio)]
    return min(tail) if tail else math.nan


def _escaped(points, k_max: int) -> bool:
    cutoff = math.ceil(2.0 * k_max / 3.0)
    return not any(hit for k, _, hit in points if k >= cutoff)


def _records(ib: InverseBranch, S: SetModel, ws: list, k_max: int):
    """(per-w records, C1) for the points ws, all orbits from one
    orbit_preimages call."""
    g, z = orbit_preimages(ib, np.array(ws, dtype=complex), k_max)
    c1 = max([abs(ib.base_point)] + [abs(v) for v in g.ravel().tolist()])
    flags = np.asarray(S.contains_many(z), dtype=bool).tolist()
    abs_mu = abs(ib.pm.mu)
    records = []
    for w, zs, hits in zip(ws, z.tolist(), flags):
        points = list(zip(range(k_max + 1), zs, hits))
        rows = _ratio_rows(points, abs_mu, c1)
        records.append(WRecord(
            w=w,
            points=points,
            ratio_rows=rows,
            liminf_proxy=_liminf_proxy(rows),
            escaped=_escaped(points, k_max),
            conditional=S.certificate is None,
        ))
    return records, c1


def exceptional_count(ib: InverseBranch, S: SetModel, w: complex,
                      k_max: int) -> WRecord:
    """Per-w record: orbit points with S membership, the count/log r table at
    r_k = |mu|^k * C1 (C1 from this w's own orbit), the liminf proxy, and
    the escape flag."""
    records, _ = _records(ib, S, [complex(w)], k_max)
    return records[0]


def _descriptor(ib: InverseBranch) -> str:
    qm = ib.pm.map
    return f"{qm.kind}-form map, param {qm.param}, mu {ib.pm.mu}"


def _set_descriptor(S: SetModel) -> str:
    if S.certificate is None:
        return f"{S.kind} (no certificate)"
    return f"{S.kind} C={S.certificate[0]} delta={S.certificate[1]}"


def exceptional_survey(ib: InverseBranch, S: SetModel, w_count: int, k_max: int,
                       seed: int, threads: int = 1) -> ExceptionalReport:
    """Monte Carlo over w in W.  The orbits of all w are continued together
    in one orbit_preimages call, so C1 is the same for every ratio table;
    the report's own table uses the median count across w at each radius.

    threads has no effect (the work is one batched numpy computation); it
    is kept for the callers that pass it."""
    if w_count < 10:
        raise BadParams("w_count must be >= 10")
    ws = [complex(w) for w in sub_siegel_sample(ib.sm, w_count, seed)]
    records, c1 = _records(ib, S, ws, k_max)
    abs_mu = abs(ib.pm.mu)

    median_rows = []
    for i in range(k_max + 1):
        r = abs_mu**i * c1
        med = float(np.median([rec.ratio_rows[i].count for rec in records]))
        log_r = math.log(r) if r > 0 else -math.inf
        median_rows.append(RatioRow(
            r=r,
            count=int(round(med)),
            ratio=med / log_r if log_r > 0 else math.nan,
        ))

    rho = order_from_multiplier(ib.pm.mu)
    return ExceptionalReport(
        map_descriptor=_descriptor(ib),
        set_descriptor=_set_descriptor(S),
        records=records,
        ratio_table=median_rows,
        rho=rho,
        target=rho / math.log(2.0),
        c1=c1,
        k_max=k_max,
    )


def log_growth_table(report: ExceptionalReport):
    """Rows (r, count, count/log r, target); empty report gives an empty
    table."""
    return [(row.r, row.count, row.ratio, report.target)
            for row in report.ratio_table]


def liminf_proxies(report: ExceptionalReport):
    return [rec.liminf_proxy for rec in report.records]


def escape_fraction(report: ExceptionalReport) -> float:
    if not report.records:
        return math.nan
    return sum(1 for rec in report.records if rec.escaped) / len(report.records)


def ratio_table_csv(report: ExceptionalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r = |mu|^k * C1", "count", "count/log r", "target = 1/log|mu|"])
    for row in report.ratio_table:
        writer.writerow([repr(float(row.r)), row.count, repr(float(row.ratio)),
                         repr(float(report.target))])
    return buf.getvalue()


def report_to_json(report: ExceptionalReport) -> str:
    payload = {
        "map": report.map_descriptor,
        "set": report.set_descriptor,
        "rho": report.rho,
        "target": report.target,
        "c1": report.c1,
        "k_max": report.k_max,
        "ratio_table": [
            {"r": row.r, "count": row.count, "ratio": _json_float(row.ratio)}
            for row in report.ratio_table
        ],
        "records": [
            {
                "w": [rec.w.real, rec.w.imag],
                "liminf_proxy": _json_float(rec.liminf_proxy),
                "escaped": rec.escaped,
                "conditional": rec.conditional,
                "points": [
                    {"k": k, "z": [z.real, z.imag], "in_S": hit}
                    for k, z, hit in rec.points
                ],
            }
            for rec in report.records
        ],
    }
    return json.dumps(payload, indent=2)


def _json_float(x: float) -> Optional[float]:
    return None if (x != x) else x
