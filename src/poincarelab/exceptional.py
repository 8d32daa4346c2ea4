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
itself continued, so a report is a function of its inputs alone.  Each w's
moduli |z(k)|, with the points in S read as +inf, are sorted once, and one
searchsorted (side="right", so a tie counts) gives its count at every radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyncore import order_from_multiplier
from .errors import BadParams
from .preimage import InverseBranch, orbit_preimages
from .serialize import csv_text, survey_json_text
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
    counts: list  # of int, the count at each radius r_k
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


def _count_table(moduli: np.ndarray, hits: np.ndarray, radii: list):
    """(counts, liminf proxies, escaped flags, median rows) of the (w, k)
    arrays of orbit moduli and S hits at the shared radii, where
    counts[i][j] = #{k : moduli[i, k] <= radii[j] and not hits[i, k]}."""
    masked = np.where(hits, np.inf, moduli)
    masked.sort(axis=1)
    counts = np.array([np.searchsorted(row, radii, side="right") for row in masked])
    logs = [math.log(r) if r > 0 else -math.inf for r in radii]
    tail = [j for j in range(len(radii))[-LIMINF_WINDOW:] if logs[j] > 0]
    proxies = np.fmin.reduce(counts[:, tail] / np.array(logs)[tail], axis=1,
                             initial=math.nan)
    escaped = ~hits[:, math.ceil(2.0 * (hits.shape[1] - 1) / 3.0):].any(axis=1)
    median_rows = [  # the count column rounds the median; the ratio does not
        RatioRow(r=r, count=int(round(m)), ratio=m / lr if lr > 0 else math.nan)
        for r, lr, m in zip(radii, logs, np.median(counts, axis=0).tolist())
    ]
    return counts.tolist(), proxies.tolist(), escaped.tolist(), median_rows


def _records(ib: InverseBranch, S: SetModel, ws: list, k_max: int):
    """(per-w records, median rows, C1) for the points ws, all orbits from
    one orbit_preimages call.  The counts at r_k = |mu|^k * C1 take each w's
    moduli, S points read as +inf, sorted once; one searchsorted
    (side="right", so a tie counts) gives them at every radius."""
    g, z = orbit_preimages(ib, np.array(ws, dtype=complex), k_max)
    c1 = max([abs(ib.base_point)] + [abs(v) for v in g.ravel().tolist()])
    hits = np.asarray(S.contains_many(z), dtype=bool)
    abs_mu = abs(ib.pm.mu)
    radii = [abs_mu**k * c1 for k in range(k_max + 1)]
    counts, proxies, escaped, median_rows = _count_table(np.abs(z), hits, radii)
    records = [
        WRecord(w=w, points=list(zip(range(k_max + 1), zs, hs)), counts=c,
                liminf_proxy=p, escaped=e, conditional=S.certificate is None)
        for w, zs, hs, c, p, e in zip(ws, z.tolist(), hits.tolist(), counts,
                                      proxies, escaped)
    ]
    return records, median_rows, c1


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

    threads is ignored: the survey is one batched numpy computation on one
    thread.  The parameter stays only for the benchmark, which passes it."""
    if w_count < 10:
        raise BadParams("w_count must be >= 10")
    ws = [complex(w) for w in sub_siegel_sample(ib.sm, w_count, seed)]
    records, median_rows, c1 = _records(ib, S, ws, k_max)

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
    return csv_text(["r = |mu|^k * C1", "count", "count/log r", "target = 1/log|mu|"],
                    log_growth_table(report))


def report_to_json(report: ExceptionalReport) -> str:
    return survey_json_text({
        "map": report.map_descriptor,
        "set": report.set_descriptor,
        "rho": report.rho,
        "target": report.target,
        "c1": report.c1,
        "k_max": report.k_max,
        "ratio_table": [
            {"r": row.r, "count": row.count, "ratio": row.ratio}
            for row in report.ratio_table
        ],
    }, [(rec.w, rec.liminf_proxy, rec.escaped, rec.conditional, rec.points)
        for rec in report.records])
