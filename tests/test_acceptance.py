"""End-to-end acceptance gate.

Nine checks combine closed-form oracles, bound checks, and finite-depth
surrogates for the asymptotic statements the library explores.  Each check
prints one PASS/FAIL line with its measured margin so a plain pytest run
doubles as a report.
"""

import math
import statistics
import time

import numpy as np
import pytest

from poincarelab import littlewood as lw
from poincarelab.chebfamily import family_report
from poincarelab.exceptional import exceptional_survey, report_to_json
from poincarelab.poincare import (
    check_functional_equation,
    order_estimate,
    order_from_multiplier,
    poincare_derivative_eval,
    poincare_eval,
    poincare_eval_many,
)
from poincarelab.preimage import argument_principle_count, orbit_preimages
from poincarelab.sets import certified_bound, density_estimate, make_empty_set, make_powerlaw_set
from poincarelab.siegel import conjugacy_residual, sub_siegel_sample


# unique real parameter with critical period 3: real root of c^3 + 2c^2 + c + 1
C3_CENTER = -1.7548776662466928


def _verdict(ok: bool, num: int, label: str, detail: str, capsys) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}/9 {label}: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def test_1_chebyshev_closed_form_oracle(cheb_poincare, capsys):
    rng = np.random.default_rng(42)
    r = 100.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
    theta = rng.uniform(0.0, 2.0 * math.pi, 1000)
    z = r * np.exp(1j * theta)
    want = 2.0 * np.cosh(np.sqrt(z.astype(complex)))
    t0 = time.perf_counter()
    got = poincare_eval_many(cheb_poincare, z)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict(ok, 1, "cosh oracle on 1000 points of D_100",
             f"worst residual {worst:.2e} (< 1e-9), {elapsed:.2f}s (< 5s)", capsys)


def test_2_coefficient_identities(cheb_poincare, golden_poincare, golden_siegel, capsys):
    a = cheb_poincare.series_f.coeffs
    mu = golden_poincare.mu
    lam = golden_siegel.angle.lam
    b = golden_siegel.series_h.coeffs
    errs = [
        abs(a[2] - 1.0 / 12.0),
        abs(a[3] - 1.0 / 360.0),
        abs(golden_poincare.series_f.coeffs[2] - 1.0 / (mu**2 - mu)),
        abs(b[2] - 1.0 / (lam**2 - lam)),
    ]
    worst = max(errs)
    _verdict(worst < 1e-15, 2, "low-order coefficients vs closed forms",
             f"worst deviation {worst:.1e} (< 1e-15)", capsys)


def test_3_functional_equations(cheb_poincare, golden_poincare, golden_siegel, capsys):
    details = []
    ok = True
    for name, pm in [("cheb", cheb_poincare), ("golden", golden_poincare)]:
        worst_rel, worst_abs, sup_f = check_functional_equation(pm)
        ok &= worst_abs < 1e-9 * (1.0 + sup_f) and worst_rel < 1e-10
        details.append(f"{name} sup residual {worst_abs:.2e} vs 1e-9*(1+sup|f|)="
                       f"{1e-9 * (1 + sup_f):.2e}, pointwise {worst_rel:.2e} (< 1e-10)")
    sres = conjugacy_residual(golden_siegel, 0.5 * golden_siegel.radius_hat)
    ok &= sres < 1e-10
    details.append(f"siegel conjugacy {sres:.2e} (< 1e-10)")
    _verdict(ok, 3, "functional equations on test circles", "; ".join(details), capsys)


def test_4_argument_principle_counts(cheb_poincare, capsys):
    t0 = time.perf_counter()
    got = [argument_principle_count(cheb_poincare, 2.0 + 0j, float(r))
           for r in (10, 100, 1000, 10000)]
    elapsed = time.perf_counter() - t0
    want = [1 + 2 * int(math.sqrt(r) / (2.0 * math.pi)) for r in (10, 100, 1000, 10000)]
    ok = got == want == [1, 3, 11, 31] and elapsed < 10.0
    _verdict(ok, 4, "zero counts of f-2 on growing disks",
             f"counts {got} vs {want}, {elapsed:.2f}s (< 10s)", capsys)


def test_5_order_estimates(cheb_poincare, golden_poincare, capsys):
    est_c = order_estimate(cheb_poincare, 40)
    est_g = order_estimate(golden_poincare, 40)
    target = order_from_multiplier(golden_poincare.mu)
    diff = abs(est_g.rho_hat - target)
    ok = 0.48 <= est_c.rho_hat <= 0.52 and diff < 0.02
    _verdict(ok, 5, "growth-order fits",
             f"cheb rho_hat {est_c.rho_hat:.4f} in [0.48, 0.52]; "
             f"golden |rho_hat - {target:.4f}| = {diff:.1e} (< 0.02)", capsys)


def test_6_disk_integrals(capsys):
    t0 = time.perf_counter()
    tol = 1e-4
    estimates = []

    est1 = lw.disk_integral(lw.monomial_evaluator(1), tol=1e-8)
    estimates.append(est1)
    deg1_err = abs(est1.value - 2.0 * math.pi * math.log(2.0))
    ok = deg1_err < 1e-6

    worst_mono = 0.0
    for n in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]:
        est = lw.disk_integral(lw.monomial_evaluator(n), tol=tol)
        estimates.append(est)
        worst_mono = max(worst_mono, abs(est.value - lw.monomial_integral_oracle(n)))
    ok &= worst_mono <= max(tol, 1e-8)

    fam = lw.iterate_family_integrals(-1.0 + 0j, n_max=10, tol=tol)
    estimates.extend(fam)
    fit = lw.exponent_fit(fam)
    ok &= fit.slope < 0.5

    bound_ok = all(e.value <= lw.cs_bound(e.degree) + e.error_bound for e in estimates)
    ok &= bound_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    _verdict(ok, 6, "spherical-derivative disk integrals",
             f"degree-1 err {deg1_err:.1e} (< 1e-6); monomial worst {worst_mono:.1e} "
             f"(<= {max(tol, 1e-8):.0e}); family slope {fit.slope:.3f} (< 0.5); "
             f"sqrt-degree bound holds for all {len(estimates)} estimates: {bound_ok}; "
             f"{elapsed:.0f}s (< 600s)", capsys)


def test_7_thinned_preimage_survey(golden_branch, golden_poincare, capsys):
    t0 = time.perf_counter()
    S = make_powerlaw_set(10.0, 0.5, seed=7)
    rep = exceptional_survey(golden_branch, S, w_count=50, k_max=30, seed=11, threads=1)
    target = 1.0 / math.log(abs(golden_poincare.mu))

    clean = sum(1 for rec in rep.records
                if not any(in_s for (k, _, in_s) in rec.points if 20 <= k <= 30))
    frac = clean / len(rep.records)
    med = statistics.median(rec.counts[-1] / math.log(rep.ratio_table[-1].r)
                            for rec in rep.records)

    rep_e = exceptional_survey(golden_branch, make_empty_set(),
                               w_count=50, k_max=30, seed=11, threads=1)
    med_e = statistics.median(rec.counts[-1] / math.log(rep_e.ratio_table[-1].r)
                              for rec in rep_e.records)
    elapsed = time.perf_counter() - t0

    ok = (frac >= 0.9 and med >= 0.9 * target and med_e >= 0.95 * target
          and elapsed < 300.0)
    _verdict(ok, 7, "density-thinned preimage counts",
             f"zero-hit fraction k in [20,30]: {frac:.2f} (>= 0.9); "
             f"median count/log r {med:.4f} (>= {0.9 * target:.4f}); "
             f"empty-set median {med_e:.4f} (>= {0.95 * target:.4f}); "
             f"{elapsed:.0f}s (< 300s)", capsys)


def test_8_quadratic_family_pipeline(golden_angle, capsys):
    rep = family_report([1, 2, 3], golden_angle)
    lam = golden_angle.lam
    rows = {row.q: row for row in rep.rows}
    errs = [
        abs(rows[1].c_super - 0.0),
        abs(rows[2].c_super - (-1.0)),
        abs(rows[3].c_super - C3_CENTER),
        abs(rows[2].c_parabolic - (-1.25)),
        abs(rows[1].c_siegel - (lam / 2.0 - lam**2 / 4.0)),
        abs(rows[2].c_siegel - (-1.0 + lam / 4.0)),
    ]
    worst = max(errs)
    mu_ok = all(abs(row.mu) < 4.0 for row in rep.rows)
    rho_ok = all(row.rho > 0.5 for row in rep.rows)
    res_ok = all(row.mult_residual < 1e-8 for row in rep.rows)
    ok = worst < 1e-8 and mu_ok and rho_ok and res_ok
    _verdict(ok, 8, "parameter-family pipeline",
             f"worst closed-form deviation {worst:.1e} (< 1e-8); |mu|<4: {mu_ok}; "
             f"rho>1/2: {rho_ok}; multiplier residuals <1e-8: {res_ok}", capsys)


def test_9_cross_checks_and_determinism(golden_branch, golden_poincare, golden_siegel, capsys):
    pm = golden_poincare
    amu = abs(pm.mu)

    pairs = 0
    count_ok = True
    for w in sub_siegel_sample(golden_siegel, 5, 3):
        pts = orbit_preimages(golden_branch, [w], 8)[1][0]
        for kr in (1, 2, 3, 4):
            rr = amu**kr * 3.5
            inside = int(np.count_nonzero(np.abs(pts) <= rr))
            count_ok &= inside <= argument_principle_count(pm, complex(w), rr)
            pairs += 1

    S = make_powerlaw_set(10.0, 0.5, seed=5)
    dens_ok = True
    for i, rr in enumerate(np.geomspace(1.5, 2000.0, 20)):
        est = density_estimate(S, float(rr), 20000, seed=100 + i)
        dens_ok &= est.value <= certified_bound(S, float(rr)) + 3.0 * est.std_error

    worst_fd = 0.0
    for z in (5 + 2j, -30 + 11j, 200 - 40j, 3000 + 500j, 0.5j):
        d = poincare_derivative_eval(pm, np.array([z]))[1][0]
        h = 1e-6 * (1.0 + abs(z))
        fd = (poincare_eval(pm, z + h) - poincare_eval(pm, z - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(d - fd) / (1.0 + abs(d)))
    fd_ok = worst_fd < 1e-6

    S7 = make_powerlaw_set(10.0, 0.5, seed=7)
    j1 = report_to_json(exceptional_survey(golden_branch, S7, w_count=10, k_max=12,
                                           seed=11, threads=1))
    j2 = report_to_json(exceptional_survey(golden_branch, S7, w_count=10, k_max=12,
                                           seed=11, threads=1))
    d1 = density_estimate(S, 10.0, 30000, seed=9)
    d2 = density_estimate(S, 10.0, 30000, seed=9)
    det_ok = (j1 == j2) and (d1 == d2)

    ok = count_ok and dens_ok and fd_ok and det_ok
    _verdict(ok, 9, "consistency and determinism",
             f"orbit<=argument counts on {pairs} pairs: {count_ok}; "
             f"MC density within cert+3sigma on 20 radii: {dens_ok}; "
             f"derivative vs FD worst {worst_fd:.1e} (< 1e-6); "
             f"seeded reruns identical: {det_ok}", capsys)
