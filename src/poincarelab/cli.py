"""Command-line entry point.

Subcommands: poincare, siegel, preimages, exceptional, littlewood, chebyshev,
density, render.  poincare, preimages and render take the map as
--lambda-gamma G or --c RE,IM; siegel and exceptional take --lambda-gamma
only, and littlewood's --c is the parameter of its iterates.  Every run is
fully determined by its command and flags; --seed exists only on the four
commands that read it (preimages for its power-law set, exceptional, density
and render), and reruns with equal flags produce byte-identical
CSV/JSON/PPM/SVG files (no timestamps anywhere).
Exit codes: 0 ok, 2 usage or precondition violation, 3 numeric failure
(stderr carries the module error name verbatim), 4 evaluation budget
exceeded (`littlewood`: the rows over budget hold the value their cells
reached, with error_estimate inf).  A run that exits 2 or 3
writes no file; one that exits 4 still writes its files.  Every CSV/JSON
format rule lives in `serialize`.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import chebfamily, exceptional, littlewood, preimage, render
from .dyncore import QuadMap
from .errors import BadParams, OutOfDomain, PoincareLabError
from .poincare import build_poincare_map, functional_equation_residual, poincare_eval
from .sets import (
    certified_bound,
    density_estimate,
    make_empty_set,
    make_powerlaw_set,
    make_sector_set,
    set_payload,
)
from .serialize import csv_text, json_text
from .series import series_to_json
from .siegel import RotationAngle, build_siegel_map, check_linearizer_terms, sub_siegel_sample


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        z = None
    if z is None:
        raise BadParams(f"cannot parse complex number from {text!r}; expected RE,IM")
    if not cmath.isfinite(z):
        raise BadParams(f"complex number {text!r} is not finite")
    return z


def _angle_from_flag(text: str) -> RotationAngle:
    if text == "golden":
        return RotationAngle.golden()
    try:
        g = float(text)
    except ValueError:
        raise BadParams(f"--lambda-gamma takes 'golden' or a number in (0,1), got {text!r}")
    return RotationAngle(g)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise BadParams(f"{flag} takes comma-separated integers, got {text!r}")


def _build_map(args):
    """(QuadMap, RotationAngle | None) from --lambda-gamma / --c flags."""
    lg = getattr(args, "lambda_gamma", None)
    c = getattr(args, "c", None)
    if lg is not None and c is not None:
        raise BadParams("give either --lambda-gamma or --c, not both")
    if lg is not None:
        angle = _angle_from_flag(lg)
        return QuadMap(kind="lambda", param=angle.lam), angle
    if c is not None:
        return QuadMap(kind="c", param=_parse_complex(c)), None
    raise BadParams("map spec required; usage: --lambda-gamma G | --c RE,IM")


def _build_set(args):
    kind = getattr(args, "set", None) or "empty"
    if kind == "empty":
        return make_empty_set()
    if kind == "powerlaw":
        return make_powerlaw_set(args.C, args.delta, args.seed)
    return make_sector_set(args.C, args.delta)  # argparse allows no other kind


def _re_im(z):
    """The two CSV cells of a complex number, both empty when it is missing."""
    return (None, None) if z is None else (z.real, z.imag)


# ---------------------------------------------------------------- commands
#
# Each command builds its objects, prints its summary and returns
# (files, exit code): files is an ordered {name: text or bytes} that main
# writes under --out-dir.  A third item, if any, ends main's `wrote` line.
# A command that raises writes nothing.


def cmd_poincare(args):
    qmap, angle = _build_map(args)
    pm = build_poincare_map(qmap, N=args.terms)
    provenance = {
        "command": "poincare",
        "map_kind": qmap.kind,
        "param": qmap.param,
        "terms": args.terms,
        "z0": pm.z0,
        "mu": pm.mu,
    }
    if args.eval:
        points = [_parse_complex(p) for p in args.eval.split(";") if p]
    else:
        points = [5.0 * pm.r0 * complex(math.cos(t), math.sin(t))
                  for t in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]]
    rows = []
    for z in points:
        fz = poincare_eval(pm, z)
        rows.append([z.real, z.imag, fz.real, fz.imag,
                     functional_equation_residual(pm, z)])
    print(f"poincare: z0={pm.z0} mu={pm.mu} r0={pm.r0:.6g} "
          f"safe_radius={pm.series_f.safe_radius:.6g}")
    return {
        "poincare_series.json": series_to_json(pm.series_f, provenance),
        "poincare_eval.csv": csv_text(
            ["re z", "im z", "re f(z)", "im f(z)",
             "residual = |P(f(z))-f(mu z)|/(1+|f(mu z)|)"], rows),
    }, 0


def cmd_siegel(args):
    if args.lambda_gamma is None:
        raise BadParams("siegel needs --lambda-gamma G")
    angle = _angle_from_flag(args.lambda_gamma)
    sm = build_siegel_map(angle, N=args.terms)
    provenance = {"command": "siegel", "gamma": angle.gamma, "terms": args.terms}
    info = {
        "gamma": angle.gamma,
        "lambda": angle.lam,
        "radius_hat": sm.radius_hat,
        "root_estimate": sm.radius_info.root_estimate,
        "residual_estimate": sm.radius_info.residual_estimate,
        "inconclusive": sm.radius_info.inconclusive,
        "sub_fraction": sm.sub_fraction,
        "conjugacy_residual": sm.conj_residual,
    }
    print(f"siegel: gamma={angle.gamma:.12g} radius_hat={sm.radius_hat:.6g} "
          f"conjugacy_residual={sm.conj_residual:.3e}")
    return {"siegel_series.json": series_to_json(sm.series_h, provenance),
            "siegel_info.json": json_text(info)}, 0


def cmd_preimages(args):
    qmap, angle = _build_map(args)
    pm = build_poincare_map(qmap, N=args.terms)
    preimage.check_orbit_depth(pm, args.kmax)
    w = _parse_complex(args.w)
    S = _build_set(args)
    count = preimage.argument_principle_count(pm, w, args.r)
    print(f"argument principle count of f(z)={w} in D_{args.r:g}: {count}")
    if angle is None:
        print("orbit preimages need a Siegel map (--lambda-gamma); skipped")
        return {}, 0
    sm = build_siegel_map(angle, N=args.siegel_terms)
    ib = preimage.find_base_preimage(pm, sm)
    try:
        report = preimage.build_preimage_report(ib, S, w, args.r, args.kmax)
    except OutOfDomain:
        print(f"w={w} lies outside the sub-Siegel disk; orbit preimages skipped")
        return {}, 0
    inside = sum(1 for p in report.orbit_points if abs(p.z) <= args.r)
    print(f"orbit preimages with |z| <= {args.r:g}: {inside} "
          f"(of {len(report.orbit_points)} computed; count >= orbit is "
          f"{'OK' if count >= inside else 'VIOLATED'})")
    return {"preimage_report.csv": preimage.report_to_csv(report),
            "preimage_report.json": preimage.report_to_json(report)}, 0


def cmd_exceptional(args):
    S = _build_set(args)  # validate set flags before heavy work
    angle = _angle_from_flag(args.lambda_gamma or "golden")
    qmap = QuadMap(kind="lambda", param=angle.lam)
    pm = build_poincare_map(qmap, N=args.terms)
    preimage.check_orbit_depth(pm, args.kmax)
    sm = build_siegel_map(angle, N=args.siegel_terms)
    ib = preimage.find_base_preimage(pm, sm)
    report = exceptional.exceptional_survey(
        ib, S, w_count=args.samples, k_max=args.kmax, seed=args.seed,
    )
    proxies = [p for p in exceptional.liminf_proxies(report) if not math.isnan(p)]
    med = float(np.median(proxies)) if proxies else math.nan
    print(f"exceptional: target 1/log|mu| = {report.target:.6f}, "
          f"median liminf proxy = {med:.6f}, "
          f"escape fraction = {exceptional.escape_fraction(report):.3f}")
    return {"exceptional_report.json": exceptional.report_to_json(report),
            "exceptional_ratio_table.csv": exceptional.ratio_table_csv(report)}, 0


def cmd_littlewood(args):
    if args.family == "iterates":
        c = _parse_complex(args.c) if args.c is not None else complex(-1.0, 0.0)
        estimates = littlewood.iterate_family_integrals(c, args.nmax, args.tol)
        label = f"iterates of z^2 + ({c})"
    else:  # monomials, the only other choice
        if args.nmax < 0:
            raise BadParams(f"--nmax must be >= 0 for monomials, got {args.nmax}")
        degrees = [2**j for j in range(0, args.nmax + 1)]
        estimates = [
            littlewood.disk_integral(littlewood.monomial_evaluator(n), tol=args.tol)
            for n in degrees
        ]
        label = "monomials z^n"
    files = {"littlewood.csv": littlewood.family_csv(estimates)}
    print(f"littlewood ({label}): {len(estimates)} integrals, "
          f"max degree {estimates[-1].degree}")
    code = 0
    if any(e.budget_exceeded for e in estimates):
        print(f"evaluation budget of {littlewood.EVAL_BUDGET} exceeded; the rows over it "
              "hold the value reached, no error estimate", file=sys.stderr)
        code = 4
    try:
        fit = littlewood.exponent_fit(estimates)
    except PoincareLabError:
        return files, code, " (too few degrees for an exponent fit)"
    files["littlewood_fit.json"] = json_text({
        "slope": fit.slope,
        "alpha_hat": fit.alpha_hat,
        "residual": fit.residual,
        "pairs": fit.pairs,
    })
    print(f"fit: slope={fit.slope:.6f} alpha_hat={fit.alpha_hat:.6f}")
    return files, code


def cmd_chebyshev(args):
    q_list = _int_list(args.q, "--q")
    if not q_list or min(q_list) < 1:
        raise BadParams(f"--q takes comma-separated periods >= 1, got {args.q!r}")
    check_linearizer_terms(args.terms)
    if args.gamma_cf:
        cf = _int_list(args.gamma_cf, "--gamma-cf")
        angle = RotationAngle.from_cf(cf)
    else:
        angle = chebfamily.family_angle()
    report = chebfamily.family_report(q_list, angle, series_terms=args.terms)
    table = csv_text(
        ["q", "c_super_re", "c_parab_re", "c_parab_im",
         "c_siegel_re", "c_siegel_im", "z_re", "z_im",
         "mu_re", "mu_im", "|mu|", "rho = log2/log|mu|",
         "siegel_linearizer_residual", "max_multiplier_residual",
         "error"],
        [[row.q, row.c_super, *_re_im(row.c_parabolic), *_re_im(row.c_siegel),
          *_re_im(row.z_fixed), *_re_im(row.mu),
          None if row.mu is None else abs(row.mu), row.rho,
          row.siegel_residual, row.mult_residual, row.error]
         for row in report.rows])
    payload = {
        "gamma": report.gamma,
        "limits": report.limits,
        "rows": [
            {
                "q": row.q,
                "c_super": row.c_super,
                "c_parabolic": row.c_parabolic,
                "c_siegel": row.c_siegel,
                "z_fixed": row.z_fixed,
                "mu": row.mu,
                "abs_mu": None if row.mu is None else abs(row.mu),
                "rho": row.rho,
                "siegel_residual": row.siegel_residual,
                "mult_residual": row.mult_residual,
                "error": row.error,
            }
            for row in report.rows
        ],
    }
    for row in report.rows:
        if row.error is None:
            print(f"q={row.q}: c_super={row.c_super:.9f} "
                  f"|mu|={abs(row.mu):.6f} rho={row.rho:.6f}")
        else:
            print(f"q={row.q}: {row.error}")
    return {"chebyshev_family.csv": table,
            "chebyshev_family.json": json_text(payload)}, 0


def cmd_density(args):
    S = _build_set(args)
    est = density_estimate(S, args.r, args.samples, args.seed)
    bound = certified_bound(S, args.r) if S.certificate is not None else None
    payload = {
        "set": set_payload(S),
        "r": args.r,
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "certified_bound": bound,
    }
    bound_text = f", certified bound {bound:.6g}" if bound is not None else ""
    print(f"density in D_{args.r:g}: {est.value:.6g} "
          f"+/- {3.0 * est.std_error:.2g} (3 sigma){bound_text}")
    return {"density.json": json_text(payload)}, 0


def cmd_render(args):
    if args.r is not None and not (0.0 < args.r < math.inf):
        raise BadParams(f"--r must be positive and finite, got {args.r}")
    if args.size < 1:
        raise BadParams(f"--size must be >= 1, got {args.size}")
    fmt = Path(args.out).suffix.lower()
    if fmt not in (".ppm", ".svg"):
        raise BadParams(f"unknown image format {fmt!r}; use .ppm or .svg")
    if args.lambda_gamma is None and args.c is None:
        args.lambda_gamma = "golden"
    qmap, angle = _build_map(args)

    if args.what == "domain":
        pm = build_poincare_map(qmap, N=args.terms)
        r = args.r if args.r is not None else 4.0 * pm.r0
        payload = (render.domain_coloring_ppm(pm, r, args.size) if fmt == ".ppm"
                   else render.domain_coloring_svg(pm, r))
    elif args.what == "siegel":
        if angle is None:
            raise BadParams("render --what siegel needs --lambda-gamma")
        sm = build_siegel_map(angle, N=args.siegel_terms)
        payload = (render.siegel_scatter_ppm(sm, args.size, args.samples, args.seed)
                   if fmt == ".ppm"
                   else render.siegel_scatter_svg(sm, min(args.samples, 2000), args.seed))
    else:  # orbit, the only other choice
        if angle is None:
            raise BadParams("render --what orbit needs --lambda-gamma")
        pm = build_poincare_map(qmap, N=args.terms)
        preimage.check_orbit_depth(pm, args.kmax)
        sm = build_siegel_map(angle, N=args.siegel_terms)
        ib = preimage.find_base_preimage(pm, sm)
        w = complex(sub_siegel_sample(sm, 1, args.seed)[0])
        pts = preimage.orbit_preimages(ib, [w], args.kmax)[1][0].tolist()
        S = _build_set(args) if getattr(args, "set", None) else None
        r = args.r if args.r is not None else 1.05 * max(abs(z) for z in pts)
        payload = (render.orbit_svg(pts, S, r) if fmt == ".svg"
                   else render.orbit_ppm(pts, S, r, args.size))
    return {args.out: payload}, 0  # an absolute --out ignores --out-dir


# ---------------------------------------------------------------- parser


def _add_gamma_flag(p: argparse.ArgumentParser):
    p.add_argument("--lambda-gamma", dest="lambda_gamma", metavar="G",
                   help="rotation number in (0,1), or 'golden'")


def _add_map_flags(p: argparse.ArgumentParser):
    _add_gamma_flag(p)
    p.add_argument("--c", metavar="RE,IM", help="parameter of z^2 + c")


def _add_set_flags(p: argparse.ArgumentParser):
    p.add_argument("--set", choices=["empty", "powerlaw", "sectors"],
                   help="target set model")
    p.add_argument("--C", type=float, default=10.0, help="density constant C")
    p.add_argument("--delta", type=float, default=0.5,
                   help="density decay exponent in (0,2)")
    # the commands with a target set are the ones that read a seed
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the power-law layout and of sampled points")


def _command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poincarelab",
        description="Poincare functions, Siegel disks, preimage counting, "
                    "spherical-derivative integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "poincare", cmd_poincare, "series + functional-equation table")
    _add_map_flags(p)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--eval", metavar="RE,IM;RE,IM;...",
                   help="points to evaluate (semicolon separated)")

    p = _command(sub, "siegel", cmd_siegel, "Siegel linearizer series + radius")
    _add_gamma_flag(p)
    p.add_argument("--terms", type=int, default=256)

    p = _command(sub, "preimages", cmd_preimages, "orbit preimages vs argument-principle count")
    _add_map_flags(p)
    p.add_argument("--w", required=True, metavar="RE,IM")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--siegel-terms", dest="siegel_terms", type=int, default=256)
    _add_set_flags(p)

    p = _command(sub, "exceptional", cmd_exceptional, "liminf-count survey over sampled w")
    _add_gamma_flag(p)
    _add_set_flags(p)
    p.add_argument("--kmax", type=int, default=30)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--siegel-terms", dest="siegel_terms", type=int, default=256)

    p = _command(sub, "littlewood", cmd_littlewood, "spherical-derivative disk integrals")
    p.add_argument("--family", choices=["iterates", "monomials"], default="iterates")
    p.add_argument("--c", metavar="RE,IM")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-4)

    p = _command(sub, "chebyshev", cmd_chebyshev, "parameter family pipeline near c=-2")
    p.add_argument("--q", default="1,2,3", metavar="Q1,Q2,...")
    p.add_argument("--gamma-cf", dest="gamma_cf", metavar="A1,A2,...",
                   help="continued-fraction terms of the Siegel rotation number")
    p.add_argument("--terms", type=int, default=64)

    p = _command(sub, "density", cmd_density, "Monte Carlo density vs certificate")
    _add_set_flags(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = _command(sub, "render", cmd_render, "PPM/SVG images")
    p.add_argument("--what", choices=["domain", "siegel", "orbit"], required=True)
    _add_map_flags(p)
    _add_set_flags(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--siegel-terms", dest="siegel_terms", type=int, default=256)
    p.add_argument("--out", required=True)

    return parser


_NEG_NUMBER = re.compile(r"^-\d|^-\.\d")


def _merge_negative_values(argv):
    """Join '--flag -2,0' into '--flag=-2,0' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and _NEG_NUMBER.match(nxt)):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        files, code, *note = args.handler(args)
    except BadParams as exc:
        print(f"BadParams: {exc}", file=sys.stderr)
        return 2
    except PoincareLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    paths = [Path(args.out_dir) / name for name in files]
    for path, data in zip(paths, files.values()):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    if paths:
        print("wrote " + " and ".join(map(str, paths)) + "".join(note))
    return code


def console_main() -> None:
    sys.exit(main())
