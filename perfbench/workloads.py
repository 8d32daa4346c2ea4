"""The benchmark's workloads: survey, quadrature and pullback.

Each workload builds its inputs through public poincarelab calls (set-up),
runs one timed repetition, and checks the repetition's outputs, turning them
into attempted and failed operations.  All calls go through module
attributes (``preimage.find_base_preimage`` rather than a name imported
here), so the traced run intercepts the benchmark's own entry points as well
as the calls between layers.

Why these three: ``survey`` is the paper's headline experiment and spends
all its time in the scalar inverse-branch pipeline; ``quadrature`` spends
all its time in ``littlewood`` and never touches the Poincare layers;
``pullback`` uses the ``poincare`` layer over arrays, the other way from
``survey``.  A change to one pipeline has a workload that exercises it and
one that bypasses it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from poincarelab import (
    dyncore,
    exceptional,
    littlewood,
    poincare,
    preimage,
    render,
    sets,
    siegel,
)

RESIDUAL_TOL = 1e-10  # exactly-k pullback residual of an orbit point
POINT_RTOL = 1e-9  # batched value against its closed form / functional equation
REFERENCE_RTOL = 1e-9  # survey tables against the committed reference


def no_span(name: str, amount: float = 0):
    return contextlib.nullcontext()


@dataclass
class Tally:
    """Operation accounting for one run."""

    attempted: int = 0
    failed: int = 0

    def add(self, fails) -> None:
        """Count one operation per element of fails (truthy = failed)."""
        fails = np.asarray(fails, dtype=bool).ravel()
        self.attempted += int(fails.size)
        self.failed += int(np.count_nonzero(fails))

    def lose(self, ops: int) -> None:
        """A repetition raised: every operation in it is unfinished."""
        self.attempted += ops
        self.failed += ops

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def orbit_point_fails(z: complex, residual: float) -> bool:
    return not (cmath.isfinite(z) and residual <= RESIDUAL_TOL)


def integral_fails(est, tol: float, expected: float | None, slack: float) -> bool:
    """A disk integral fails when it fell back past its budget, when its
    error bound exceeds tol, or when it is off its reference by more than
    slack."""
    if est.budget_exceeded or not est.error_bound <= tol:
        return True
    return expected is not None and not abs(est.value - expected) <= slack


def expected_count(r: float) -> int:
    """Solutions of 2cosh(sqrt z) = 2 in D_r with multiplicity: z = 0 once and
    z = -(2 pi m)^2, m >= 1, twice each."""
    return 1 + 2 * math.floor(math.sqrt(r) / (2.0 * math.pi))


def _close_all(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= REFERENCE_RTOL * max(1.0, abs(b)) for a, b in zip(got, want))


class Workload:
    """Interface of a workload; `sizes` maps a size name to its parameters."""

    name = ""
    sizes: dict = {}
    has_reference = False  # checks use values committed in reference.json
    probe_parts = ("floats", "ints", "arrays")  # see run.SpeedProbe

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def reference_problems(self, inputs, ref) -> list[str]:
        return []

    def output_metrics(self, outputs) -> dict:
        """Per-layer metrics read off the outputs of one repetition."""
        return {}

    def trace_extras(self, inputs, span) -> None:
        """Extra traced measurements after the traced repetitions."""


class Survey(Workload):
    name = "survey"
    has_reference = True
    sizes = {
        "full": dict(poincare_terms=64, siegel_terms=256, set_C=10.0, set_delta=0.5,
                     set_seed=7, w_count=10, k_max=30, threads=1, reference_seed=11,
                     blocks=3, setups_per_block=1),
        "tiny": dict(poincare_terms=64, siegel_terms=256, set_C=10.0, set_delta=0.5,
                     set_seed=7, w_count=10, k_max=3, threads=1, reference_seed=11,
                     blocks=1, setups_per_block=1),
    }

    def __init__(self, size: str):
        super().__init__(size)
        self.ops_per_rep = self.p["w_count"] * (self.p["k_max"] + 1)

    def setup(self, seed: int, tracer=None):
        p = self.p
        angle = siegel.RotationAngle.golden()
        qmap = dyncore.QuadMap.lambda_form(angle.lam)
        pm = poincare.build_poincare_map(qmap, N=p["poincare_terms"])
        sm = siegel.build_siegel_map(angle, N=p["siegel_terms"])
        ib = preimage.find_base_preimage(pm, sm)
        return pm, sm, ib.base_point

    def run(self, inputs, seed: int, span=no_span):
        """One survey with a fresh branch and a fresh set, so the continuation
        cache, c1() and the set's lazily built disk packs start empty, as in
        a CLI run.  Both constructors are cheap; the maps and the base point
        come from set-up."""
        pm, sm, base = inputs
        p = self.p
        ib = preimage.InverseBranch(pm, sm, base)
        S = sets.make_powerlaw_set(p["set_C"], p["set_delta"], p["set_seed"])
        return exceptional.exceptional_survey(ib, S, w_count=p["w_count"], k_max=p["k_max"],
                                              seed=seed, threads=p["threads"])

    def check(self, inputs, report, tally: Tally, ref) -> None:
        ib = preimage.InverseBranch(*inputs)
        fails = []
        for rec in report.records:
            for k, z, _ in rec.points:
                res = preimage.verify_orbit_point(ib, rec.w, k, z) if cmath.isfinite(z) else math.inf
                fails.append(orbit_point_fails(z, res))
        tally.add(fails)

    def fingerprint(self, report) -> str:
        return exceptional.report_to_json(report)

    def reference(self, inputs) -> dict:
        """Tables of the survey at the reference seed, on a fresh branch."""
        report = self.run(inputs, self.p["reference_seed"])
        return {
            "seed": self.p["reference_seed"],
            "rtol": REFERENCE_RTOL,
            "c1": report.c1,
            "ratio_table": [[row.r, row.count, row.ratio] for row in report.ratio_table],
            "liminf_proxies": exceptional.liminf_proxies(report),
        }

    def reference_problems(self, inputs, ref: dict) -> list[str]:
        got = self.reference(inputs)
        problems = []
        if not _close_all([got["c1"]], [ref["c1"]]):
            problems.append(f"survey c1 {got['c1']!r} != reference {ref['c1']!r}")
        table, want = got["ratio_table"], ref["ratio_table"]
        if not ([row[1] for row in table] == [row[1] for row in want]
                and _close_all([x for row in table for x in (row[0], row[2])],
                               [x for row in want for x in (row[0], row[2])])):
            problems.append("survey median ratio table differs from the reference")
        if not _close_all(got["liminf_proxies"], ref["liminf_proxies"]):
            problems.append("survey liminf proxies differ from the reference")
        return problems


class Quadrature(Workload):
    name = "quadrature"
    has_reference = True
    # Mostly numpy passes: the host's slow state slows it by about 1.25x,
    # close to integer loops and numpy calls, less than float objects (1.5x).
    probe_parts = ("ints", "arrays")
    sizes = {
        "full": dict(c=-1.0, iterates=[1, 2, 3, 4, 5],
                     monomials=[2**k for k in range(13)], tol=1e-4,
                     blocks=2, setups_per_block=12),
        "tiny": dict(c=-1.0, iterates=[1, 2], monomials=[1, 2, 4], tol=1e-4,
                     blocks=2, setups_per_block=2),
    }

    def __init__(self, size: str):
        super().__init__(size)
        self.ops_per_rep = len(self.p["iterates"]) + len(self.p["monomials"])

    def setup(self, seed: int, tracer=None):
        """Evaluators for the iterates and monomials, plus the monomials'
        oracle values.  The inputs do not depend on the seed.  In a traced
        run each evaluator is wrapped, so its own time is measured."""
        p = self.p
        iterates = [(n, littlewood.iterate_evaluator(p["c"], n)) for n in p["iterates"]]
        monomials = [(m, littlewood.monomial_evaluator(m), littlewood.monomial_integral_oracle(m))
                     for m in p["monomials"]]
        if tracer is not None:
            def wrapped(ev, name, iters):
                # span amount: point-iterations (points times map applications)
                fn = tracer.wrap(ev.fn, name, lambda args, kwargs: iters * int(np.size(args[0])))
                return littlewood.PolyEvaluator(degree=ev.degree, label=ev.label, fn=fn)
            iterates = [(n, wrapped(ev, "littlewood.evaluator.iterate", n)) for n, ev in iterates]
            monomials = [(m, wrapped(ev, "littlewood.evaluator.monomial", 1), o)
                         for m, ev, o in monomials]
        return iterates, monomials

    def run(self, inputs, seed: int, span=no_span):
        iterates, monomials = inputs
        tol = self.p["tol"]
        out = []
        for n, ev in iterates:
            with span(f"quadrature.iterate_n{n}"):
                out.append(littlewood.disk_integral(ev, tol=tol))
        with span("quadrature.monomials"):
            for _, ev, _ in monomials:
                out.append(littlewood.disk_integral(ev, tol=tol))
        return out

    def check(self, inputs, estimates, tally: Tally, ref: dict) -> None:
        iterates, monomials = inputs
        tol = self.p["tol"]
        fails = []
        for (n, _), est in zip(iterates, estimates):
            expected = ref["iterates"].get(str(n))
            fails.append(integral_fails(est, tol, expected, tol + est.error_bound))
        for (_, _, oracle), est in zip(monomials, estimates[len(iterates):]):
            fails.append(integral_fails(est, tol, oracle, tol))
        tally.add(fails)

    def fingerprint(self, estimates) -> str:
        return repr([(e.value, e.error_bound, e.evaluations, e.budget_exceeded)
                     for e in estimates])

    def reference(self, inputs) -> dict:
        iterates, _ = inputs
        tol = self.p["tol"]
        return {"c": self.p["c"], "tol": tol, "iterates": {
            str(n): littlewood.disk_integral(ev, tol=tol).value for n, ev in iterates}}

    def output_metrics(self, estimates) -> dict:
        tol = self.p["tol"]
        m = {f"littlewood.iterate_n{n}.evaluations": est.evaluations
             for n, est in zip(self.p["iterates"], estimates)}
        m["littlewood.evaluations"] = sum(e.evaluations for e in estimates)
        m["littlewood.budget_fallbacks"] = sum(1 for e in estimates if e.budget_exceeded)
        m["littlewood.max_err_over_tol"] = max(e.error_bound / tol for e in estimates)
        return m


class Pullback(Workload):
    """Its references are closed forms, so nothing is committed for it."""

    name = "pullback"
    sizes = {
        "full": dict(terms=64, cheb_c=-2.0, cheb_radius=5000.0, golden_radius=1000.0,
                     points=1 << 18, functional_eq_points=1024, render_radius=200.0,
                     render_size=512, count_target=2.0,
                     count_radii=[10.0, 100.0, 1000.0, 10000.0],
                     blocks=3, setups_per_block=4),
        "tiny": dict(terms=64, cheb_c=-2.0, cheb_radius=5000.0, golden_radius=1000.0,
                     points=1 << 12, functional_eq_points=256, render_radius=200.0,
                     render_size=32, count_target=2.0, count_radii=[10.0, 100.0],
                     blocks=2, setups_per_block=1),
    }

    def __init__(self, size: str):
        super().__init__(size)
        self.ops_per_rep = 2 * self.p["points"] + len(self.p["count_radii"]) + 1

    def setup(self, seed: int, tracer=None):
        """The Chebyshev map c = -2 (closed form 2cosh(sqrt z)), the golden
        lambda-form map, and one seeded point cloud for each, uniform in its
        disk."""
        p = self.p
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9B1D]))

        def cloud(radius):
            r = radius * np.sqrt(rng.random(p["points"]))
            return r * np.exp(2j * math.pi * rng.random(p["points"]))

        cheb = poincare.build_poincare_map(dyncore.QuadMap.c_form(p["cheb_c"]), N=p["terms"])
        gold_map = dyncore.QuadMap.lambda_form(siegel.RotationAngle.golden().lam)
        gold = poincare.build_poincare_map(gold_map, N=p["terms"])
        return cheb, cloud(p["cheb_radius"]), gold, cloud(p["golden_radius"])

    def run(self, inputs, seed: int, span=no_span):
        cheb, z_cheb, gold, z_gold = inputs
        p = self.p
        f_cheb = poincare.poincare_eval_many(cheb, z_cheb)
        f_gold = poincare.poincare_eval_many(gold, z_gold)
        ppm = render.domain_coloring_ppm(gold, p["render_radius"], size=p["render_size"])
        counts = [preimage.argument_principle_count(cheb, p["count_target"], r)
                  for r in p["count_radii"]]
        return f_cheb, f_gold, ppm, counts

    def check(self, inputs, outputs, tally: Tally, ref) -> None:
        cheb, z_cheb, gold, z_gold = inputs
        f_cheb, f_gold, ppm, counts = outputs
        p = self.p
        exact = 2.0 * np.cosh(np.sqrt(z_cheb))
        with np.errstate(invalid="ignore"):
            tally.add(~(np.abs(f_cheb - exact) <= POINT_RTOL * np.abs(exact)))
            # the golden map has no closed form: every value must be finite,
            # and a prefix is held to the functional equation P(f(z)) = f(mu z)
            gold_fails = ~np.isfinite(f_gold)
            m = p["functional_eq_points"]
            f_mu = poincare.poincare_eval_many(gold, gold.mu * z_gold[:m])
            resid = np.abs(gold.map(f_gold[:m]) - f_mu) / (1.0 + np.abs(f_mu))
            gold_fails[:m] |= ~(resid <= POINT_RTOL)
        tally.add(gold_fails)
        tally.add([c != expected_count(r) for c, r in zip(counts, p["count_radii"])])
        size = p["render_size"]
        header = f"P6\n{size} {size}\n255\n".encode("ascii")
        tally.add([not (ppm.startswith(header) and len(ppm) == len(header) + 3 * size * size)])

    def fingerprint(self, outputs) -> str:
        f_cheb, f_gold, ppm, counts = outputs
        h = hashlib.sha256()
        for part in (f_cheb.tobytes(), f_gold.tobytes(), ppm, repr(counts).encode()):
            h.update(part)
        return h.hexdigest()

    def trace_extras(self, inputs, span) -> None:
        """The public pullback_depth over the workload's own |z| values, as
        poincare_eval_many computes it per point."""
        cheb, z_cheb, gold, z_gold = inputs
        with span("poincare.pullback_depth", amount=z_cheb.size + z_gold.size):
            for pm, z in ((cheb, z_cheb), (gold, z_gold)):
                [poincare.pullback_depth(pm, a) for a in np.abs(z)]


WORKLOADS = {w.name: w for w in (Survey, Quadrature, Pullback)}
