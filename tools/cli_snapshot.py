"""Run a fixed set of CLI invocations and keep everything they produce.

Usage:

    python tools/cli_snapshot.py SRC_DIR OUT_DIR

SRC_DIR is the directory that holds the `poincarelab` package (the repo's
`src`).  RUNS lists 59 invocations that cover every subcommand, each
target set and each branch of the file writers, failed runs included.
Each invocation runs as `python -m poincarelab ... --out-dir .` from its
own subdirectory of OUT_DIR, so its output files land there and its
stdout carries no absolute path; the stdout goes to `stdout.txt`, the
stderr to `stderr.txt` and the exit code to `exit_code.txt` beside them.  Snapshots of two trees are
byte-identical exactly when `diff -r OUT_A OUT_B` prints nothing.  All runs
together take under a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

RUNS = [
    ("poincare_flat", ["poincare", "--c", "-2,0", "--eval", "25,0;3,4;-7,0.5"]),
    ("poincare_golden", ["poincare", "--lambda-gamma", "golden", "--terms", "128"]),
    ("poincare_no_map", ["poincare"]),
    ("poincare_overflow_eval", ["poincare", "--c", "-2,0", "--eval", "1e300,0"]),
    ("poincare_terms_1024", ["poincare", "--c", "-1.5,0.3", "--terms", "1024"]),
    # coefficients that underflow to 0 in the top of the list (past n = 88
    # at c = -2, n = 94 at c = -1.5+0.3i)
    ("poincare_cheb_terms_256", ["poincare", "--c", "-2,0", "--terms", "256"]),
    ("poincare_terms_256", ["poincare", "--c", "-1.5,0.3", "--terms", "256"]),
    ("siegel_golden", ["siegel", "--lambda-gamma", "golden"]),
    ("siegel_gamma", ["siegel", "--lambda-gamma", "0.38297", "--terms", "128"]),
    ("siegel_terms_1024", ["siegel", "--lambda-gamma", "golden", "--terms", "1024"]),
    ("siegel_both_maps", ["siegel", "--lambda-gamma", "golden", "--c", "1,1"]),
    ("siegel_terms_0", ["siegel", "--lambda-gamma", "golden", "--terms", "0"]),
    ("siegel_terms_neg", ["siegel", "--lambda-gamma", "golden", "--terms", "-5"]),
    ("preimages_golden", ["preimages", "--lambda-gamma", "golden", "--w", "0.05,0.02",
                          "--r", "200", "--kmax", "10", "--set", "powerlaw"]),
    ("preimages_outside", ["preimages", "--lambda-gamma", "golden", "--w", "2.5,0",
                           "--r", "50"]),
    ("preimages_flat", ["preimages", "--c", "-2,0", "--w", "2,0", "--r", "30"]),
    ("preimages_sectors", ["preimages", "--lambda-gamma", "golden", "--w", "0.05,0.02",
                           "--r", "200", "--kmax", "10", "--set", "sectors"]),
    ("exceptional_powerlaw", ["exceptional", "--set", "powerlaw"]),
    ("exceptional_sectors", ["exceptional", "--set", "sectors", "--samples", "20",
                             "--kmax", "12", "--seed", "3"]),
    ("exceptional_empty", ["exceptional", "--set", "empty", "--samples", "10",
                           "--kmax", "8", "--seed", "4"]),
    ("exceptional_c_flag", ["exceptional", "--c", "0.3,0.1", "--samples", "10",
                            "--kmax", "5"]),
    # 200 x 40, the survey size of the ROADMAP's baseline timings
    ("exceptional_powerlaw_200x40", ["exceptional", "--set", "powerlaw", "--samples", "200",
                                     "--kmax", "40"]),
    ("exceptional_deep", ["exceptional", "--set", "sectors", "--samples", "20",
                          "--kmax", "120", "--seed", "5"]),
    ("littlewood_iterates", ["littlewood", "--nmax", "4"]),
    ("littlewood_monomials", ["littlewood", "--family", "monomials", "--nmax", "3"]),
    # degrees up to 4096, whose rows depend on the root mesh's ladder toward r = 1
    ("littlewood_monomials_deep", ["littlewood", "--family", "monomials", "--nmax", "12"]),
    ("littlewood_complex_c", ["littlewood", "--c", "0.3,0.2", "--nmax", "3"]),
    ("littlewood_no_fit", ["littlewood", "--nmax", "2"]),
    # the default n = 1..10, degrees up to 1024
    ("littlewood_nmax_10", ["littlewood", "--nmax", "10"]),
    # deep refinement: tens of thousands of cells and many rounds per degree
    ("littlewood_tol_1e-6", ["littlewood", "--nmax", "10", "--tol", "1e-6"]),
    ("chebyshev", ["chebyshev", "--q", "1,2,3"]),
    ("chebyshev_q8", ["chebyshev", "--q", "1,2,3,4,5,6,7,8"]),
    ("chebyshev_q10", ["chebyshev", "--q", "1,2,3,4,5,6,7,8,9,10"]),
    ("chebyshev_all_fail", ["chebyshev", "--q", "1", "--gamma-cf", "1,1000000"]),
    # 32 terms are too few for the linearizer: refused before any search
    ("chebyshev_terms_32", ["chebyshev", "--q", "2,3", "--terms", "32"]),
    ("density_powerlaw", ["density", "--set", "powerlaw", "--r", "5",
                          "--samples", "20000"]),
    ("density_sectors", ["density", "--set", "sectors", "--r", "20"]),
    ("density_empty", ["density", "--set", "empty", "--r", "3"]),
    ("density_C_inf", ["density", "--set", "powerlaw", "--C", "inf", "--r", "5",
                       "--samples", "2000"]),
]
for what in ("domain", "siegel", "orbit"):
    for ext in ("ppm", "svg"):
        flags = ["--set", "powerlaw"] if what == "orbit" else []
        RUNS.append((f"render_{what}_{ext}",
                     ["render", "--what", what, "--size", "128",
                      "--out", f"{what}.{ext}"] + flags))
# 600 x 600 pixels span several row blocks of the domain coloring and end in
# a partial one; the 128-pixel runs fit in one block
RUNS.append(("render_domain_ppm_600",
             ["render", "--what", "domain", "--size", "600", "--out", "domain.ppm"]))
# f overflows in the corners of the square around D_17000, outside the disk
# that the image shows
RUNS.append(("render_domain_corners",
             ["render", "--what", "domain", "--r", "17000", "--size", "64",
              "--out", "domain.ppm"]))
RUNS.append(("render_orbit_sectors_ppm",
             ["render", "--what", "orbit", "--size", "128", "--out", "orbit.ppm",
              "--set", "sectors"]))
# malformed flags: each exits 2 and writes nothing
RUNS += [
    ("chebyshev_bad_q", ["chebyshev", "--q", "a"]),
    ("chebyshev_bad_gamma_cf", ["chebyshev", "--q", "1", "--gamma-cf", "x"]),
    ("littlewood_monomials_bad_nmax", ["littlewood", "--family", "monomials",
                                       "--nmax", "-1"]),
    ("render_size_negative", ["render", "--what", "domain", "--size", "-5",
                              "--out", "x.ppm"]),
    ("render_size_zero", ["render", "--what", "domain", "--size", "0", "--out", "x.ppm"]),
    ("chebyshev_no_q", ["chebyshev", "--q", ","]),
    ("chebyshev_q_zero", ["chebyshev", "--q", "0"]),
    ("littlewood_nmax_11", ["littlewood", "--nmax", "11"]),
    # |mu|^700 passes 1e300: refused before the orbit is continued
    ("exceptional_kmax_700", ["exceptional", "--samples", "10", "--kmax", "700"]),
    ("preimages_kmax_700", ["preimages", "--lambda-gamma", "golden", "--w", "0.05,0.02",
                            "--r", "200", "--kmax", "700"]),
    ("render_orbit_kmax_700", ["render", "--what", "orbit", "--size", "32", "--kmax", "700",
                               "--out", "orbit.ppm"]),
]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "poincarelab" / "__init__.py").is_file():
        print(f"{src} does not hold the poincarelab package", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    for name, args in RUNS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "poincarelab", *args, "--out-dir", "."],
            cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        (run_dir / "stdout.txt").write_bytes(proc.stdout)
        (run_dir / "stderr.txt").write_bytes(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    print(f"{len(RUNS)} runs in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
