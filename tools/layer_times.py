"""Time the layers of the survey set-up, one call at a time, in process.

Usage:

    python tools/layer_times.py SRC_DIR [--reps R]

SRC_DIR is the directory that holds the `poincarelab` package (the repo's
`src`).  Each layer is called R times (default 15) after one untimed
warm-up call, and the script prints one JSON object that maps each layer
to the median of its wall times in seconds:

    conjugacy_coeffs.golden_256    the golden Siegel recursion, N = 256
    conjugacy_coeffs.mu4_1024      the recursion of z^2 - 2 at z0 = 2, N = 1024
    _safe_radius.257               the series certificate of the golden
                                   Siegel coefficients, 257 of them
    conditioning_radius            the golden Poincare series, N = 64
    build_poincare_map             the golden map, N = 64
    build_siegel_map               the golden angle, N = 256
    find_base_preimage             on the two golden maps above

To compare two trees, run the script on each in turn, alternating, several
rounds each, and compare the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time


def _median_time(call, reps: int) -> float:
    call()
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_dir")
    ap.add_argument("--reps", type=int, default=15)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src_dir)
    from poincarelab import QuadMap, RotationAngle, series
    from poincarelab import poincare, preimage, siegel
    from poincarelab._linearize import conjugacy_coeffs

    angle = RotationAngle.golden()
    qmap = QuadMap.lambda_form(angle.lam)
    pm = poincare.build_poincare_map(qmap, N=64)
    sm = siegel.build_siegel_map(angle, N=256)
    h_coeffs = conjugacy_coeffs([angle.lam], 256)
    scale = 1.0 + abs(pm.z0)
    layers = {
        "conjugacy_coeffs.golden_256": lambda: conjugacy_coeffs([angle.lam], 256),
        "conjugacy_coeffs.mu4_1024": lambda: conjugacy_coeffs([4.0], 1024),
        "_safe_radius.257": lambda: series._safe_radius(h_coeffs, series.TAIL_EPS),
        "conditioning_radius": lambda: poincare.conditioning_radius(pm.series_f, scale),
        "build_poincare_map": lambda: poincare.build_poincare_map(qmap, N=64),
        "build_siegel_map": lambda: siegel.build_siegel_map(angle, N=256),
        "find_base_preimage": lambda: preimage.find_base_preimage(pm, sm),
    }
    print(json.dumps({name: _median_time(call, args.reps) for name, call in layers.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
