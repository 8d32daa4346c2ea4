import warnings

import numpy as np
import pytest

from poincarelab import QuadMap, RotationAngle
from poincarelab._linearize import conjugacy_coeffs, resubstitution_residuals
from poincarelab.errors import OverflowSentinel
from poincarelab.poincare import build_poincare_map
from poincarelab.siegel import build_siegel_map

LAM = RotationAngle.golden().lam


@pytest.mark.parametrize("m, N", [
    (LAM, 64), (LAM, 256), (LAM, 512),  # Siegel: |m| = 1, small divisors
    (4.0, 64), (2.0 - LAM, 64), (3.0 + 1.0j, 64),  # repelling multipliers
])
def test_resubstitution_residuals(m, N):
    """The recursion's coefficients solve every coefficient equation to
    roundoff, and a 1e-6 relative error in one of them shows up."""
    local = np.array([0.0, m, 1.0], dtype=complex)
    b = conjugacy_coeffs(local, N)
    assert np.max(resubstitution_residuals(local, b)) <= 1e-13
    bad = b.copy()
    bad[2] *= 1.0 + 1e-6
    assert np.max(resubstitution_residuals(local, bad)) > 1e-7


@pytest.mark.parametrize("build, first_bad", [
    (lambda: build_poincare_map(QuadMap.c_form(-1.5 + 0.3j), N=1024), "b_548"),
    (lambda: build_siegel_map(RotationAngle.golden(), N=1024), "b_643"),
], ids=["poincare", "siegel"])
def test_overflow_raises_without_warnings(build, first_bad):
    """Coefficients that leave double range raise OverflowSentinel, and
    numpy warns of nothing first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSentinel, match=first_bad):
            build()
