import numpy as np
import pytest

from poincarelab import RotationAngle
from poincarelab._linearize import conjugacy_coeffs, resubstitution_residuals

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
