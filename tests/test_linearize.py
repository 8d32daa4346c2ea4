import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poincarelab import QuadMap, RotationAngle
from poincarelab._linearize import conjugacy_coeffs, resubstitution_residuals
from poincarelab.errors import OverflowSentinel
from poincarelab.poincare import build_poincare_map
from poincarelab.siegel import build_siegel_map

LAM = RotationAngle.golden().lam


def composed_steps(slopes):
    """Reference for the chain: Taylor coefficients of the composition of
    the steps u -> s u + u**2, one per slope in order, as one polynomial of
    degree 2**len(slopes)."""
    p = np.array([0.0, 1.0], dtype=complex)
    for s in slopes:
        sq = np.convolve(p, p)
        sq[: p.size] += s * p
        p = sq
    return p


@pytest.mark.parametrize("m, N", [
    (LAM, 64), (LAM, 256), (LAM, 512),  # Siegel: |m| = 1, small divisors
    (4.0, 64), (2.0 - LAM, 64), (3.0 + 1.0j, 64),  # repelling multipliers
])
def test_resubstitution_residuals(m, N):
    """The recursion's coefficients solve every coefficient equation to
    roundoff, and a 1e-6 relative error in one of them shows up."""
    local = np.array([0.0, m, 1.0], dtype=complex)
    b = conjugacy_coeffs([m], N)
    assert np.max(resubstitution_residuals(local, b)) <= 1e-13
    bad = b.copy()
    bad[2] *= 1.0 + 1e-6
    assert np.max(resubstitution_residuals(local, bad)) > 1e-7


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(moduli=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4),
       args=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4))
def test_chain_solves_composed_equations(moduli, args):
    """For random slopes with a repelling product m, the chain's
    coefficients solve the coefficient equations of the composed polynomial
    (degree 2^q, q <= 4) to roundoff."""
    slopes = [cmath.rect(r, a) for r, a in zip(moduli, args)]
    assume(abs(math.prod(slopes)) >= 1.5)
    b = conjugacy_coeffs(slopes, 64)
    assert np.max(resubstitution_residuals(composed_steps(slopes), b)) <= 1e-12


def test_chain_of_one_step_is_the_quadratic_recursion():
    """One slope gives b_n = (sum_{i+j=n} b_i b_j) / (m^n - m), bit for bit."""
    m = 3.0 + 1.0j
    b = conjugacy_coeffs([m], 40)
    want = np.zeros(41, dtype=complex)
    want[1] = 1.0
    for n in range(2, 41):
        want[n] = np.convolve(want[: n + 1], want[: n + 1])[n] / (np.complex128(m) ** n - m)
    assert np.array_equal(b, want)
    assert np.array_equal(composed_steps([m]), [0.0, m, 1.0])


@pytest.mark.parametrize("N", [-1, 0, 1])
def test_short_chains_keep_their_length(N):
    """N < 2 solves nothing and returns the N + 1 leading coefficients, so a
    too-short series fails later with its own error (the radius estimate's
    BadParams in `chebyshev --terms 0`), not with an IndexError here."""
    b = conjugacy_coeffs([LAM, 2.0], N)
    assert b.tolist() == [0j, 1 + 0j][: N + 1]


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
