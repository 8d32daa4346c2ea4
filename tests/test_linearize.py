import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poincarelab import QuadMap, RotationAngle
from poincarelab._linearize import (
    RESONANCE_EPS,
    conjugacy_coeffs,
    resubstitution_residuals,
)
from poincarelab.errors import OverflowSentinel, PoincareLabError, ResonantAngle
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


@np.errstate(over="ignore", invalid="ignore")
def convolve_coeffs(slopes, N):
    """The chain recursion with each square's coefficient read off a full
    np.convolve(g, g): the reference for conjugacy_coeffs' dot products."""
    s = np.asarray(slopes, dtype=complex)
    chain = [np.zeros(max(N, 1) + 1, dtype=complex) for _ in range(s.size + 1)]
    b = chain[0]
    b[1] = 1.0
    for i in range(s.size):
        chain[i + 1][1] = s[i] * chain[i][1]
    m = chain[-1][1]
    for n in range(2, N + 1):
        for i in range(s.size):
            g = chain[i][: n + 1]
            chain[i + 1][n] = s[i] * g[n] + np.convolve(g, g)[n]
        divisor = m**n - m
        if abs(divisor) < RESONANCE_EPS:
            raise ResonantAngle(
                f"divisor |m^{n} - m| = {abs(divisor):.3e} below resonance threshold"
            )
        b[n] = chain[-1][n] / divisor
        if not np.isfinite(b[n]):
            raise OverflowSentinel(f"linearizer coefficient b_{n} left double range")
        for g in chain[1:-1]:
            g[n] += g[1] * b[n]
    return b[: N + 1]


def assert_same_as_convolve(slopes, N):
    """conjugacy_coeffs(slopes, N), with np.convolve out of reach, has the
    bytes of the convolve recursion, or raises the same error with the same
    message (the same b_n)."""
    try:
        want = convolve_coeffs(slopes, N)
    except PoincareLabError as exc:
        want = exc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "convolve", None)
        if isinstance(want, PoincareLabError):
            with pytest.raises(type(want)) as got:
                conjugacy_coeffs(slopes, N)
            assert str(got.value) == str(want)
        else:
            assert conjugacy_coeffs(slopes, N).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(args=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       moduli=st.one_of(st.none(), st.lists(st.floats(1.0, 4.0, exclude_min=True),
                                            min_size=4, max_size=4)),
       N=st.integers(2, 300))
def test_dot_products_keep_the_convolve_bits(args, moduli, N):
    """One dot product per quadratic step gives the convolve recursion's
    bytes, for chains of rotations (small divisors) and of repelling
    steps, or raises where it raises."""
    slopes = [cmath.rect(1.0 if moduli is None else r, math.tau * a)
              for r, a in zip(moduli or [1.0] * 4, args)]
    assert_same_as_convolve(slopes, N)


@pytest.mark.parametrize("m", [LAM, 4.0], ids=["golden", "mu4"])
def test_long_recursions_keep_the_convolve_bits(m):
    """N = 1024: the golden chain overflows at b_643, mu = 4 runs to the
    end."""
    assert_same_as_convolve([m], 1024)


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
