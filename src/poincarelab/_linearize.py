"""Coefficient recursion shared by the Siegel and repelling-point linearizers.

Both solve the same formal problem: given a map with local expansion
F(u) = m*u + f2*u**2 + ... (no constant term) around a fixed point, find
g(z) = z + b2*z**2 + ... with  F(g(z)) = g(m*z).  Matching the z**n
coefficient gives

    b_n = [z^n] sum_{k>=2} f_k * g(z)**k  /  (m**n - m),

where the numerator only involves b_1 .. b_{n-1} because g has valuation 1.
For a quadratic map (f2 = 1, nothing higher) this is the familiar
b_n = (sum_{i+j=n} b_i b_j) / (m**n - m).

The divisors m**n - m are the whole story: bounded away from zero for a
repelling multiplier |m| > 1, and arbitrarily small for rotation numbers
close to rationals (|m**n - m| = 2|sin(pi (n-1) gamma)| on the unit circle).
"""

from __future__ import annotations

import numpy as np

from .errors import OverflowSentinel, ResonantAngle

RESONANCE_EPS = 1e-14


# overflow raises OverflowSentinel below; numpy's warnings would add nothing
@np.errstate(over="ignore", invalid="ignore")
def conjugacy_coeffs(local: np.ndarray, N: int) -> np.ndarray:
    """Coefficients b[0..N] (b[0]=0, b[1]=1) of the linearizer for `local`.

    `local` holds the Taylor coefficients of F at the fixed point in the
    shifted variable: local[0] must be 0, local[1] is the multiplier m.
    Raises ResonantAngle when some divisor |m**n - m| < 1e-14 (n <= N),
    and OverflowSentinel if coefficients leave double range.
    """
    local = np.asarray(local, dtype=complex)
    if abs(local[0]) != 0.0:
        raise ValueError("local expansion must have zero constant term")
    m = local[1]
    b = np.zeros(N + 1, dtype=complex)
    if N >= 1:
        b[1] = 1.0
    deg = len(local) - 1
    for n in range(2, N + 1):
        divisor = m**n - m
        if abs(divisor) < RESONANCE_EPS:
            raise ResonantAngle(
                f"divisor |m^{n} - m| = {abs(divisor):.3e} below resonance threshold"
            )
        head = b[: n + 1]  # b[n] still zero, harmless in the convolutions
        acc = head
        s = 0.0 + 0.0j
        for k in range(2, deg + 1):
            acc = np.convolve(acc, head)[: n + 1]
            if local[k] != 0:
                s += local[k] * acc[n]
        b[n] = s / divisor
        if not np.isfinite(b[n]):
            raise OverflowSentinel(f"linearizer coefficient b_{n} left double range")
    return b


def resubstitution_residuals(local: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative defect of each coefficient equation m^n b_n = [z^n] F(g(z)).

    Used by tests to confirm the recursion was solved, not just filled in.
    """
    local = np.asarray(local, dtype=complex)
    b = np.asarray(b, dtype=complex)
    N = len(b) - 1
    m = local[1]
    # F(g(z)) truncated to degree N via Horner in truncated arithmetic
    comp = np.zeros(N + 1, dtype=complex)
    comp[0] = local[-1]
    for k in range(len(local) - 2, -1, -1):
        comp = np.convolve(comp, b)[: N + 1]
        comp[0] += local[k]
    out = np.zeros(N + 1)
    for n in range(2, N + 1):
        lhs = m**n * b[n]
        out[n] = abs(lhs - comp[n]) / (1.0 + abs(lhs))
    return out
