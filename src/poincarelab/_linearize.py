"""Coefficient recursion shared by the Siegel, cycle and repelling-point
linearizers.

Every linearizer here conjugates a chain of quadratic steps: around the
points zeta_0, ..., zeta_{q-1} of a period-q cycle (q = 1 for a fixed
point), P(zeta_i + u) - zeta_{i+1} = s_i u + u**2 with s_i = P'(zeta_i),
and the return map is the composition of the q steps, with multiplier
m = s_0 ... s_{q-1}.  The linearizer g(z) = z + b2*z**2 + ... solves
F(g(z)) = g(m*z) for that composition F.  Following g along the chain,

    g_0 = g,   g_{i+1} = s_i g_i + g_i**2,   g_q(z) = g(m z),

the z**n coefficient of g_i is c_i b_n + R_i, with c_i = s_0 ... s_{i-1}
(coefficient 1 of g_i), R_0 = 0 and R_{i+1} = s_i R_i + [z^n] g_i**2: the
squares involve only coefficients 1 .. n-1, as each g_i has valuation 1.
So R_i is what the chain gives while b_n is 0, and g_q(z) = g(m z) gives

    b_n = R_q / (m**n - m).

For q = 1 this is the familiar b_n = (sum_{i+j=n} b_i b_j) / (m**n - m).
A cycle costs q quadratic steps per coefficient, never a composed
polynomial of degree 2**q.

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
def conjugacy_coeffs(slopes, N: int) -> np.ndarray:
    """Coefficients b[0..N] (b[0]=0, b[1]=1) of the linearizer of the chain
    of quadratic steps u -> s u + u**2, one per slope, in cycle order.

    Raises ResonantAngle when some divisor |m**n - m| < 1e-14 (n <= N),
    and OverflowSentinel if coefficients leave double range.
    """
    s = np.asarray(slopes, dtype=complex)
    # chain[i] holds the coefficients of g_i found so far; chain[0] is b
    chain = [np.zeros(max(N, 1) + 1, dtype=complex) for _ in range(s.size + 1)]
    b = chain[0]
    b[1] = 1.0
    for i in range(s.size):
        chain[i + 1][1] = s[i] * chain[i][1]  # c_{i+1}
    m = chain[-1][1]
    for n in range(2, N + 1):
        # b[n] is still 0, so coefficient n of each g_i comes out as R_i; in
        # the squares it meets only the zero constant terms
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
    return b[: N + 1]  # N < 1 asks for fewer than the two entries set above


def resubstitution_residuals(local: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative defect of each coefficient equation m^n b_n = [z^n] F(g(z)),
    for F given by its Taylor coefficients `local` (local[1] = m).

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
