"""
Solver and planar fixtures and the memory probe shared by the test modules.

The sources are compatible by construction, so the solver must accept
them: `manufactured` is f = curl curl A with the exact solution curl A,
and `two_bump_source` mixes two radial bumps per degree so that every
moment of s^(1-l) f2 vanishes.  `matched_flow_profile` instead meets a
chosen moment, as a uniform flow at infinity asks, and `ridge` is the
compact radial profile of the planar Laplacian sources.  Their supports
lie on breakpoints of the grids the tests build, so the panel
interpolants carry no kink.
"""

import tracemalloc

import numpy as np

from divcurl.grids import make_grids
from divcurl.transform import SpectralField, mode_index, spectral_curl

SQRT_4PI_3 = 2.046653415892977      # coefficient of z_hat on the (1, 0) mode


def support_grids(L, n_r=64):
    """Grids on [1, 5] with a breakpoint at every integer radius."""
    return make_grids(1.0, 5.0, n_r, L, breakpoints=[1, 2, 3, 4, 5])


def manufactured(rad, L, rng, decay=1 / 3):
    """
    Source f = curl(curl A) and its exact solution curl A.

    A has a random complex profile per mode and channel, scaled by
    decay^l, on the bump ((x - 2)(4 - x))^3 of x = r / r0, supported in
    [2 r0, 4 r0].
    """
    x = rad.r / rad.r0
    bump = np.clip((x - 2.0) * (4.0 - x), 0.0, None) ** 3
    A = SpectralField(rad, L)
    amp = decay ** A.ells
    scal = amp[:, None] * (rng.standard_normal((A.n_modes, 3))
                           + 1j * rng.standard_normal((A.n_modes, 3)))
    A.coeffs[:] = scal[:, :, None] * bump[None, None, :]
    A.coeffs[0, 1:] = 0.0
    V = spectral_curl(A)
    return spectral_curl(V), V


def two_bump_source(rad, L, a, mid, b, seed):
    """
    Real compatible source living in the Phi channels only.

    Each mode carries f2 = c (g1 + beta_l g2), with cubic bumps g1 on
    [a, mid] and g2 on [mid, b] mixed so the solvability moment of
    s^(1-l) f2 vanishes, while the exterior multipole integral of
    s^(2+l) f2 stays generically nonzero -- so the solution is visible
    beyond the support.  c is random with size (1/3)^l.
    """
    rng = np.random.default_rng(seed)
    r = rad.r
    g1 = np.clip((r - a) * (mid - r), 0.0, None) ** 3
    g2 = np.clip((r - mid) * (b - r), 0.0, None) ** 3
    f = SpectralField(rad, L)
    for l in range(1, L + 1):
        beta = -rad.integrate(r ** (1.0 - l) * g1) / rad.integrate(r ** (1.0 - l) * g2)
        prof = g1 + beta * g2
        for m in range(l + 1):
            c = rng.standard_normal() + (1j * rng.standard_normal() if m else 0.0)
            c = c * (1.0 / 3.0) ** l
            f.coeffs[mode_index(l, m), 2] = c * prof
            f.coeffs[mode_index(l, -m), 2] = (-1) ** m * np.conj(c) * prof
    return f


def matched_flow_profile(rad, target):
    """
    Radial profile a g1 + b g2 of cubic bumps on [2, 3] and [3, 4] whose
    s^0 moment is target and whose s^3 integral vanishes.
    """
    r = rad.r
    g1 = np.clip((r - 2.0) * (3.0 - r), 0.0, None) ** 3
    g2 = np.clip((r - 3.0) * (4.0 - r), 0.0, None) ** 3
    mat = np.array([[rad.integrate(g1), rad.integrate(g2)],
                    [rad.integrate(r ** 3 * g1), rad.integrate(r ** 3 * g2)]])
    ab = np.linalg.solve(mat, [target, 0.0])
    return ab[0] * g1 + ab[1] * g2


def ridge(rho, lo, hi):
    """C^3 compact profile (4 u (1-u))^4 on [lo, hi] with derivatives."""
    width = hi - lo
    inside = (rho > lo) & (rho < hi)
    u = (rho[inside] - lo) / width
    s = 4.0 * u * (1.0 - u)
    ds = 4.0 * (1.0 - 2.0 * u) / width
    d2s = -8.0 / width ** 2
    p = np.zeros_like(rho)
    dp = np.zeros_like(rho)
    d2p = np.zeros_like(rho)
    p[inside] = s ** 4
    dp[inside] = 4.0 * s ** 3 * ds
    d2p[inside] = 12.0 * s ** 2 * ds ** 2 + 4.0 * s ** 3 * d2s
    return p, dp, d2p


def traced_peak(fn):
    """fn()'s result and the peak bytes it allocated above what it found held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
