"""
Solver fixtures and the memory probe shared by the test modules.

`two_bump_source` mixes two radial bumps per degree so that every moment
of s^(1-l) f2 vanishes: the solver must accept it.  Its supports lie on
breakpoints of the grids the tests build, as `support_grids` places
them, so the panel interpolants carry no kink.  The other compatible
sources live in the library: `pseudoharmonic.curl_curl_source`,
`pseudoharmonic.matched_flow_profile` and `planar.laplacian_ridge`.
"""

import tracemalloc

import numpy as np

from divcurl.grids import make_grids
from divcurl.transform import SpectralField, mode_index

SQRT_4PI_3 = 2.046653415892977      # coefficient of z_hat on the (1, 0) mode


def support_grids(L, n_r=64):
    """Grids on [1, 5] with a breakpoint at every integer radius."""
    return make_grids(1.0, 5.0, n_r, L, breakpoints=[1, 2, 3, 4, 5])


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


def traced_peak(fn):
    """fn()'s result and the peak bytes it allocated above what it found held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
