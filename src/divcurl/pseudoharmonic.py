"""
The pseudo-harmonic family Phi_lm / r^(l+1) and its defining identities.

Each member is the purely tangential field with Phi-channel profile
c_2(r) = r^{-(l+1)} in a single mode.  Three facts make the family useful
as a test bench for the exterior solver:

  * curl(curl(member)) = 0 while curl(member) != 0 -- the fields are
    pseudo-harmonic without being curl-free,
  * they are divergence-free and harmonic (-grad div + curl curl
    annihilates them), and
  * solvability of the exterior problem is equivalent to the data being
    orthogonal to every member.  The inner product of f with the member
    of mode (l, m) is l(l+1) times the radial moment integral of
    s^(1-l) f_2, which `solver.radial_moments` computes.
"""

from collections import namedtuple

import numpy as np

from .solver import _L1, _moment_targets, _vinf, radial_moments
from .transform import SpectralField, mode_index, spectral_curl

__all__ = ["phf_field", "verify_pseudoharmonic", "PseudoHarmonicReport", "curl_curl_source",
           "matched_flow_source", "two_bump_source"]


def phf_field(l, m, radial, L_max):
    """
    The family member Phi_lm / r^(l+1) as a SpectralField.

    Parameters
    ----------
    l, m: int
        mode index with 1 <= l <= L_max and |m| <= l
    radial: RadialGrid
    L_max: int
        band limit of the returned field

    Returns
    -------
    SpectralField
        c_2(r) = r^{-(l+1)} in mode (l, m), all other entries zero; ValueError
        if that is not a positive normal float at every node.
    """
    if l < 1:
        raise ValueError(f"family starts at l = 1, got l = {l}")
    if l > L_max:
        raise ValueError(f"l = {l} exceeds L_max = {L_max}")
    with np.errstate(over="ignore", under="ignore"):
        prof = radial.r ** (-(l + 1.0))
    if not np.all((prof >= np.finfo(float).tiny) & (prof < np.inf)):
        raise ValueError(f"r^-(l+1) at l = {l} is not a normal float on {radial!r}")
    out = SpectralField(radial, L_max)
    out.coeffs[mode_index(l, m), 2] = prof
    return out


PseudoHarmonicReport = namedtuple(
    "PseudoHarmonicReport", ["residual", "curl_norm", "degenerate"])


def verify_pseudoharmonic(S):
    """
    Measure how close a field is to satisfying curl(curl(S)) = 0.

    Returns
    -------
    PseudoHarmonicReport
        residual = h ||curl(curl(S))|| / ||curl(S)||, unit-free with h = rmax - r0,
        curl_norm = ||curl(S)||, and degenerate = True when h ||curl(S)|| is itself
        negligible next to ||S|| (the identity then holds vacuously and the
        residual is h^2 ||curl(curl(S))|| / ||S|| instead).
    """
    c = spectral_curl(S)
    cc = spectral_curl(c)
    curl_norm = c.norm()
    base = S.norm()
    h = S.radial.rmax - S.radial.r0
    if base == 0.0:
        return PseudoHarmonicReport(0.0, 0.0, True)
    if curl_norm * h <= 1e-8 * base:
        return PseudoHarmonicReport(cc.norm() / base * h ** 2, curl_norm, True)
    return PseudoHarmonicReport(cc.norm() / curl_norm * h, curl_norm, False)


def curl_curl_source(radial, L_max, rng, decay=1 / 3):
    """
    A compatible source f = curl(curl A) and its exact solution, as (f, curl A).
    A has random complex profiles per mode and channel, scaled by decay^l, on
    ((x - 2)(4 - x))^3, x = r / r0: f is orthogonal to every member, to
    rounding when 2 r0 and 4 r0 are breakpoints.  From L = 48 that holds
    only to about 1e-9 on 16 nodes per panel; use 32.
    """
    x = radial.r / radial.r0
    bump = np.clip((x - 2.0) * (4.0 - x), 0.0, None) ** 3
    A = SpectralField(radial, L_max)
    z = rng.standard_normal((A.n_modes, 3)) + 1j * rng.standard_normal((A.n_modes, 3))
    A.coeffs[:] = (decay ** A.ells[:, None] * z)[:, :, None] * bump
    A.coeffs[0, 1:] = 0.0
    return spectral_curl(V := spectral_curl(A)), V


def matched_flow_source(radial, L_max, far):
    """
    The uniform-flow source: l = 1 Phi profiles of cubic bumps on [2 r0, 3 r0] and [3 r0, 4 r0]
    whose moments meet the solver's targets for the flow `far` and whose s^3 integrals vanish,
    so the solution sticks to the wall and is `far` beyond 4 r0.
    """
    if L_max < 1:
        raise ValueError("need L_max >= 1 to hold an l = 1 field")
    r, x = radial.r, radial.r / radial.r0
    g1, g2 = (np.clip((x - a) * (a + 1.0 - x), 0.0, None) ** 3 for a in (2.0, 3.0))
    if not (g1.any() and g2.any()):
        raise ValueError(f"a bump on [2, 3] or [3, 4] r0 holds no node of {radial!r}")
    mat = [[radial.integrate(w * g) for g in (g1, g2)] for w in (1.0, r ** 3)]
    a, b = np.linalg.solve(mat, [_moment_targets(4, _vinf(far))[_L1], np.zeros(3)])
    f = SpectralField(radial, L_max)
    f.coeffs[_L1, 2] = a[:, None] * g1 + b[:, None] * g2
    return f


def two_bump_source(radial, L_max, a, mid, b, rng):
    """
    Real Phi-channel source f2 = c (g1 + beta_l g2) per degree: cubic bumps on [a, mid] and
    [mid, b] in r / r0 zero the moment of s^(1-l) f2 but not of s^(2+l) f2; c ~ (1/3)^l from rng.
    """
    x = radial.r / radial.r0
    g1, g2 = (np.clip((x - lo) * (hi - x), 0.0, None) ** 3 for lo, hi in ((a, mid), (mid, b)))
    if not (g1.any() and g2.any()):
        raise ValueError(f"a bump on [{a}, {mid}] or [{mid}, {b}] r0 holds no node of {radial!r}")
    f = SpectralField(radial, L_max)
    for l in range(1, L_max + 1):
        with np.errstate(all="ignore"):
            den, num = (radial_moments(radial, g[None], [l])[0] for g in (g2, g1))
            beta = -num / den
        if not (np.finfo(float).tiny <= den < np.inf and np.isfinite(beta)):
            raise ValueError(f"the bump moments at l = {l} are not representable on {radial!r}")
        prof, size = g1 + beta * g2, (1.0 / 3.0) ** l
        for m in range(l + 1):
            c = (rng.standard_normal() + (1j * rng.standard_normal() if m else 0.0)) * size
            f.coeffs[mode_index(l, m), 2] = c * prof
            f.coeffs[mode_index(l, -m), 2] = (-1) ** m * np.conj(c) * prof
    return f
