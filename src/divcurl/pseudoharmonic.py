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

from .transform import (SpectralField, mode_index, spectral_curl,
                        spectral_div, spectral_grad)

__all__ = ["phf_field", "verify_pseudoharmonic", "harmonicity_check",
           "PseudoHarmonicReport"]


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
        c_2(r) = r^{-(l+1)} in mode (l, m), all other entries zero.
    """
    if l < 1:
        raise ValueError(f"family starts at l = 1, got l = {l}")
    if l > L_max:
        raise ValueError(f"l = {l} exceeds L_max = {L_max}")
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    out = SpectralField(radial, L_max)
    out.coeffs[mode_index(l, m), 2] = radial.r ** (-(l + 1.0))
    return out


PseudoHarmonicReport = namedtuple(
    "PseudoHarmonicReport", ["residual", "curl_norm", "degenerate"])


def verify_pseudoharmonic(S):
    """
    Measure how close a field is to satisfying curl(curl(S)) = 0.

    Returns
    -------
    PseudoHarmonicReport
        residual = ||curl(curl(S))|| / ||curl(S)||, curl_norm = ||curl(S)||,
        and degenerate = True when curl(S) is itself negligible next to S
        (the identity then holds vacuously and the residual is reported
        relative to ||S|| instead).
    """
    c = spectral_curl(S)
    cc = spectral_curl(c)
    curl_norm = c.norm()
    base = S.norm()
    if base == 0.0:
        return PseudoHarmonicReport(0.0, 0.0, True)
    if curl_norm <= 1e-8 * base:
        return PseudoHarmonicReport(cc.norm() / base, curl_norm, True)
    return PseudoHarmonicReport(cc.norm() / curl_norm, curl_norm, False)


def harmonicity_check(l, m, radial, L_max):
    """
    Residual of the vector Laplacian -grad(div) + curl(curl) on a family
    member, relative to the norm of its curl.

    The divergence channel is evaluated by spectral_div (identically zero
    for the family, which has no Y or Psi content) and the curl-curl
    channel by two spectral_curl passes, so the returned number measures
    how well the discrete operators reproduce the harmonicity of
    Phi_lm / r^(l+1).
    """
    S = phf_field(l, m, radial, L_max)
    lap = spectral_curl(spectral_curl(S))
    lap.coeffs -= spectral_grad(spectral_div(S)).coeffs
    return lap.norm() / spectral_curl(S).norm()
