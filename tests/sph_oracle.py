"""
Reference spherical harmonics from scipy.special.sph_harm_y, independent
of the package's own Legendre tables.

The conventions are the package's: fully normalized, Condon-Shortley phase
included, Y_l^{-m} = (-1)^m conj(Y_l^m).  The vector harmonics are
Y rhat, Psi = r grad Y = (dY/dtheta, dY/dphi / sin theta) and
Phi = rhat x Psi = (-Psi_phi, Psi_theta), returned as the components
(v_r, v_theta, v_phi) along (rhat, thetahat, phihat).  Angles must stay
off the poles, where Psi divides by sin(theta).
"""

import numpy as np
from scipy.special import sph_harm_y


def vector(kind, l, m, theta, phi):
    """(v_r, v_theta, v_phi) of the harmonic kind "Y", "Psi" or "Phi"."""
    y, grad = sph_harm_y(l, m, theta, phi, diff_n=1)     # grad: (..., 2)
    zero = np.zeros_like(y)
    if kind == "Y":
        return y, zero, zero
    psi_t, psi_p = grad[..., 0], grad[..., 1] / np.sin(theta)
    if kind == "Psi":
        return zero, psi_t, psi_p
    return zero, -psi_p, psi_t
