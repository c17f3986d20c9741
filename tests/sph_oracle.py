"""
Reference spherical harmonics from scipy.special.sph_harm_y, independent
of the package's own Legendre tables, and the Cartesian -> spherical-frame
vector conversion written from the frame formulas, independent of
divcurl.frames.

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


def cart_to_sph_vector(v_cart, theta, phi):
    """
    (..., 3) Cartesian components -> (v_r, v_theta, v_phi), the projections
    on rhat = (st cp, st sp, ct), thetahat = (ct cp, ct sp, -st) and
    phihat = (-sp, cp, 0); angles broadcast against the leading axes.
    """
    v = np.asarray(v_cart)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    return (vx * (st * cp) + vy * (st * sp) + vz * ct,
            vx * (ct * cp) + vy * (ct * sp) - vz * st,
            -vx * sp + vy * cp)
