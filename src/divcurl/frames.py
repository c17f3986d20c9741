"""
Conversions between the spherical frame (rhat, thetahat, phihat) and
Cartesian components, plus point coordinate helpers.

The frame vectors are

    rhat     = (sin t cos p, sin t sin p, cos t)
    thetahat = (cos t cos p, cos t sin p, -sin t)
    phihat   = (-sin p, cos p, 0)
"""

import numpy as np

__all__ = [
    "spherical_frame",
    "sph_to_cart_vector",
    "sph_to_cart_points",
    "cart_to_sph_points",
]


def spherical_frame(theta, phi):
    """Return (rhat, thetahat, phihat) as (..., 3) arrays for given angles."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    rhat = np.stack([st * cp, st * sp, ct], axis=-1)
    thetahat = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phihat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return rhat, thetahat, phihat


def sph_to_cart_vector(v_r, v_t, v_p, theta, phi):
    """
    Convert spherical-frame vector components to Cartesian.

    Components may be complex; angles broadcast against them.
    Returns an (..., 3) array.
    """
    rhat, thetahat, phihat = spherical_frame(theta, phi)
    return (np.asarray(v_r)[..., None] * rhat
            + np.asarray(v_t)[..., None] * thetahat
            + np.asarray(v_p)[..., None] * phihat)


def sph_to_cart_points(r, theta, phi):
    """Spherical coordinates -> Cartesian points as an (..., 3) array."""
    st = np.sin(theta)
    return np.stack([r * st * np.cos(phi), r * st * np.sin(phi),
                     r * np.cos(theta)], axis=-1)


def as_points(pts):
    """pts as an (N, 3) float array; a single (3,) point gives one row."""
    pts = np.atleast_2d(pts)
    if np.iscomplexobj(pts):            # a cast would drop the imaginary parts
        raise ValueError(f"pts must be (N, 3), got a complex {pts.shape} array")
    pts = pts.astype(float, copy=False)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"pts must be (N, 3), got {pts.shape}")
    return pts


def finite_points(pts):
    """as_points(pts), refusing NaN or infinite coordinates with ValueError."""
    if not np.isfinite(pts := as_points(pts)).all():
        raise ValueError("evaluation points must be finite")
    return pts


def cart_to_sph_points(pts):
    """Cartesian (..., 3) points -> (r, theta, phi) with theta in [0, pi]."""
    if np.iscomplexobj(pts := np.asarray(pts)):     # as as_points refuses them
        raise ValueError(f"pts must be real, got a complex {pts.shape} array")
    pts = pts.astype(float, copy=False)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    theta = np.arctan2(np.hypot(x, y), z)
    phi = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    return r, theta, phi
