"""
Associated Legendre functions and scalar/vector spherical harmonics.

Conventions
-----------
Fully normalized complex spherical harmonics with the Condon-Shortley
phase included in P_l^m:

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi}

so that the surface integral of |Y_l^m|^2 over the unit sphere is 1.
Negative orders follow Y_l^{-m} = (-1)^m conj(Y_l^m).

The vector harmonics are the triple

    Y_lm  = Y_l^m rhat          (radial)
    Psi_lm = r grad Y_l^m       (tangential)
    Phi_lm = r x grad Y_l^m     (tangential)

with surface norms 1, l(l+1), l(l+1) and vanishing cross products.

Everything is evaluated by one stable upward recurrence in l on the
normalized functions, taken for all orders m at once; the tangential
components are built from P_l^m(cos theta)/sin(theta), which is recursed
directly (the same recurrence from a different sectorial seed) so the
poles theta = 0, pi never involve a division by sin(theta).
"""

import math

import numpy as np

LMAX_SUPPORTED = 64

__all__ = [
    "assoc_legendre",
    "scalar_Y",
    "vsh_eval",
    "pbar",
    "pbar_table",
    "qbar_table",
    "dpbar_table",
]


def _check_degree_order(l, m):
    if l < 0 or int(l) != l:
        raise ValueError(f"degree l must be a non-negative integer, got {l}")
    if int(m) != m:
        raise ValueError(f"order m must be an integer, got {m}")
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    if l > LMAX_SUPPORTED:
        raise ValueError(f"degree l={l} exceeds supported maximum {LMAX_SUPPORTED}")


############################################
# Normalized Legendre recurrences


def _upward(T, x, m0):
    """
    Fill T[l, m] for m0 <= m <= l from the seed T[m0, m0] (in place).

    The sectorial band T[m, m] follows from the seed by
    T[m, m] = -sqrt((2m+1)/(2m)) sin(theta) T[m-1, m-1], the first step up by
    T[m+1, m] = sqrt(2m+3) x T[m, m], and the rest by the three-term
    recurrence in l, taken for all orders m <= l - 2 at once.
    """
    L = T.shape[0] - 1
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    for m in range(m0 + 1, L + 1):
        T[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * T[m - 1, m - 1]
    m = np.arange(m0, L)
    T[m + 1, m] = np.sqrt(2.0 * m + 3.0)[:, None] * x * T[m, m]
    for l in range(m0 + 2, L + 1):
        m = np.arange(m0, l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        T[l, m0:l - 1] = a * (x * T[l - 1, m0:l - 1] - b * T[l - 2, m0:l - 1])
    return T


def pbar_table(L, x):
    """
    Table of normalized associated Legendre functions Pbar_l^m(x).

    Pbar is normalized so that Y_l^m = Pbar_l^m(cos theta) e^{i m phi};
    the Condon-Shortley phase is included.

    Parameters
    ----------
    L: int
        maximum degree
    x: array
        evaluation points in [-1, 1]

    Returns
    -------
    P: array of shape (L+1, L+1, len(x))
        P[l, m] holds Pbar_l^m(x) for 0 <= m <= l; entries with m > l are 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.zeros((L + 1, L + 1, x.size))
    P[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    return _upward(P, x, 0)


def qbar_table(L, x):
    """
    Table of Qbar_l^m = Pbar_l^m(cos theta)/sin(theta) for m >= 1.

    The quotient obeys the same l-recurrence as Pbar with the sectorial
    seed divided by one power of sin(theta), so it stays finite at the
    poles (where it vanishes for m >= 2 and is nonzero for m = 1).
    Entries with m = 0 or m > l are 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    Q = np.zeros((L + 1, L + 1, x.size))
    if L == 0:
        return Q
    Q[1, 1] = -np.sqrt(3.0 / (8.0 * np.pi))
    return _upward(Q, x, 1)


def dpbar_table(L, x, P=None, Q=None):
    """
    Table of d Pbar_l^m(cos theta) / d theta.

    Uses d/dtheta Pbar_l^m = l x Qbar_l^m - sqrt((2l+1)(l^2-m^2)/(2l-1)) Qbar_{l-1}^m
    for m >= 1 and d/dtheta Pbar_l^0 = sqrt(l(l+1)) Pbar_l^1, both pole-safe.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if P is None:
        P = pbar_table(L, x)
    if Q is None:
        Q = qbar_table(L, x)
    S = np.zeros_like(P)
    for l in range(1, L + 1):
        S[l, 0] = np.sqrt(l * (l + 1.0)) * P[l, 1]
        S[l, 1:l + 1] = l * x * Q[l, 1:l + 1]
        m = np.arange(1, l)
        c = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
        S[l, 1:l] -= c[:, None] * Q[l - 1, 1:l]
    return S


def pbar(l, m, x):
    """Normalized Pbar_l^m(x) for a single (l, m), m >= 0."""
    out = pbar_table(l, x)[l, m]
    return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))


############################################
# Public pointwise evaluators


def assoc_legendre(l, m, x):
    """
    Associated Legendre function P_l^m(x) with the Condon-Shortley phase.

    Parameters
    ----------
    l: int
        degree, l >= 0
    m: int
        order, 0 <= m <= l
    x: float or array
        argument in [-1, 1]

    Returns
    -------
    float or array
        P_l^m at x, computed from the normalized recurrence with the
        normalization removed in log space (stable for large l).
    """
    _check_degree_order(l, m)
    if m < 0:
        raise ValueError("assoc_legendre expects m >= 0; use scalar_Y for negative orders")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xa) > 1.0 + 1e-14):
        raise ValueError("argument x must lie in [-1, 1]")
    xa = np.clip(xa, -1.0, 1.0)
    # Pbar = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) * P
    lognorm = 0.5 * (math.log((2.0 * l + 1.0) / (4.0 * math.pi))
                     + math.lgamma(l - m + 1.0) - math.lgamma(l + m + 1.0))
    out = pbar(l, m, xa) * np.exp(-lognorm)
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out.reshape(np.shape(x))


def scalar_Y(l, m, theta, phi):
    """
    Fully normalized complex spherical harmonic Y_l^m(theta, phi).

    Negative m is computed from positive m via Y_l^{-m} = (-1)^m conj(Y_l^m).

    Parameters
    ----------
    l, m: int
        degree and order, |m| <= l
    theta: float or array
        colatitude in radians
    phi: float or array
        longitude in radians

    Returns
    -------
    complex or array
    """
    _check_degree_order(l, m)
    if m < 0:
        val = scalar_Y(l, -m, theta, phi)
        return (-1.0 if m % 2 else 1.0) * np.conj(val)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    th, ph = np.broadcast_arrays(th, ph)
    out = pbar(l, m, np.cos(th.ravel())) * np.exp(1j * m * ph.ravel())
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return out[0]
    return out.reshape(th.shape)


def vsh_eval(kind, l, m, theta, phi):
    """
    Evaluate one vector spherical harmonic in the spherical frame.

    Parameters
    ----------
    kind: str
        "Y" (radial Y_l^m rhat), "Psi" (r grad Y_l^m) or "Phi" (r x grad Y_l^m)
    l, m: int
        degree and order, |m| <= l
    theta, phi: float or array
        colatitude and longitude in radians

    Returns
    -------
    (v_r, v_theta, v_phi): complex or arrays
        components along (rhat, thetahat, phihat).  Psi and Phi are purely
        tangential (v_r identically 0); the theta = 0, pi poles are handled
        through the recursed P/sin(theta) quotient, never by division.
    """
    _check_degree_order(l, m)
    kind = {"y": "Y", "psi": "Psi", "phi": "Phi"}.get(str(kind).lower())
    if kind is None:
        raise ValueError("kind must be 'Y', 'Psi' or 'Phi'")
    if m < 0:
        vr, vt, vp = vsh_eval(kind, l, -m, theta, phi)
        sgn = -1.0 if m % 2 else 1.0
        return sgn * np.conj(vr), sgn * np.conj(vt), sgn * np.conj(vp)

    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    th, ph = np.broadcast_arrays(th, ph)
    shape = th.shape
    x = np.cos(th.ravel())
    e = np.exp(1j * m * ph.ravel())

    zero = np.zeros(x.size, dtype=complex)
    if kind == "Y":
        vr, vt, vp = pbar(l, m, x) * e, zero, zero
    else:
        P = pbar_table(l, x)
        Q = qbar_table(l, x)
        S = dpbar_table(l, x, P, Q)[l, m]
        mq = m * Q[l, m] if m >= 1 else np.zeros(x.size)
        if kind == "Psi":
            # Psi = dY/dtheta thetahat + (i m Y / sin theta) phihat
            vr, vt, vp = zero, S * e, 1j * mq * e
        else:
            # Phi = -(i m Y / sin theta) thetahat + dY/dtheta phihat
            vr, vt, vp = zero, -1j * mq * e, S * e

    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return vr[0], vt[0], vp[0]
    return vr.reshape(shape), vt.reshape(shape), vp.reshape(shape)
