"""
Normalized associated Legendre tables, the one harmonic code path of the
transforms.

Conventions
-----------
Fully normalized complex spherical harmonics with the Condon-Shortley
phase included in P_l^m:

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi}
                      = Pbar_l^m(cos theta) e^{i m phi},

so that the surface integral of |Y_l^m|^2 over the unit sphere is 1.
Negative orders follow Y_l^{-m} = (-1)^m conj(Y_l^m).  The vector harmonics
Y_lm = Y rhat, Psi_lm = r grad Y and Phi_lm = rhat x Psi_lm are assembled
from three tables, Pbar, Qbar = Pbar / sin(theta) and d Pbar / d theta, by
`transform._mode_tables`.

Pbar and Qbar come from one stable upward recurrence in l, taken for all
orders m at once; Qbar is recursed directly (the same recurrence from a
different sectorial seed) and d Pbar / d theta is combined from Pbar and
Qbar, so the poles theta = 0, pi never involve a division by sin(theta).
"""

import numpy as np

__all__ = ["pbar_table", "qbar_table", "dpbar_table"]


############################################
# Normalized Legendre recurrences


def _upward(L, x, m0, seed):
    """
    Allocate the (L+1, L+1, len(x)) table T, seed T[m0, m0] = seed and fill T[l, m], m0 <= m <= l.

    The sectorial band T[m, m] follows from the seed by
    T[m, m] = -sqrt((2m+1)/(2m)) sin(theta) T[m-1, m-1], the first step up by
    T[m+1, m] = sqrt(2m+3) x T[m, m], and the rest by the three-term
    recurrence in l, taken for all orders m <= l - 2 at once.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T = np.zeros((L + 1, L + 1, x.size))
    if L < m0:
        return T
    T[m0, m0] = seed
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
    return _upward(L, x, 0, np.sqrt(1.0 / (4.0 * np.pi)))


def qbar_table(L, x):
    """
    Table of Qbar_l^m = Pbar_l^m(cos theta)/sin(theta) for m >= 1.

    The quotient obeys the same l-recurrence as Pbar with the sectorial
    seed divided by one power of sin(theta), so it stays finite at the
    poles (where it vanishes for m >= 2 and is nonzero for m = 1).
    Entries with m = 0 or m > l are 0.
    """
    return _upward(L, x, 1, -np.sqrt(3.0 / (8.0 * np.pi)))


def dpbar_table(L, x, P, Q):
    """
    Table of d Pbar_l^m(cos theta) / d theta from P = pbar_table(L, x)
    and Q = qbar_table(L, x).

    Uses d/dtheta Pbar_l^m = l x Qbar_l^m - sqrt((2l+1)(l^2-m^2)/(2l-1)) Qbar_{l-1}^m
    for m >= 1 and d/dtheta Pbar_l^0 = sqrt(l(l+1)) Pbar_l^1, both pole-safe.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = np.zeros_like(P)
    for l in range(1, L + 1):
        S[l, 0] = np.sqrt(l * (l + 1.0)) * P[l, 1]
        S[l, 1:l + 1] = l * x * Q[l, 1:l + 1]
        m = np.arange(1, l)
        c = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
        S[l, 1:l] -= c[:, None] * Q[l - 1, 1:l]
    return S
