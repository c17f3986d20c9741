"""
The rows (A, B, C) of transform._mode_tables as exact Fourier series in
theta, for point evaluation: A is a sine polynomial of degree <= L_max when
m is odd (odd flat indices), B and C when m is even, the others cosine
ones; no sin(theta) comes from cos(theta).  Kept out of transform, whose
compile the benchmark's set-up time follows.
"""

import numpy as np

from .transform import _mode_tables

__all__ = ["THETA_ROWS", "theta_series", "theta_rows"]

# rows of every product: OpenBLAS rounds a row by its tile, and at 96 rows (not 16,
# 32, 64, nor 48 with two BLAS threads) a row keeps its bits at any row and alone
THETA_ROWS = 96


def theta_series(L_max):
    """Cosine table (B, C of odd m, A of even m) and sine table (the rest): DCT-I, DST-I."""
    N = L_max + 1
    t = np.pi * np.arange(N + 1) / N
    kt = np.multiply.outer(np.arange(N), t)
    fit = np.concatenate([np.cos(kt), np.sin(kt[1:])]) * (2.0 / N)
    fit[:, [0, N]] /= 2
    fit[0] /= 2
    A, B, C = _mode_tables(L_max, np.cos(t))
    return (fit[:N] @ np.concatenate([B[1::2], C[1::2], A[0::2]]).T,
            fit[N:] @ np.concatenate([A[1::2], B[0::2], C[0::2]]).T)


def theta_rows(series, theta):
    """Per theta the rows of odd m, (n, 3, n_modes // 2), and of even m, padded products."""
    (cos_t, sin_t), L, n = series, len(series[0]) - 1, theta.size
    K, o = (L + 1) ** 2, (L + 1) ** 2 // 2
    wave = np.zeros((-(-n // THETA_ROWS) * THETA_ROWS, 2 * L + 1))
    kt = np.multiply.outer(theta, np.arange(L + 1))
    wave[:n, :L + 1], wave[:n, L + 1:] = np.cos(kt), np.sin(kt[:, 1:])
    X = np.empty((len(wave), 3 * K))
    for g in range(0, n, THETA_ROWS):
        w, x = wave[g:g + THETA_ROWS], X[g:g + THETA_ROWS]
        np.matmul(w[:, :L + 1], cos_t, out=x[:, o:K + 2 * o])
        np.matmul(w[:, L + 1:], sin_t[:, :o], out=x[:, :o])
        np.matmul(w[:, L + 1:], sin_t[:, o:], out=x[:, K + 2 * o:])
    return X[:n, :3 * o].reshape(n, 3, o), X[:n, 3 * o:].reshape(n, 3, K - o)
