"""
The normalized Legendre tables and the harmonics the transforms build
from them, against closed forms and against scipy.special.sph_harm_y.
"""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

import sph_oracle
from divcurl.frames import sph_to_cart_points
from divcurl.grids import AngularGrid, RadialGrid, surface_integral
from divcurl.harmonics import dpbar_table, pbar_table, qbar_table
from divcurl.transform import (SpectralField, _mode_tables, mode_degrees,
                               synthesize, synthesize_at)


def _norm(l, m):
    # Pbar_l^m = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) P_l^m
    return math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - m) / math.factorial(l + m))


############################################
# Associated Legendre polynomials


def test_low_degree_closed_forms():
    x = np.linspace(-0.95, 0.95, 11)
    s = np.sqrt(1.0 - x ** 2)
    P = pbar_table(2, x)
    closed = {(0, 0): np.ones_like(x), (1, 0): x, (1, 1): -s,
              (2, 0): 0.5 * (3 * x ** 2 - 1), (2, 1): -3.0 * x * s,
              (2, 2): 3.0 * (1 - x ** 2)}
    for (l, m), want in closed.items():
        assert np.allclose(P[l, m] / _norm(l, m), want)


def test_p42_reference_value():
    # P_4^2(x) = 15/2 (7x^2 - 1)(1 - x^2); at x = 1/5 this is -648/125
    assert abs(pbar_table(4, 0.2)[4, 2, 0] / _norm(4, 2) - (-648.0 / 125.0)) < 1e-13


def test_normalized_p42_reference_value():
    # sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!) * P_4^2(0.2)
    norm = np.sqrt(9.0 / (4.0 * np.pi) * 2.0 / 720.0)
    value = pbar_table(4, 0.2)[4, 2, 0]
    assert abs(value - norm * (-648.0 / 125.0)) < 1e-13
    assert abs(value - (-0.23122248545339913)) < 1e-13


def test_pbar_orthogonality_per_order():
    # int_{-1}^{1} Pbar_l^m Pbar_k^m dx = delta_lk / (2 pi) for fixed m,
    # so that Y = Pbar e^{im phi} is orthonormal over the sphere
    x, w = np.polynomial.legendre.leggauss(24)
    tab = pbar_table(8, x)
    for m in (0, 1, 3):
        for l in range(m, 9):
            for k in range(m, 9):
                val = np.dot(w, tab[l, m] * tab[k, m])
                want = 1.0 / (2.0 * np.pi) if l == k else 0.0
                assert abs(val - want) < 1e-12


def test_dpbar_matches_finite_differences():
    x = np.linspace(-0.8, 0.8, 9)
    h = 1e-6
    table = dpbar_table(6, x, pbar_table(6, x), qbar_table(6, x))
    # dpbar holds the theta-derivative of Pbar(cos theta)
    theta = np.arccos(x)
    fd = (pbar_table(6, np.cos(theta + h)) - pbar_table(6, np.cos(theta - h))) / (2 * h)
    for l in range(1, 7):
        for m in range(l + 1):
            assert np.abs(table[l, m] - fd[l, m]).max() < 1e-7


def test_qbar_is_pbar_over_sin_theta():
    x = np.linspace(-0.9, 0.9, 7)
    s = np.sqrt(1.0 - x ** 2)
    Q = qbar_table(5, x)
    P = pbar_table(5, x)
    for l in range(1, 6):
        for m in range(1, l + 1):
            assert np.abs(Q[l, m] * s - P[l, m]).max() < 1e-12


def test_qbar_finite_at_poles():
    Q = qbar_table(6, np.array([1.0, -1.0]))
    assert np.all(np.isfinite(Q))
    # m = 0 rows are zeroed by convention (they always appear multiplied by m)
    assert np.all(Q[:, 0] == 0.0)


def _ref_upward(T, x, m0):
    # the recurrence one (l, m) entry at a time
    L = T.shape[0] - 1
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    for m in range(m0 + 1, L + 1):
        T[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * T[m - 1, m - 1]
    for m in range(m0, L):
        T[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * T[m, m]
    for m in range(m0, L + 1):
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            T[l, m] = a * (x * T[l - 1, m] - b * T[l - 2, m])
    return T


def _ref_tables(L, x):
    P = np.zeros((L + 1, L + 1, x.size))
    P[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    _ref_upward(P, x, 0)
    Q = np.zeros_like(P)
    if L >= 1:
        Q[1, 1] = -np.sqrt(3.0 / (8.0 * np.pi))
        _ref_upward(Q, x, 1)
    S = np.zeros_like(P)
    for l in range(1, L + 1):
        S[l, 0] = np.sqrt(l * (l + 1.0)) * P[l, 1]
        for m in range(1, l + 1):
            S[l, m] = l * x * Q[l, m]
            if l > m:
                S[l, m] -= np.sqrt((2.0 * l + 1.0) * (l * l - m * m)
                                   / (2.0 * l - 1.0)) * Q[l - 1, m]
    return P, Q, S


@pytest.mark.parametrize("L", [0, 1, 2, 33, 64])
def test_tables_match_per_entry_recurrence_bitwise(L):
    # Gauss nodes plus both poles; the vectorised recurrences must do the
    # same floating-point operations per entry as the per-(l, m) loops
    x = np.concatenate([np.polynomial.legendre.leggauss(L + 1)[0], [1.0, -1.0]])
    want = _ref_tables(L, x)
    P, Q = pbar_table(L, x), qbar_table(L, x)
    got = (P, Q, dpbar_table(L, x, P, Q))
    for g, w in zip(got, want):
        assert g.shape == w.shape == (L + 1, L + 1, x.size)
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


############################################
# The mode rows of the transforms against scipy


def test_mode_tables_match_sph_harm_y():
    # A e^{im phi} = Y, B e^{im phi} = dY/dtheta and i C e^{im phi} =
    # dY/dphi / sin(theta) for every mode l <= 40, negative orders included
    L = 40
    rng = np.random.default_rng(8)
    theta = rng.uniform(0.05, np.pi - 0.05, 16)
    phi = rng.uniform(0.0, 2.0 * np.pi, 16)
    ells, ems = mode_degrees(L)
    A, B, C = _mode_tables(L, np.cos(theta))
    e = np.exp(1j * ems[:, None] * phi)
    y = sph_harm_y(ells[:, None], ems[:, None], theta, phi)
    _, psi_t, psi_p = sph_oracle.vector("Psi", ells[:, None], ems[:, None], theta, phi)
    for got, want in [(A * e, y), (B * e, psi_t), (1j * C * e, psi_p)]:
        # relative to each mode's largest value (up to 36 at l = 40)
        scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1.0)
        assert (np.abs(got - want) / scale).max() < 1e-13


############################################
# Scalar spherical harmonics, through synthesize_at and synthesize

_KIND = {"Y": 0, "Psi": 1, "Phi": 2}
_RAD = RadialGrid([1.0, 2.0], 2)


def _unit_mode(kind, l, m, L_max=None):
    # one mode of the given kind with the constant profile 1
    S = SpectralField(_RAD, l if L_max is None else L_max)
    S.set_mode(l, m, _KIND[kind], np.ones(_RAD.n_r))
    return S


def _cart(kind, l, m, theta, phi):
    # Cartesian (..., 3) values of the unit mode at a radial node
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    pts = sph_to_cart_points(_RAD.r[0], theta, phi).reshape(-1, 3)
    return synthesize_at(_unit_mode(kind, l, m), pts).reshape(theta.shape + (3,))


def _at(kind, l, m, theta, phi):
    # (v_r, v_theta, v_phi) of the unit mode at a radial node
    return sph_oracle.cart_to_sph_vector(_cart(kind, l, m, theta, phi), theta, phi)


def test_y21_reference_value():
    # Y_2^1(pi/3, pi/4) = -sqrt(15/8pi) cos sin (pi/3) e^{i pi/4}
    val = _at("Y", 2, 1, np.pi / 3, np.pi / 4)[0]
    mag = -np.sqrt(15.0 / (8.0 * np.pi)) * 0.5 * (np.sqrt(3.0) / 2.0)
    ref = mag * np.exp(1j * np.pi / 4)
    assert abs(val - ref) < 1e-14
    assert abs(val - (-0.23654367393939 * (1 + 1j))) < 1e-12


def test_y00_constant():
    assert abs(_at("Y", 0, 0, 1.0, 2.0)[0] - 1.0 / np.sqrt(4.0 * np.pi)) < 1e-15


def test_negative_m_conjugation():
    theta, phi = 0.7, 1.9
    for l in range(1, 5):
        for m in range(1, l + 1):
            a = _at("Y", l, -m, theta, phi)[0]
            b = (-1) ** m * np.conj(_at("Y", l, m, theta, phi)[0])
            assert abs(a - b) < 1e-14


def test_scalar_orthonormality():
    ang = AngularGrid(7, 13)
    fields = {(l, m): synthesize(_unit_mode("Y", l, m, 4), ang).values[0, ..., 0]
              for l in range(5) for m in range(-l, l + 1)}
    for (l1, m1), f1 in fields.items():
        for (l2, m2), f2 in fields.items():
            val = surface_integral(ang, f1 * np.conj(f2))
            want = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(val - want) < 1e-12


############################################
# Vector spherical harmonics


def test_vsh_radial_family_is_radial():
    ang = AngularGrid(4, 7)
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    v = synthesize(_unit_mode("Y", 3, 1), ang).values[0]
    assert np.abs(v[..., 0] - sph_harm_y(3, 1, T, P)).max() < 1e-14
    assert np.all(v[..., 1:] == 0.0)


def test_vsh_tangential_families_are_tangential():
    ang = AngularGrid(5, 9)
    for kind in ("Psi", "Phi"):
        v = synthesize(_unit_mode(kind, 4, 2), ang).values[0]
        assert np.all(v[..., 0] == 0.0)
        assert np.all(np.abs(v[..., 1]) + np.abs(v[..., 2]) > 0.0)


def test_phi_10_is_azimuthal():
    # Phi_{1,0} = r x grad Y_10 has the single component -sqrt(3/4pi) sin(theta) phi_hat
    ang = AngularGrid(7, 3)
    v = synthesize(_unit_mode("Phi", 1, 0), ang).values[0]
    assert np.all(v[..., :2] == 0.0)
    want = -np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(ang.theta)[:, None]
    assert np.abs(v[..., 2] - want).max() < 1e-14


def test_psi_orthogonal_to_phi_pointwise():
    # Psi and Phi of the same mode are pointwise orthogonal tangent vectors
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = rng.integers(1, 6)
        m = rng.integers(-l, l + 1)
        theta = rng.uniform(0.1, 3.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        dot = np.dot(_cart("Psi", l, m, theta, phi),
                     np.conj(_cart("Phi", l, m, theta, phi)))
        assert abs(dot.real) < 1e-12


def test_phi_is_rhat_cross_psi():
    theta, phi = 1.1, 0.6
    rhat = sph_to_cart_points(1.0, theta, phi)
    for l in range(1, 5):
        for m in range(-l, l + 1):
            psi = _cart("Psi", l, m, theta, phi)
            assert np.abs(_cart("Phi", l, m, theta, phi) - np.cross(rhat, psi)).max() < 1e-13


def test_psi_matches_angular_gradient():
    # Psi components: (d/dtheta Y, (1/sin theta) d/dphi Y)
    theta, phi = 0.9, 2.2
    h = 1e-6
    for l, m in [(1, 0), (2, 1), (3, -2), (4, 4)]:
        _, vt, vp = _at("Psi", l, m, theta, phi)
        # Y at theta -+ h (columns 0, 1) and at phi -+ h (columns 2, 3)
        y = _at("Y", l, m, theta + np.array([-h, h, 0, 0]),
                phi + np.array([0, 0, -h, h]))[0]
        dt = (y[1] - y[0]) / (2 * h)
        dp = (y[3] - y[2]) / (2 * h)
        assert abs(vt - dt) < 1e-8
        assert abs(vp - dp / np.sin(theta)) < 1e-8


def test_vsh_cartesian_consistency_under_rotation_of_frame():
    # the Cartesian vector of Y_{1,0} r_hat is (z/r) r_hat, i.e. smooth across phi
    theta = 0.4
    vals = [_cart("Y", 1, 0, theta, phi) for phi in (0.0, 1.0, 2.0)]
    # m = 0 radial harmonic is axisymmetric: vector rotates with phi about z
    for v in vals:
        assert abs(v[2] - vals[0][2]) < 1e-14
        assert abs(np.hypot(v[0].real, v[1].real)
                   - np.hypot(vals[0][0].real, vals[0][1].real)) < 1e-14
