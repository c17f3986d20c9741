"""
Associated Legendre values, spherical harmonics, and the tangential bases.
"""

import numpy as np
import pytest

from divcurl.frames import sph_to_cart_vector
from divcurl.grids import AngularGrid, surface_integral
from divcurl.harmonics import (assoc_legendre, dpbar_table, pbar, pbar_table,
                               qbar_table, scalar_Y, vsh_eval)


############################################
# Associated Legendre polynomials


def test_low_degree_closed_forms():
    x = np.linspace(-0.95, 0.95, 11)
    s = np.sqrt(1.0 - x ** 2)
    assert np.allclose(assoc_legendre(0, 0, x), 1.0)
    assert np.allclose(assoc_legendre(1, 0, x), x)
    assert np.allclose(assoc_legendre(1, 1, x), -s)
    assert np.allclose(assoc_legendre(2, 0, x), 0.5 * (3 * x ** 2 - 1))
    assert np.allclose(assoc_legendre(2, 1, x), -3.0 * x * s)
    assert np.allclose(assoc_legendre(2, 2, x), 3.0 * (1 - x ** 2))


def test_p42_reference_value():
    # P_4^2(x) = 15/2 (7x^2 - 1)(1 - x^2); at x = 1/5 this is -648/125
    assert abs(assoc_legendre(4, 2, 0.2) - (-648.0 / 125.0)) < 1e-13


def test_normalized_p42_reference_value():
    # sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!) * P_4^2(0.2)
    norm = np.sqrt(9.0 / (4.0 * np.pi) * 2.0 / 720.0)
    assert abs(pbar(4, 2, 0.2) - norm * (-648.0 / 125.0)) < 1e-13
    assert abs(pbar(4, 2, 0.2) - (-0.23122248545339913)) < 1e-13


def test_assoc_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(-1, 0, 0.5)


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
    table = dpbar_table(6, x)
    # dpbar holds the theta-derivative of Pbar(cos theta)
    theta = np.arccos(x)
    for l in range(1, 7):
        for m in range(l + 1):
            fd = (pbar(l, m, np.cos(theta + h)) - pbar(l, m, np.cos(theta - h))) / (2 * h)
            assert np.abs(table[l, m] - fd).max() < 1e-7


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
    assert np.array_equal(dpbar_table(L, x).view(np.int64), want[2].view(np.int64))


############################################
# Scalar spherical harmonics


def test_y21_reference_value():
    # Y_2^1(pi/3, pi/4) = -sqrt(15/8pi) cos sin (pi/3) e^{i pi/4}
    val = scalar_Y(2, 1, np.pi / 3, np.pi / 4)
    mag = -np.sqrt(15.0 / (8.0 * np.pi)) * 0.5 * (np.sqrt(3.0) / 2.0)
    ref = mag * np.exp(1j * np.pi / 4)
    assert abs(val - ref) < 1e-14
    assert abs(val - (-0.23654367393939 * (1 + 1j))) < 1e-12


def test_y00_constant():
    assert abs(scalar_Y(0, 0, 1.0, 2.0) - 1.0 / np.sqrt(4.0 * np.pi)) < 1e-15


def test_negative_m_conjugation():
    theta, phi = 0.7, 1.9
    for l in range(1, 5):
        for m in range(1, l + 1):
            a = scalar_Y(l, -m, theta, phi)
            b = (-1) ** m * np.conj(scalar_Y(l, m, theta, phi))
            assert abs(a - b) < 1e-14


def test_scalar_orthonormality():
    ang = AngularGrid(7, 13)
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    fields = {(l, m): scalar_Y(l, m, T, P)
              for l in range(5) for m in range(-l, l + 1)}
    for (l1, m1), f1 in fields.items():
        for (l2, m2), f2 in fields.items():
            val = surface_integral(ang, f1 * np.conj(f2))
            want = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(val - want) < 1e-12


############################################
# Vector spherical harmonics


def test_vsh_radial_family_is_radial():
    vr, vt, vp = vsh_eval("Y", 3, 1, 0.8, 0.3)
    assert abs(vr - scalar_Y(3, 1, 0.8, 0.3)) < 1e-14
    assert vt == 0.0 and vp == 0.0


def test_vsh_tangential_families_are_tangential():
    theta = np.linspace(0.2, 3.0, 5)
    phi = np.linspace(0.0, 6.0, 5)
    for kind in ("Psi", "Phi"):
        vr, vt, vp = vsh_eval(kind, 4, 2, theta, phi)
        assert np.all(vr == 0.0)
        assert np.all(np.abs(vt) + np.abs(vp) > 0.0)


def test_phi_10_is_azimuthal():
    # Phi_{1,0} = r x grad Y_10 has the single component -sqrt(3/4pi) sin(theta) phi_hat
    theta = np.linspace(0.1, 3.0, 7)
    vr, vt, vp = vsh_eval("Phi", 1, 0, theta, 0.0)
    assert np.all(vr == 0.0)
    assert np.abs(vt).max() < 1e-15
    assert np.abs(vp - (-np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(theta))).max() < 1e-14


def test_psi_orthogonal_to_phi_pointwise():
    # Psi and Phi of the same mode are pointwise orthogonal tangent vectors
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = rng.integers(1, 6)
        m = rng.integers(-l, l + 1)
        theta = rng.uniform(0.1, 3.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        _, at, ap = vsh_eval("Psi", l, m, theta, phi)
        _, bt, bp = vsh_eval("Phi", l, m, theta, phi)
        dot = at * np.conj(bt) + ap * np.conj(bp)
        assert abs(dot.real) < 1e-12


def test_phi_is_rhat_cross_psi():
    # Phi = r_hat x Psi: (0, -psi_phi, psi_theta) in the spherical frame
    theta, phi = 1.1, 0.6
    for l in range(1, 5):
        for m in range(-l, l + 1):
            _, pt, pp = vsh_eval("Psi", l, m, theta, phi)
            _, qt, qp = vsh_eval("Phi", l, m, theta, phi)
            assert abs(qt - (-pp)) < 1e-13
            assert abs(qp - pt) < 1e-13


def test_psi_matches_angular_gradient():
    # Psi components: (d/dtheta Y, (1/sin theta) d/dphi Y)
    theta, phi = 0.9, 2.2
    h = 1e-6
    for l, m in [(1, 0), (2, 1), (3, -2), (4, 4)]:
        _, vt, vp = vsh_eval("Psi", l, m, theta, phi)
        dt = (scalar_Y(l, m, theta + h, phi) - scalar_Y(l, m, theta - h, phi)) / (2 * h)
        dp = (scalar_Y(l, m, theta, phi + h) - scalar_Y(l, m, theta, phi - h)) / (2 * h)
        assert abs(vt - dt) < 1e-8
        assert abs(vp - dp / np.sin(theta)) < 1e-8


def test_vsh_bad_kind_raises():
    with pytest.raises(ValueError):
        vsh_eval("Z", 1, 0, 0.5, 0.5)


def test_vsh_cartesian_consistency_under_rotation_of_frame():
    # the Cartesian vector of Y_{1,0} r_hat is (z/r) r_hat, i.e. smooth across phi
    theta = 0.4
    vals = []
    for phi in (0.0, 1.0, 2.0):
        vr, vt, vp = vsh_eval("Y", 1, 0, theta, phi)
        v = sph_to_cart_vector(vr, vt, vp, theta, phi)
        vals.append(np.asarray(v))
    # m = 0 radial harmonic is axisymmetric: vector rotates with phi about z
    for v in vals:
        assert abs(v[2] - vals[0][2]) < 1e-14
        assert abs(np.hypot(v[0].real, v[1].real)
                   - np.hypot(vals[0][0].real, vals[0][1].real)) < 1e-14
