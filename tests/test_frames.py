"""
Conversions between Cartesian and spherical coordinates and vector frames.
"""

import numpy as np
import pytest

from divcurl.frames import (cart_to_sph_points, sph_to_cart_points,
                            sph_to_cart_vector, spherical_frame)
from sph_oracle import cart_to_sph_vector


############################################
# Frame vectors


def test_frame_is_orthonormal_right_handed():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.05, np.pi - 0.05, 40)
    phi = rng.uniform(0.0, 2 * np.pi, 40)
    rhat, that, phat = spherical_frame(theta, phi)
    for a in (rhat, that, phat):
        assert np.abs(np.einsum("...i,...i", a, a) - 1.0).max() < 1e-14
    assert np.abs(np.einsum("...i,...i", rhat, that)).max() < 1e-14
    assert np.abs(np.einsum("...i,...i", rhat, phat)).max() < 1e-14
    assert np.abs(np.einsum("...i,...i", that, phat)).max() < 1e-14
    assert np.abs(np.cross(rhat, that) - phat).max() < 1e-14


def test_zhat_in_spherical_frame():
    theta, phi = 0.8, 2.1
    vr, vt, vp = cart_to_sph_vector(np.array([0.0, 0.0, 1.0]), theta, phi)
    assert abs(vr - np.cos(theta)) < 1e-15
    assert abs(vt - (-np.sin(theta))) < 1e-15
    assert abs(vp) < 1e-15


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.01, np.pi - 0.01, 50)
    phi = rng.uniform(0.0, 2 * np.pi, 50)
    v = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    vr, vt, vp = cart_to_sph_vector(v, theta, phi)
    back = sph_to_cart_vector(vr, vt, vp, theta, phi)
    assert back.shape == (50, 3)
    assert np.abs(back - v).max() < 1e-14


def test_point_round_trip():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3.0, 3.0, (60, 3))
    r, theta, phi = cart_to_sph_points(pts)
    assert np.all(r >= 0.0)
    assert np.all((theta >= 0.0) & (theta <= np.pi))
    back = sph_to_cart_points(r, theta, phi)
    assert np.abs(back - pts).max() < 1e-13


def test_axis_points():
    x, y, z = sph_to_cart_points(2.0, 0.0, 1.3)
    assert abs(x) < 1e-15 and abs(y) < 1e-15 and abs(z - 2.0) < 1e-15
    r, theta, _ = cart_to_sph_points(np.array([[0.0, 0.0, -4.0]]))
    assert abs(r[0] - 4.0) < 1e-15
    assert abs(theta[0] - np.pi) < 1e-12


@pytest.mark.filterwarnings("error")
def test_complex_points_are_refused():
    # a cast would keep only the real parts: r = 2, theta = pi / 2, phi = 0
    with pytest.raises(ValueError, match=r"got a complex \(1, 3\) array"):
        cart_to_sph_points(np.array([[2 + 3j, 0, 0]]))
