"""
Quadrature, differentiation, and interpolation on the shell grids.
"""

import numpy as np
import pytest

from scipy.special import sph_harm_y

from divcurl.grids import (AngularGrid, RadialGrid, SampledField,
                           _bary_eval_matrix, make_grids, surface_integral)


############################################
# Radial grid


def test_weights_sum_to_interval_length():
    _, rad = make_grids(1.0, 5.0, 64, 8)
    assert abs(rad.w.sum() - 4.0) < 1e-13


def test_integrate_r_squared():
    # int_1^5 s^2 ds = 124/3
    _, rad = make_grids(1.0, 5.0, 64, 8)
    assert abs(rad.integrate(rad.r ** 2) - 124.0 / 3.0) < 1e-12


def test_integrate_is_exact_for_panel_polynomials():
    rad = RadialGrid([1.0, 2.0, 5.0], 16)
    for k in range(8):
        val = rad.integrate(rad.r ** k)
        exact = (5.0 ** (k + 1) - 1.0) / (k + 1)
        assert abs(val - exact) < 1e-12 * abs(exact)


def test_differentiate_powers():
    # derivative matrix applied to r^k matches k r^(k-1) to 1e-10 relative
    _, rad = make_grids(1.0, 5.0, 64, 8)
    for k in range(7):
        d = rad.differentiate(rad.r ** k)
        exact = k * rad.r ** max(k - 1, 0) if k else np.zeros_like(rad.r)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(d - exact).max() < 1e-10 * scale


def test_differentiate_matrix_shape_and_batch():
    _, rad = make_grids(1.0, 5.0, 64, 8)
    profiles = np.stack([rad.r ** 2, np.exp(-rad.r)])
    d = rad.differentiate(profiles)
    assert d.shape == profiles.shape
    assert np.abs(d[0] - 2.0 * rad.r).max() < 1e-9


def test_running_and_tail_integrals():
    _, rad = make_grids(1.0, 5.0, 64, 8)
    r = rad.r
    # running integral of s^2 from r0, tail integral of s^(-2) to rmax
    run = rad.running_integral(r ** 2)
    tail = rad.tail_integral(r ** -2)
    assert np.abs(run - (r ** 3 - 1.0) / 3.0).max() < 1e-12
    assert np.abs(tail - (1.0 / r - 0.2)).max() < 1e-12


def test_interp_reproduces_nodes_and_offgrid():
    _, rad = make_grids(1.0, 5.0, 64, 8)
    g = np.sin(rad.r)
    assert np.abs(rad.interp(g, rad.r) - g).max() < 1e-12
    pts = np.linspace(1.1, 4.9, 17)
    assert np.abs(rad.interp(g, pts) - np.sin(pts)).max() < 1e-10


def test_interp_batch_shape_and_range_check():
    # a (2, 3, n_r) stack interpolates row by row into (2, 3, N)
    _, rad = make_grids(1.0, 5.0, 64, 8)
    g = np.stack([rad.r ** k for k in range(6)]).reshape(2, 3, -1) * (1 + 2j)
    pts = np.array([4.9, 1.0, rad.breakpoints[2], rad.r[5], 2.5, 5.0])
    out = rad.interp(g, pts)
    assert out.shape == (2, 3, pts.size)
    want = (1 + 2j) * pts[None, :] ** np.arange(6)[:, None]
    assert np.abs(out.reshape(6, -1) - want).max() < 1e-10 * np.abs(want).max()
    assert rad.interp(g, np.empty(0)).shape == (2, 3, 0)
    # a NaN radius is not inside [r0, rmax] either
    for bad in ([0.5], [np.nan], [2.0, np.nan, 3.0]):
        with pytest.raises(ValueError, match=r"\[r0, rmax\]"):
            rad.interp(g, bad)


def test_bary_eval_matrix_matches_pointwise_loop():
    # reference: one row per point, with the unit row at (near-)node hits
    x = 1.0 + 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
    w = np.array([1.0 / np.prod(x[j] - np.delete(x, j)) for j in range(x.size)])
    pts = np.concatenate([np.linspace(1.0, 2.0, 9), x, x[[2]] * (1 + 1e-15)])
    ref = np.zeros((pts.size, x.size))
    for i, p in enumerate(pts):
        d = p - x
        hit = np.nonzero(np.abs(d) < 1e-14 * max(1.0, abs(p)))[0]
        if hit.size:
            ref[i, hit[0]] = 1.0
        else:
            ref[i] = (w / d) / (w / d).sum()
    E = _bary_eval_matrix(x, w, pts)
    assert np.abs(E - ref).max() < 1e-15
    assert np.all(E[9:] == np.vstack([np.eye(x.size), np.eye(x.size)[2]]))


def test_radial_grid_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        RadialGrid([-1.0, 2.0], 8)
    with pytest.raises(ValueError):
        RadialGrid([1.0, 1.0, 2.0], 8)
    with pytest.raises(ValueError):
        RadialGrid([2.0, 1.0], 8)


def test_make_grids_validation():
    with pytest.raises(ValueError):
        make_grids(0.0, 5.0, 64, 8)
    with pytest.raises(ValueError):
        make_grids(5.0, 1.0, 64, 8)
    with pytest.raises(ValueError):
        make_grids(1.0, 5.0, 64, 8, breakpoints=[1.0, 2.0, 4.5])
    with pytest.raises(ValueError):
        make_grids(1.0, 5.0, 63, 8, breakpoints=[1.0, 2.0, 5.0])


############################################
# Angular grid


def test_angular_sizes_resolve_band_limit():
    ang, _ = make_grids(1.0, 5.0, 32, 5)
    assert ang.n_theta >= 6 and ang.n_phi >= 11


def test_sphere_area():
    ang = AngularGrid(9, 17)
    one = np.ones((9, 17))
    assert abs(surface_integral(ang, one) - 4.0 * np.pi) < 1e-13


def test_harmonic_products_integrate_exactly():
    # quadrature is exact for Y_lm conj(Y_l'm') with l + l' <= 2 L_max
    ang = AngularGrid(9, 17)
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    y32 = sph_harm_y(3, 2, T, P)
    y21 = sph_harm_y(2, 1, T, P)
    assert abs(surface_integral(ang, y32 * np.conj(y32)) - 1.0) < 1e-12
    assert abs(surface_integral(ang, y21)) < 1e-13
    assert abs(surface_integral(ang, y32 * np.conj(y21))) < 1e-13


def test_angular_equality():
    assert AngularGrid(9, 17) == AngularGrid(9, 17)
    assert AngularGrid(9, 17) != AngularGrid(9, 19)


############################################
# Sampled fields


def test_sampled_field_shape_check():
    ang, rad = make_grids(1.0, 5.0, 32, 4)
    with pytest.raises(ValueError):
        SampledField(rad, ang, np.zeros((3, 3, 3, 3)))
    z = SampledField.zeros(rad, ang)
    assert z.values.shape == (rad.n_r, ang.n_theta, ang.n_phi, 3)
    assert np.all(z.values == 0.0)
