"""
Quadrature, differentiation, and interpolation on the shell grids.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    tail = r ** -2 @ rad.w - rad.running_integral(r ** -2)
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


def _pointwise_eval_rows(x, w, pts):
    """One row per point, with the unit row at (near-)node hits."""
    ref = np.zeros((pts.size, x.size))
    for i, p in enumerate(pts):
        d = p - x
        hit = np.nonzero(np.abs(d) < 1e-14 * max(1.0, abs(p)))[0]
        if hit.size:
            ref[i, hit[0]] = 1.0
        else:
            ref[i] = (w / d) / (w / d).sum()
    return ref


def _ref_bary_eval_rows(x, w, pts):
    """The 2-D evaluation the per-panel code used, one panel at a time."""
    d = pts[:, None] - x[None, :]
    i, j = np.nonzero(np.abs(d) < 1e-14 * np.maximum(1.0, np.abs(pts))[:, None])
    d[i] = np.inf
    d[i, j] = 1.0
    c = w / d
    return c / c.sum(axis=1, keepdims=True)


def test_bary_eval_matrix_matches_pointwise_loop():
    x = 1.0 + 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
    w = _ref_bary_weights(x)
    pts = np.concatenate([np.linspace(1.0, 2.0, 9), x, x[[2]] * (1 + 1e-15)])
    E = _bary_eval_matrix(x, w, pts)
    assert np.abs(E - _pointwise_eval_rows(x, w, pts)).max() < 1e-15
    assert E.tobytes() == _ref_bary_eval_rows(x, w, pts).tobytes()
    assert np.all(E[9:] == np.vstack([np.eye(x.size), np.eye(x.size)[2]]))
    # a stack of panels in one call: leading axes of nodes and points broadcast
    X, W, Pts = np.stack([x, 2.0 * x]), np.stack([w, w / 2.0 ** 7]), np.stack([pts, 2.0 * pts])
    Eb = _bary_eval_matrix(X, W, Pts)
    assert Eb.shape == (2, pts.size, x.size)
    for k in range(2):
        assert Eb[k].tobytes() == _ref_bary_eval_rows(X[k], W[k], Pts[k]).tobytes()
        assert np.abs(Eb[k] - _pointwise_eval_rows(X[k], W[k], Pts[k])).max() < 1e-15


def test_radial_grid_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        RadialGrid([-1.0, 2.0], 8)
    with pytest.raises(ValueError):
        RadialGrid([1.0, 1.0, 2.0], 8)
    with pytest.raises(ValueError):
        RadialGrid([2.0, 1.0], 8)
    for bad in ([1.0, np.nan, 5.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(bad, 8)


@pytest.mark.filterwarnings("error")      # the finite check comes before any breakpoints
def test_make_grids_validation():
    with pytest.raises(ValueError):
        make_grids(0.0, 5.0, 64, 8)
    with pytest.raises(ValueError):
        make_grids(5.0, 1.0, 64, 8)
    with pytest.raises(ValueError):
        make_grids(1.0, 5.0, 64, 8, breakpoints=[1.0, 2.0, 4.5])
    with pytest.raises(ValueError):
        make_grids(1.0, 5.0, 63, 8, breakpoints=[1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="finite"):
        make_grids(1.0, np.inf, 64, 4)


############################################
# Stacked panel operators against the per-panel loops they replaced


def _ref_bary_weights(x):
    return np.array([1.0 / np.prod(x[j] - np.delete(x, j)) for j in range(x.size)])


def _ref_diff_matrix(x, w):
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(np.delete(D[i], i))
    return D


def _ref_operators(rad):
    """Per-panel barycentric weights, D and K, built node by node."""
    xg, wg = np.polynomial.legendre.leggauss(rad.nodes_per_panel)
    bws, Ds, Ks = [], [], []
    for a, b in zip(rad.breakpoints[:-1], rad.breakpoints[1:]):
        x = 0.5 * (xg + 1.0) * (b - a) + a
        bw = _ref_bary_weights(x)
        K = np.zeros((x.size, x.size))
        for i in range(x.size):
            t = 0.5 * (xg + 1.0) * (x[i] - a) + a
            wt = wg * 0.5 * (x[i] - a)
            K[i] = wt @ _ref_bary_eval_rows(x, bw, t)
        bws.append(bw)
        Ds.append(_ref_diff_matrix(x, bw))
        Ks.append(K)
    return np.array(bws), np.array(Ds), np.array(Ks)


def _ref_panels(rad, a):
    lead = a.shape[:-1] or (1,)
    return np.moveaxis(a.reshape(lead + (rad.n_panels, rad.nodes_per_panel)), -2, 0)


def _ref_differentiate(rad, Ds, g):
    n = rad.nodes_per_panel
    out = np.empty_like(g, dtype=np.result_type(g, float))
    for p, D in enumerate(Ds):
        sl = slice(p * n, (p + 1) * n)
        out[..., sl] = g[..., sl] @ D.T
    return out


def _ref_running_integral(rad, Ks, g):
    n = rad.nodes_per_panel
    out = np.empty_like(g, dtype=np.result_type(g, float))
    offset = None           # the earlier panels' total; panel 0 adds none, not even +0.0
    for p, K in enumerate(Ks):
        sl = slice(p * n, (p + 1) * n)
        out[..., sl] = g[..., sl] @ K.T
        if offset is not None:
            out[..., sl] += offset[..., None]
        total = g[..., sl] @ rad.w[sl]
        offset = total if offset is None else offset + total
    return out


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(2, 32), r0=st.floats(0.0, 10.0),
       widths=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
       lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       complex_data=st.booleans(), fortran=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# -0.0 samples on panel 0 (seed 1) and on panels 0 and 1 (seed 2): zero signs must match
@example(n=3, r0=0.0, widths=[1.0] * 5, lead=[2], complex_data=True, fortran=False, seed=1)
@example(n=3, r0=0.0, widths=[1.0] * 5, lead=[2], complex_data=True, fortran=False, seed=2)
def test_stacked_operators_match_per_panel_loops(n, r0, widths, lead, complex_data,
                                                 fortran, seed):
    rad = RadialGrid(r0 + np.concatenate([[0.0], np.cumsum(widths)]), n)
    bws, Ds, Ks = _ref_operators(rad)
    for got, want in ((rad._bary, bws), (rad._D, Ds), (rad._K, Ks)):
        assert got.tobytes() == want.tobytes()
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (rad.n_r,)
    g = rng.standard_normal(shape)
    if complex_data:
        g = g + 1j * rng.standard_normal(shape)
    # whole panels of signed zeros, whose bytes must match as well
    g[..., np.repeat(rng.random(rad.n_panels) < 0.4, n)] = -0.0
    if fortran:
        g = np.asfortranarray(g)
    assert rad.differentiate(g).tobytes() == _ref_differentiate(rad, Ds, g).tobytes()
    run = rad.running_integral(g)
    assert run.tobytes() == _ref_running_integral(rad, Ks, g).tobytes()
    assert rad.at_r0(g).tobytes() == rad.interp(g, [rad.r0])[..., 0].tobytes()
    total = rad.integrate(g)[..., None]
    scale = np.abs(g) @ rad.w
    tail = (g @ rad.w)[..., None] - rad.running_integral(g)     # the solver's tail
    assert np.all(np.abs(run + tail - total) <= 1e-13 * scale[..., None])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 32), r0=st.floats(0.0, 10.0),
       widths=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
       lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       complex_data=st.booleans(), fortran=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_panel_view_and_wall_slope_match_full_passes(n, r0, widths, lead, complex_data,
                                                     fortran, seed):
    rad = RadialGrid(r0 + np.concatenate([[0.0], np.cumsum(widths)]), n)
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (rad.n_r,)
    g = rng.standard_normal(shape)
    if complex_data:
        g = g + 1j * rng.standard_normal(shape)
    g[..., np.repeat(rng.random(rad.n_panels) < 0.4, n)] = -0.0
    g[rng.random(shape) < 0.2] = 0.0
    if fortran:
        g = np.asfortranarray(g)
    # the plain transpose is the same view as the moveaxis it replaced
    view, ref = rad._panels(g), _ref_panels(rad, g)
    assert (view.shape, view.strides) == (ref.shape, ref.strides)
    assert np.shares_memory(view, g) == np.shares_memory(ref, g)
    assert view.tobytes() == ref.tobytes()
    # the slope from panel 0 alone has the bytes of the full derivative's wall value
    assert rad.slope_at_r0(g).tobytes() == rad.at_r0(rad.differentiate(g)).tobytes()


def test_one_wide_panel_builds_in_bounded_memory():
    # make_grids falls back to one panel when n_r is prime; K's evaluation
    # rows are built in blocks, not as one (n, n, n) array (291 MB here)
    tracemalloc.start()
    try:
        rad = RadialGrid([1.0, 2.0], 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6                   # 5.0 MB measured
    assert abs(rad.running_integral(rad.r)[-1] - (rad.r[-1] ** 2 - 1.0) / 2) < 1e-12


@pytest.mark.parametrize("build, builds_K", [(lambda: RadialGrid([1.0, 2.0], 600), False),
                                             (lambda: make_grids(1.0, 2.0, 601, 4), False),
                                             (lambda: RadialGrid([1.0, 1.001], 86), True)])
def test_panel_whose_weights_overflow_is_refused(build, builds_K):
    # 1/prod(x_j - x_k) underflows past ~520 nodes on [1, 2]: D would be NaN,
    # and the refusal comes before K's O(n^4) rows; 601 is prime, so make_grids
    # puts all nodes on one panel.  On [1, 1.001] 86 nodes leave D finite, but
    # the weights overflow K's rows to NaN
    with mock.patch("divcurl.grids._bary_eval_matrix", wraps=_bary_eval_matrix) as rows, \
            pytest.raises(ValueError, match="more panels"):
        build()
    assert rows.called == builds_K


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
