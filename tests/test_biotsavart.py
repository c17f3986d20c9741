"""
The direct volume-integral evaluator and the circulation diagnostic.
"""

import tracemalloc

import numpy as np
import pytest

from divcurl import biotsavart
from divcurl.biotsavart import (_POINT_BLOCK, ProximityError, biot_savart_eval,
                                circulation_diagnostic, sphere_points)
from divcurl.cli import main
from divcurl.fileio import write_points, write_vfld
from divcurl.grids import AngularGrid, RadialGrid, SampledField, make_grids
from divcurl.solver import solve_exterior
from divcurl.transform import (SpectralField, analyze, spectral_curl,
                               synthesize, synthesize_at)

A_IN, B_OUT = 1.5, 3.5      # shell support radii shared by the fixtures


def _shell_grids(n_r=48, L=8):
    return make_grids(1.0, 5.0, n_r, L, breakpoints=[1.0, A_IN, B_OUT, 5.0])


def _oracle_grids():
    # a quadrature-converged source sampling for tight closed-form checks:
    # the integrand is smooth per panel and the error decays geometrically
    # in the node counts (measured ~1e-12 at this size for the fixtures)
    return AngularGrid(30, 60), RadialGrid([1.0, A_IN, B_OUT, 5.0], 24)


def _axial_shell(ang, rad):
    """f = z_hat on the shell A_IN < |x| < B_OUT, zero elsewhere."""
    chi = ((rad.r > A_IN) & (rad.r < B_OUT)).astype(float)
    theta = ang.theta
    vals = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    vals[..., 0] = chi[:, None, None] * np.cos(theta)[None, :, None]
    vals[..., 1] = -chi[:, None, None] * np.sin(theta)[None, :, None]
    return SampledField(rad, ang, vals)


def _azimuthal_shell(ang, rad):
    """f = sin(theta) phi_hat on the shell (zero-mean, pure dipole source)."""
    chi = ((rad.r > A_IN) & (rad.r < B_OUT)).astype(float)
    vals = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    vals[..., 2] = chi[:, None, None] * np.sin(ang.theta)[None, :, None]
    return SampledField(rad, ang, vals)


############################################
# Closed-form oracles


def test_axial_shell_exterior_field():
    # f = z_hat restricted to a shell produces the exact exterior field
    # (W / r^2) sin(theta) phi_hat with W = (b^3 - a^3) / 3
    ang, rad = _oracle_grids()
    field = _axial_shell(ang, rad)
    W = (B_OUT ** 3 - A_IN ** 3) / 3.0
    rng = np.random.default_rng(0)
    for R in (6.0, 11.0):
        theta = rng.uniform(0.2, np.pi - 0.2, 4)
        phi = rng.uniform(0.0, 2 * np.pi, 4)
        pts = np.stack([R * np.sin(theta) * np.cos(phi),
                        R * np.sin(theta) * np.sin(phi),
                        R * np.cos(theta)], axis=-1)
        v = biot_savart_eval(field, pts)
        phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros(4)], axis=-1)
        ref = (W / R ** 2) * np.sin(theta)[:, None] * phat
        assert np.abs(v - ref).max() < 1e-12 * np.abs(ref).max()


def test_axial_shell_cavity_is_field_free():
    ang, rad = _oracle_grids()
    field = _axial_shell(ang, rad)
    pts = np.array([[1.1, 0.0, 0.0], [0.0, -1.0, 0.4], [0.5, 0.5, 0.8]])
    scale = (B_OUT ** 3 - A_IN ** 3) / 3.0 / A_IN ** 2
    v = biot_savart_eval(field, pts)
    assert np.abs(v).max() < 1e-9 * scale


def test_azimuthal_shell_is_exact_dipole_beyond_support():
    # single-degree source: beyond its support the field is exactly the
    # point dipole (3 (m.xhat) xhat - m) / (4 pi |x|^3), m_z = pi/3 (b^4 - a^4)
    ang, rad = _oracle_grids()
    field = _azimuthal_shell(ang, rad)
    mz = np.pi / 3.0 * (B_OUT ** 4 - A_IN ** 4)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((6, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts * rng.uniform(6.0, 10.0, (6, 1))
    v = biot_savart_eval(field, pts)
    norm = np.linalg.norm(pts, axis=1, keepdims=True)
    xhat = pts / norm
    ref = (3.0 * mz * xhat[:, 2:3] * xhat - mz * np.array([0.0, 0.0, 1.0])) \
        / (4.0 * np.pi * norm ** 3)
    assert np.abs(v - ref).max() < 1e-12 * np.abs(ref).max()


def test_zero_source_gives_zero_field():
    ang, rad = _shell_grids(n_r=12, L=2)
    field = SampledField.zeros(rad, ang)
    v = biot_savart_eval(field, np.array([[2.0, 1.0, 0.5]]))
    assert np.abs(v).max() == 0.0


def _random_shell(ang, rad, seed):
    """
    Random complex f on the shell, zero elsewhere; on some nodes purely
    imaginary, on others only its phi component is nonzero.
    """
    rng = np.random.default_rng(seed)
    chi = ((rad.r > A_IN) & (rad.r < B_OUT)).astype(float)
    shape = (rad.n_r, ang.n_theta, ang.n_phi, 3)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[:, 0::3] = 1j * vals[:, 0::3].imag
    vals[:, 1::3, :, :2] = 0.0
    return SampledField(rad, ang, chi[:, None, None, None] * vals)


def _per_pair_reference(field, pts):
    """The quadrature sum term by term: one source node at a time."""
    rad, ang = field.radial, field.angular
    out = np.zeros((len(pts), 3), dtype=complex)
    for i, r in enumerate(rad.r):
        for j, (t, ct, wt) in enumerate(zip(ang.theta, ang.ct, ang.w_ct)):
            st = np.sin(t)
            for k, p in enumerate(ang.phi):
                cp, sp = np.cos(p), np.sin(p)
                vr, vt, vp = field.values[i, j, k]
                f = (vr * np.array([st * cp, st * sp, ct])
                     + vt * np.array([ct * cp, ct * sp, -st])
                     + vp * np.array([-sp, cp, 0.0]))
                y = r * np.array([st * cp, st * sp, ct])
                w = rad.w[i] * r ** 2 * wt * ang.w_phi
                for n, x in enumerate(pts):
                    d = x - y
                    out[n] += w * np.cross(d, f) / np.linalg.norm(d) ** 3
    return out / (-4.0 * np.pi)


def _random_points(seed, n=5):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    return pts * (rng.uniform(1.1, 6.0, (n, 1)) / np.linalg.norm(pts, axis=1, keepdims=True))


def test_matches_per_pair_sum_with_dead_nodes(monkeypatch):
    ang, rad = _shell_grids(n_r=12, L=3)
    field = _random_shell(ang, rad, seed=6)
    assert 0 < np.count_nonzero(field.values[..., 0]) < field.values[..., 0].size
    pts = _random_points(7)
    ref = _per_pair_reference(field, pts)
    for chunk in (512, 37):
        monkeypatch.setattr(biotsavart, "_SOURCE_CHUNK", chunk)
        v = biot_savart_eval(field, pts)
        assert np.abs(v - ref).max() < 1e-13 * np.abs(ref).max()


def test_single_colatitude_node(tmp_path):
    # one node on the theta axis has no neighbour: its gap is infinite and
    # the spacing comes from the radial and azimuthal gaps alone
    _, rad = _shell_grids(n_r=12, L=3)
    field = _random_shell(AngularGrid(1, 3), rad, seed=9)
    pts = _random_points(10)
    ref = _per_pair_reference(field, pts)
    assert np.abs(biot_savart_eval(field, pts) - ref).max() < 1e-13 * np.abs(ref).max()

    src, ptsfile = tmp_path / "f.vfld", tmp_path / "pts.txt"
    write_vfld(src, field)
    write_points(ptsfile, pts)
    assert main(["biot", str(src), "--points", str(ptsfile),
                 "--out", str(tmp_path / "eval.txt")]) == 0


############################################
# Decay at infinity


def test_decay_exponents():
    ang, rad = _shell_grids()
    axial = _axial_shell(ang, rad)       # nonzero mean: 1/r^2
    dipole = _azimuthal_shell(ang, rad)  # zero mean: 1/r^3
    p1 = np.array([[0.0, 20.0, 13.0]])
    p2 = 2.0 * p1
    for field, expo in ((axial, 2.0), (dipole, 3.0)):
        a = np.linalg.norm(biot_savart_eval(field, p1))
        b = np.linalg.norm(biot_savart_eval(field, p2))
        measured = np.log2(a / b)
        assert measured >= 2.0 - 1e-3
        assert abs(measured - expo) < 0.02


############################################
# Proximity and domain gating


def test_point_inside_sphere_rejected():
    ang, rad = _shell_grids(n_r=12, L=2)
    field = _axial_shell(ang, rad)
    with pytest.raises(ProximityError):
        biot_savart_eval(field, np.array([[0.3, 0.2, 0.1]]))
    with pytest.raises(ProximityError):
        biot_savart_eval(field, np.array([[1.0, 0.0, 0.0]]))   # |x| = r0 exactly


def test_point_on_live_node_rejected():
    ang, rad = _shell_grids()
    field = _axial_shell(ang, rad)
    live = np.argmin(np.abs(rad.r - 2.5))       # inside the shell support
    theta, phi = ang.theta[3], ang.phi[5]
    node = rad.r[live] * np.array([np.sin(theta) * np.cos(phi),
                                   np.sin(theta) * np.sin(phi), np.cos(theta)])
    with pytest.raises(ProximityError):
        biot_savart_eval(field, node[None, :])
    with pytest.raises(ProximityError):
        biot_savart_eval(field, node[None, :] + 1e-9)


def test_point_near_dead_node_is_fine():
    # nodes outside the support carry f = 0 and need no separation
    ang, rad = _shell_grids()
    field = _axial_shell(ang, rad)
    dead = np.argmin(np.abs(rad.r - 4.5))       # beyond the shell
    theta, phi = ang.theta[3], ang.phi[5]
    node = rad.r[dead] * np.array([np.sin(theta) * np.cos(phi),
                                   np.sin(theta) * np.sin(phi), np.cos(theta)])
    v = biot_savart_eval(field, node[None, :] + 1e-9)
    assert np.all(np.isfinite(v))


def test_point_on_dead_node_rejected(monkeypatch):
    # a point exactly on a node where f = 0 still meets 0 / 0 there
    ang, rad = _shell_grids()
    field = _axial_shell(ang, rad)
    dead = np.argmin(np.abs(rad.r - 4.5))
    theta, phi = ang.theta[3], ang.phi[5]
    st = np.sin(theta)
    node = rad.r[dead] * np.array([st * np.cos(phi), st * np.sin(phi),
                                   np.cos(theta)])
    assert np.all(field.values[dead, 3, 5] == 0.0)
    pts = np.array([[0.0, 4.2, 1.0], node])
    with pytest.raises(ProximityError):
        biot_savart_eval(field, pts)
    monkeypatch.setattr(biotsavart, "_SOURCE_CHUNK", 13)
    with pytest.raises(ProximityError):
        biot_savart_eval(field, pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(bad):
    ang, rad = _shell_grids(n_r=12, L=2)
    field = _axial_shell(ang, rad)
    pts = np.array([[4.0, 0.0, 1.0], [bad, 3.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        biot_savart_eval(field, pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_source_rejected(bad):
    # a NaN at a node outside the support must not drop out of the sum
    ang, rad = _shell_grids(n_r=12, L=2)
    field = _axial_shell(ang, rad)
    field.values[-1, 0, 0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        biot_savart_eval(field, np.array([[4.0, 0.0, 9.0]]))


def test_bad_point_shape_rejected():
    ang, rad = _shell_grids(n_r=12, L=2)
    field = _axial_shell(ang, rad)
    with pytest.raises(ValueError):
        biot_savart_eval(field, np.zeros((2, 4)))


############################################
# Determinism across chunking and threads


def test_threads_are_bitwise_identical():
    # two whole point blocks and a partial third
    ang, rad = _shell_grids()
    field = _azimuthal_shell(ang, rad)
    rng = np.random.default_rng(2)
    pts = rng.uniform(4.0, 6.0, (2 * _POINT_BLOCK + 7, 3))
    v1 = biot_savart_eval(field, pts, threads=1)
    for threads in (2, 3):
        assert np.array_equal(v1, biot_savart_eval(field, pts, threads=threads))


def test_peak_memory_does_not_grow_with_points():
    # temporaries are (_POINT_BLOCK, chunk): going from one block (64
    # points) to 1000 points adds little more than the larger output, not
    # 1000 x chunk entries
    ang, rad = _shell_grids()
    field = _azimuthal_shell(ang, rad)
    rng = np.random.default_rng(8)

    def peak(n):
        pts = rng.standard_normal((n, 3))
        pts *= 5.5 / np.linalg.norm(pts, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            biot_savart_eval(field, pts)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = peak(_POINT_BLOCK), peak(1000)
    out_bytes = 1000 * 3 * 16
    assert large - small < 3 * out_bytes


def test_chunk_size_only_reorders_rounding(monkeypatch):
    ang, rad = _shell_grids()
    field = _azimuthal_shell(ang, rad)
    pts = np.array([[4.4, 0.1, 2.0], [0.0, 5.5, 1.0]])
    v_a = biot_savart_eval(field, pts)
    monkeypatch.setattr(biotsavart, "_SOURCE_CHUNK", 97)
    v_b = biot_savart_eval(field, pts)
    assert np.abs(v_a - v_b).max() < 1e-13 * np.abs(v_a).max()


############################################
# Circulation diagnostic


def test_circulation_of_nonzero_mean_source():
    # surface side = (2/3) volume side at every enclosing radius; the
    # residual is pure quadrature error in v and shrinks as R grows
    ang, rad = _shell_grids()
    field = _axial_shell(ang, rad)
    ref = 4.0 * np.pi * (B_OUT ** 3 - A_IN ** 3) / 3.0
    gaps = []
    for R in (12.0, 24.0):
        v = biot_savart_eval(field, sphere_points(ang, R))
        surface, volume = circulation_diagnostic(v, ang, R, field)
        assert abs(volume[2] - ref) < 1e-10 * ref
        assert np.abs(volume[:2]).max() < 1e-10 * ref
        gap = np.abs(surface - (2.0 / 3.0) * volume).max()
        assert gap < 1e-10 * ref
        gaps.append(gap)
    assert gaps[1] < gaps[0] + 1e-12 * ref


def test_circulation_of_zero_mean_source():
    ang, rad = _shell_grids()
    field = _azimuthal_shell(ang, rad)
    R = 7.0
    v = biot_savart_eval(field, sphere_points(ang, R))
    surface, volume = circulation_diagnostic(v, ang, R, field)
    scale = 4.0 * np.pi * B_OUT ** 3
    assert np.abs(volume).max() < 1e-12 * scale
    assert np.abs(surface).max() < 1e-10 * scale


def test_circulation_of_nothing():
    ang, rad = _shell_grids(n_r=12, L=2)
    field = SampledField.zeros(rad, ang)
    surface, volume = circulation_diagnostic(
        np.zeros((ang.n_theta, ang.n_phi, 3)), ang, 6.0, field)
    assert np.abs(surface).max() == 0.0
    assert np.abs(volume).max() == 0.0


############################################
# Cross-check against the spectral solver


def _two_bump_source(rad, L, a, mid, b, seed):
    """
    Real compatible source living in the Phi channels only.

    Each mode carries f2 = c (g1 + beta_l g2) with two adjacent radial
    bumps mixed so the solvability moment of s^(1-l) f2 vanishes, while
    the exterior multipole integral of s^(2+l) f2 stays generically
    nonzero -- so the solution is visible beyond the support.
    """
    from divcurl.transform import mode_index

    rng = np.random.default_rng(seed)
    r = rad.r
    g1 = np.clip((r - a) * (mid - r), 0.0, None) ** 3
    g2 = np.clip((r - mid) * (b - r), 0.0, None) ** 3
    f = SpectralField(rad, L)
    for l in range(1, L + 1):
        beta = -rad.integrate(r ** (1.0 - l) * g1) / rad.integrate(r ** (1.0 - l) * g2)
        prof = g1 + beta * g2
        for m in range(l + 1):
            c = rng.standard_normal() + (1j * rng.standard_normal() if m else 0.0)
            c = c * (1.0 / 3.0) ** l
            f.coeffs[mode_index(l, m), 2] = c * prof
            f.coeffs[mode_index(l, -m), 2] = (-1) ** m * np.conj(c) * prof
    return f


def test_matches_spectral_solution_for_compatible_source():
    # evaluation beyond the source support, where the direct quadrature
    # converges; the two routes share no code past the sampled field
    ang, rad = make_grids(1.0, 5.0, 48, 8, breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
    f = _two_bump_source(rad, 6, 1.4, 1.8, 2.2, seed=3)
    V = solve_exterior(f)
    sampled = synthesize(f, ang)
    assert np.abs(sampled.values.imag).max() < 1e-12 * np.abs(sampled.values).max()

    rng = np.random.default_rng(4)
    pts = rng.standard_normal((8, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts * rng.uniform(4.3, 4.9, (8, 1))
    direct = biot_savart_eval(sampled, pts)
    spectral = synthesize_at(V, pts)
    scale = np.abs(spectral).max()
    assert np.abs(direct - spectral).max() < 1e-3 * scale
    assert np.abs(direct.imag).max() < 1e-10 * scale
