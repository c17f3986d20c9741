"""
The direct volume-integral evaluator and the circulation diagnostic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divcurl import biotsavart
from divcurl.biotsavart import (_POINT_BLOCK, ProximityError, biot_savart_eval,
                                circulation_diagnostic, sphere_points)
from divcurl.cli import main
from divcurl.fileio import write_points, write_vfld
from divcurl.grids import AngularGrid, RadialGrid, SampledField, make_grids
from divcurl.pseudoharmonic import two_bump_source
from divcurl.solver import CompatibilityWarning, radial_moments, solve_exterior
from divcurl.transform import SpectralField, synthesize, synthesize_at
from fixtures import traced_peak

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
    field = SampledField(rad, ang, np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3)))
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
    """
    The quadrature sum term by term: one source node at a time.  Nodes
    where f = 0 add no term, so the sum is defined at a point on one.
    """
    rad, ang = field.radial, field.angular
    out = np.zeros((len(pts), 3), dtype=complex)
    for i, r in enumerate(rad.r):
        for j, (t, ct, wt) in enumerate(zip(ang.theta, ang.ct, ang.w_ct)):
            st = np.sin(t)
            for k, p in enumerate(ang.phi):
                cp, sp = np.cos(p), np.sin(p)
                vr, vt, vp = field.values[i, j, k]
                if vr == vt == vp == 0.0:
                    continue
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
# Proximity, and the cavity inside r0


def test_axial_shell_field_vanishes_inside_the_sphere():
    # the sum is defined wherever no live node is near, the cavity included:
    # there the shell's field is zero, at the origin and on |x| = r0 too
    field = _axial_shell(AngularGrid(40, 81), RadialGrid([1.0, A_IN, B_OUT, 5.0], 8))
    inside = biot_savart_eval(field, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.6, -0.8],
                                      [0.3, -0.5, 0.2]])
    beyond = biot_savart_eval(field, _shell_points(6, 8, 3.6, 4.9))
    assert np.abs(inside).max() <= 1e-12 * np.abs(beyond).max()


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


def test_point_on_dead_node_is_summed(monkeypatch):
    # a node where f = 0 adds no term to the sum, so a point exactly on it
    # gets the finite sum over the live nodes
    ang, rad = _shell_grids()
    field = _axial_shell(ang, rad)
    dead = np.argmin(np.abs(rad.r - 4.5))
    theta, phi = ang.theta[3], ang.phi[5]
    st = np.sin(theta)
    node = rad.r[dead] * np.array([st * np.cos(phi), st * np.sin(phi),
                                   np.cos(theta)])
    assert np.all(field.values[dead, 3, 5] == 0.0)
    pts = np.array([[0.0, 4.2, 1.0], node])
    ref = _per_pair_reference(field, pts)
    for chunk in (512, 13):
        monkeypatch.setattr(biotsavart, "_SOURCE_CHUNK", chunk)
        v = biot_savart_eval(field, pts)
        assert np.all(np.isfinite(v))
        assert np.abs(v - ref).max() < 1e-13 * np.abs(ref).max()


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
    for pts in (np.zeros((2, 4)), np.array([[5.0 + 1j, 0.0, 0.0]])):
        with pytest.raises(ValueError):
            biot_savart_eval(field, pts)


############################################
# Determinism across point blocks


def test_each_block_sums_as_a_call_of_its_own():
    # two whole point blocks and a partial third, against one call per block
    ang, rad = _shell_grids()
    field = _azimuthal_shell(ang, rad)
    rng = np.random.default_rng(2)
    pts = rng.uniform(4.0, 6.0, (2 * _POINT_BLOCK + 7, 3))
    blocks = [biot_savart_eval(field, pts[lo:lo + _POINT_BLOCK])
              for lo in range(0, len(pts), _POINT_BLOCK)]
    assert np.array_equal(biot_savart_eval(field, pts), np.concatenate(blocks))


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
        return traced_peak(lambda: biot_savart_eval(field, pts))[1]

    small, large = peak(_POINT_BLOCK), peak(1000)
    out_bytes = 1000 * 3 * 16
    assert large - small < 3 * out_bytes


def test_source_memory_follows_the_live_nodes():
    # only the nodes where f is nonzero are kept: with a quarter of them
    # live the call peaks at about 0.35 of the fully live field's peak
    # (0.60 when every node was converted and kept)
    ang, rad = make_grids(1.0, 3.0, 96, 16)
    rng = np.random.default_rng(11)
    shape = (rad.n_r, ang.n_theta, ang.n_phi, 3)
    full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    quarter = full.copy()
    quarter[rng.random(shape[:3]) >= 0.25] = 0.0
    pts = np.array([[4.0, 0.0, 0.0], [0.0, 1.0, -4.5]])

    def peak(values):
        field = SampledField(rad, ang, values)
        return traced_peak(lambda: biot_savart_eval(field, pts))[1]

    assert peak(quarter) < 0.5 * peak(full)


@pytest.mark.parametrize("nodes", [1, 300, 5000])
def test_source_shell_chunks_keep_every_bit(monkeypatch, nodes):
    # the source is converted _SHELL_NODES at a time (whole radial shells):
    # the sum, and the point a ProximityError names, do not depend on it
    ang, rad = _shell_grids(n_r=24, L=6)
    field = _random_shell(ang, rad, seed=12)
    pts = np.random.default_rng(13).uniform(4.0, 6.0, (2 * _POINT_BLOCK + 5, 3))
    ref = biot_savart_eval(field, pts)
    # two points of the second block near nodes where f is nonzero: the
    # first near the last such node, the second near the first, whose source
    # chunk comes first, so the second point is the one named
    live = np.argwhere((field.values != 0.0).any(axis=-1))
    assert len(live) > biotsavart._SOURCE_CHUNK     # the two lie in different chunks
    on = []
    for i, t, p in (live[-1], live[0]):
        st = np.sin(ang.theta[t])
        on.append(rad.r[i] * np.array([st * np.cos(ang.phi[p]),
                                       st * np.sin(ang.phi[p]),
                                       np.cos(ang.theta[t])]) + 1e-9)
    hits = pts.copy()
    hits[_POINT_BLOCK + 1], hits[_POINT_BLOCK + 3] = on
    with pytest.raises(ProximityError) as default:
        biot_savart_eval(field, hits)
    assert str(hits[_POINT_BLOCK + 3]) in str(default.value)
    monkeypatch.setattr(biotsavart, "_SHELL_NODES", nodes)
    assert biot_savart_eval(field, pts).tobytes() == ref.tobytes()
    with pytest.raises(ProximityError) as chunked:
        biot_savart_eval(field, hits)
    assert str(chunked.value) == str(default.value)


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
    field = SampledField(rad, ang, np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3)))
    surface, volume = circulation_diagnostic(
        np.zeros((ang.n_theta, ang.n_phi, 3)), ang, 6.0, field)
    assert np.abs(surface).max() == 0.0
    assert np.abs(volume).max() == 0.0


############################################
# Cross-check against the spectral solver


def test_matches_spectral_solution_for_compatible_source():
    # evaluation beyond the source support, where the direct quadrature
    # converges; the two routes share no code past the sampled field
    ang, rad = make_grids(1.0, 5.0, 48, 8, breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
    f = two_bump_source(rad, 6, 1.4, 1.8, 2.2, np.random.default_rng(3))
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


############################################
# The solvability criterion from the Biot-Savart side.  Extended by zero,
# f has a Biot-Savart field that is harmonic in the cavity r < r0, and
# its (l, m) part there is proportional to the moment M_lm, so the paper's
# criterion reads: compatible data leaves the cavity field-free.  The direct
# sum evaluates the cavity like any other point away from the live nodes.


def _shell_points(seed, n, lo, hi):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(lo, hi, (n, 1))


def _cavity_grids(lam=1.0):
    # 8 panels of 16 nodes on [1, 5] lam; the bumps' edges sit on breakpoints
    return make_grids(lam, 5.0 * lam, 128, 6, breakpoints=lam * np.linspace(1.0, 5.0, 9))


def test_compatible_source_leaves_the_cavity_field_free():
    _, rad = _cavity_grids()
    f = two_bump_source(rad, 6, 1.5, 2.0, 2.5, np.random.default_rng(3))
    sampled = synthesize(f, AngularGrid(40, 81))
    inside = biot_savart_eval(sampled, _shell_points(5, 8, 0.2, 0.9))
    beyond = biot_savart_eval(sampled, _shell_points(6, 8, 3.5, 4.9))
    assert np.abs(inside).max() <= 1e-12 * np.abs(beyond).max()


def test_cavity_field_of_a_mode_follows_its_moment():
    # per unit M_lm the cavity field does not depend on the radial profile
    _, rad = _cavity_grids()
    r, ang, pts = rad.r, AngularGrid(30, 61), _shell_points(5, 8, 0.2, 0.9)
    profiles = (np.clip((r - 1.5) * (2.0 - r), 0.0, None) ** 3,
                np.clip((r - 2.0) * (3.0 - r), 0.0, None) ** 2 * (1.0 + r))
    for l in (1, 2, 3):
        per_moment = []
        for g in profiles:
            S = SpectralField(rad, 3)
            S.set_mode(l, l - 1, 2, g)
            M = radial_moments(rad, g[None], np.array([l]))[0]
            per_moment.append(biot_savart_eval(synthesize(S, ang), pts) / M)
        assert np.abs(per_moment[0] - per_moment[1]).max() <= 1e-12 * np.abs(per_moment[0]).max()


UNITS = [2.0 ** -10, 0.1, 1.0, 10.0, 2.0 ** 10]


@pytest.mark.parametrize("lam", UNITS)
def test_upsampled_direct_sum_matches_the_solution_to_rounding(lam):
    # the solve's own angular grid agrees only to 1e-3 (above); on (60, 121)
    # the quadrature of the source has converged a radius unit beyond it.
    # tol = inf: the gate's warning is D3's (below), not the solution's
    _, rad = _cavity_grids(lam)
    f = two_bump_source(rad, 6, 1.5, 2.0, 2.5, np.random.default_rng(3))
    pts = lam * _shell_points(6, 8, 3.5, 4.9)
    direct = biot_savart_eval(synthesize(f, AngularGrid(60, 121)), pts)
    spectral = synthesize_at(solve_exterior(f, tol=np.inf), pts)
    assert np.abs(direct - spectral).max() <= 1e-12 * np.abs(spectral).max()


@settings(derandomize=True, max_examples=5, deadline=None)
@given(e=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_random_compatible_source_agrees_from_both_sides(e, seed):
    # random two-bump data in a unit r0 = 10^e: the cavity field vanishes, and
    # beyond the support the upsampled direct sum is the solution
    r0 = 10.0 ** e
    f = two_bump_source(_cavity_grids(r0)[1], 6, 1.5, 2.0, 2.5, np.random.default_rng(seed))
    sampled = synthesize(f, AngularGrid(60, 121))
    pts = r0 * _shell_points([seed, 1], 8, 3.5, 4.9)
    direct = biot_savart_eval(sampled, pts)
    inside = biot_savart_eval(sampled, r0 * _shell_points([seed, 2], 8, 0.2, 0.9))
    spectral = synthesize_at(solve_exterior(f, tol=np.inf), pts)
    assert np.abs(inside).max() <= 1e-12 * np.abs(direct).max()
    assert np.abs(direct - spectral).max() <= 1e-10 * np.abs(spectral).max()


@pytest.mark.xfail(strict=True, raises=CompatibilityWarning, reason="ROADMAP D3")
def test_compatible_two_bump_source_is_clean_in_every_unit():
    # the gate scales the moment by the data norm, so at 2^-10 this source is
    # warned although its solution matches the direct sum to rounding (above)
    for lam in UNITS:
        f = two_bump_source(_cavity_grids(lam)[1], 6, 1.5, 2.0, 2.5, np.random.default_rng(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompatibilityWarning)
            solve_exterior(f)
