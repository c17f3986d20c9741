"""
Planar moment conditions on disk, exterior, and annulus geometries.
"""

import numpy as np
import pytest
from scipy.integrate import simpson

from divcurl.planar import PlanarGeometry, PolarGrid, laplacian_ridge, planar_moments


def _dense_moment(f, lo, hi, k, conjugate_power=False, n_rho=2001, n_phi=720):
    """
    Brute-force moment integral, independent of the package quadrature:
    Simpson in radius, trapezoid in angle (spectrally accurate for the
    periodic direction).  f(rho, phi) is a callable; the power is z^k, or
    conj(z)^k when conjugate_power is set.
    """
    rho = np.linspace(lo, hi, n_rho)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    R, P = np.meshgrid(rho, phi, indexing="ij")
    z = R * np.exp(1j * P)
    zk = np.conj(z) ** k if conjugate_power else z ** k
    vals = f(R, P) * zk * R
    ang = vals.sum(axis=1) * (2.0 * np.pi / n_phi)
    return simpson(ang, x=rho)


############################################
# Grid and geometry basics


def test_disk_area():
    g = PolarGrid(PlanarGeometry("disk", 2.0), 32, 16)
    assert abs(g.integrate(np.ones((32, 16))) - 4.0 * np.pi) < 1e-12


def test_annulus_area():
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 32, 16)
    assert abs(g.integrate(np.ones((32, 16))) - 3.0 * np.pi) < 1e-12


@pytest.mark.filterwarnings("error")      # the finite check comes before any breakpoints
def test_polar_grid_validation():
    disk = PlanarGeometry("disk", 1.0)
    with pytest.raises(ValueError):
        PolarGrid(PlanarGeometry("annulus", -1.0, r1=2.0), 16, 8)
    with pytest.raises(ValueError):
        PolarGrid(PlanarGeometry("annulus", 2.0, r1=1.0), 16, 8)
    with pytest.raises(ValueError):
        PolarGrid(disk, 16, 0)
    with pytest.raises(ValueError):
        PolarGrid(disk, 15, 8, breakpoints=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="breakpoints must span"):
        PolarGrid(disk, 16, 8, breakpoints=[0.0, 0.5, 0.9])
    for geom, bp in ((PlanarGeometry("disk", np.inf), None),
                     (PlanarGeometry("exterior", 1.0, R_sup=np.inf), None),
                     (disk, [0.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            PolarGrid(geom, 16, 8, breakpoints=bp)


def test_polar_grid_refuses_breakpoints_off_a_small_grid():
    # the tolerance scales with rho_max: these would integrate from 3e-13
    with pytest.raises(ValueError, match="breakpoints must span"):
        PolarGrid(PlanarGeometry("annulus", 1e-13, r1=5e-13), 16, 9,
                  breakpoints=[3e-13, 4e-13, 5e-13])


def test_polar_grid_refuses_no_radial_nodes():
    # no radial nodes: refused before any panel layout is worked out
    for bp in (None, [0.0, 0.5, 1.0]):
        with pytest.raises(ValueError, match="n_rho and n_phi must be positive"):
            PolarGrid(PlanarGeometry("disk", 1.0), 0, 8, breakpoints=bp)


def test_geometry_validation():
    with pytest.raises(ValueError):
        PlanarGeometry("square", 1.0)
    with pytest.raises(ValueError):
        PlanarGeometry("disk", -1.0)
    with pytest.raises(ValueError):
        PlanarGeometry("disk", 1.0, r1=2.0)
    with pytest.raises(ValueError):
        PlanarGeometry("annulus", 1.0)
    with pytest.raises(ValueError):
        PlanarGeometry("annulus", 1.0, r1=0.5)
    with pytest.raises(ValueError):
        PlanarGeometry("exterior", 1.0)
    with pytest.raises(ValueError):
        PlanarGeometry("exterior", 1.0, R_sup=0.5)
    for kind, extra in (("disk", {"R_sup": 2.0}), ("annulus", {"r1": 2.0, "R_sup": 3.0})):
        with pytest.raises(ValueError, match="R_sup is only meaningful"):
            PlanarGeometry(kind, 1.0, **extra)


@pytest.mark.parametrize("args, kw, message", [
    (("disk", np.nan), {}, "r0 must be positive, got nan"),
    (("annulus", 1.0), {"r1": np.nan}, "annulus needs r1 > r0"),
    (("exterior", 1.0), {"R_sup": np.nan}, "exterior needs a support radius R_sup > r0"),
])
def test_geometry_refuses_nan_radii(args, kw, message):
    with pytest.raises(ValueError, match=message):
        PlanarGeometry(*args, **kw)

def test_geometry_domains_and_powers():
    disk = PlanarGeometry("disk", 2.0)
    ann = PlanarGeometry("annulus", 1.0, r1=2.0)
    ext = PlanarGeometry("exterior", 1.0, R_sup=3.0)
    assert disk.domain() == (0.0, 2.0)
    assert ann.domain() == (1.0, 2.0)
    assert ext.domain() == (1.0, 3.0)
    assert disk.powers(3) == [0, 1, 2, 3]
    assert ann.powers(2) == [-2, -1, 0, 1, 2]
    assert ext.powers(2) == [0, 1, 2]


############################################
# Analytic moment values


def test_constant_on_disk_has_no_first_moment():
    g = PolarGrid(PlanarGeometry("disk", 2.0), 32, 17)
    mom = planar_moments(np.ones((32, 17)), g, 3)
    assert abs(mom[0] - 4.0 * np.pi) < 1e-12
    for k in (1, 2, 3):
        assert abs(mom[k]) < 1e-12


def test_x1_on_disk_first_moment():
    # integral of x1 (x1 + i x2) over the disk of radius R is pi R^4 / 4
    R = 2.0
    g = PolarGrid(PlanarGeometry("disk", R), 32, 17)
    x1 = g.rho[:, None] * np.cos(g.phi[None, :])
    mom = planar_moments(x1, g, 2)
    assert abs(mom[1] - np.pi * R ** 4 / 4.0) < 1e-12
    assert abs(mom[1].imag) < 1e-12
    assert abs(mom[0]) < 1e-12 and abs(mom[2]) < 1e-12


def test_annulus_negative_power_matches_brute_force():
    # f = Re(z^2) on the annulus against z^(-2): analytic pi (r1^2 - r0^2)/2
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 32, 33)
    f = lambda R, P: R ** 2 * np.cos(2.0 * P)
    samples = f(g.rho[:, None], g.phi[None, :])
    mom = planar_moments(samples, g, 4)
    assert abs(mom[-2] - 1.5 * np.pi) < 1e-12
    brute = _dense_moment(f, 1.0, 2.0, -2)
    assert abs(mom[-2] - brute) < 1e-10 * abs(brute)
    # the conj(z)^2 half of Re(z^2) survives against z^2: half of
    # 2 pi integral rho^5 d rho
    assert abs(mom[2] - 10.5 * np.pi) < 1e-12
    assert abs(mom[1]) < 1e-12 and abs(mom[-1]) < 1e-12


def test_exterior_moments_use_reciprocal_powers():
    # f = rho e^{2 i phi} supported on [1, 3]: moment against z^(-2) is
    # 2 pi integral of d rho = 4 pi
    g = PolarGrid(PlanarGeometry("exterior", 1.0, R_sup=3.0), 32, 17)
    samples = g.rho[:, None] * np.exp(2j * g.phi[None, :])
    mom = planar_moments(samples, g, 3)
    assert abs(mom[2] - 4.0 * np.pi) < 1e-12
    for k in (0, 1, 3):
        assert abs(mom[k]) < 1e-12


def test_conjugation_against_oracle():
    # moment_k of conj(f) equals the conjugate of the moment of f computed
    # with the conjugated power, checked by dense independent quadrature
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 32, 33)
    f = lambda R, P: (R ** 3 * np.exp(1j * P)
                      + (2.0 - R) * np.exp(-2j * P) * 1j + R ** 2)
    samples = f(g.rho[:, None], g.phi[None, :])
    conj_mom = planar_moments(np.conj(samples), g, 3)
    for k in (-3, -1, 0, 1, 2):
        brute = _dense_moment(f, 1.0, 2.0, k, conjugate_power=True)
        assert abs(np.conj(conj_mom[k]) - brute) < 1e-9 * max(abs(brute), 1.0)


def test_linearity():
    g = PolarGrid(PlanarGeometry("disk", 2.0), 32, 17)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal((32, 17)) + 1j * rng.standard_normal((32, 17))
    f2 = rng.standard_normal((32, 17))
    a = planar_moments(f1 + 2.0 * f2, g, 4)
    b1 = planar_moments(f1, g, 4)
    b2 = planar_moments(f2, g, 4)
    for k in a:
        assert abs(a[k] - (b1[k] + 2.0 * b2[k])) < 1e-12


############################################
# Laplacian sources have vanishing moments


def test_laplacian_on_disk_has_no_moments():
    # f = Laplacian(psi) for psi = p(rho) cos(2 phi) + q(rho), compactly
    # supported: every moment vanishes to rounding when the support edges
    # sit on panel breakpoints
    g = PolarGrid(PlanarGeometry("disk", 2.0), 64, 33, breakpoints=[0.0, 0.4, 1.0, 1.6, 2.0])
    f = laplacian_ridge(g, 0.4, 1.2, 2) + laplacian_ridge(g, 0.4, 1.2, 0)
    mom = planar_moments(f, g, 8)
    scale = np.abs(f).max() * g.rho_max ** 2
    assert max(abs(v) for v in mom.values()) < 1e-10 * scale


def test_laplacian_on_annulus_has_no_moments_either_sign():
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 48, 33,
                  breakpoints=[1.0, 1.25, 1.75, 2.0])
    f = laplacian_ridge(g, 1.25, 0.5, 2)
    mom = planar_moments(f, g, 6)
    scale = np.abs(f).max() * g.rho_max ** 2
    assert max(abs(v) for v in mom.values()) < 1e-10 * scale


def test_misaligned_support_breaks_the_cancellation():
    # the same source without panel alignment leaves visible residuals --
    # the discrete by-parts identity needs the support edges on breakpoints
    g = PolarGrid(PlanarGeometry("disk", 2.0), 64, 33)     # default equispaced panels
    f = laplacian_ridge(g, 0.4, 1.2, 2)
    mom = planar_moments(f, g, 8)
    scale = np.abs(f).max() * g.rho_max ** 2
    assert max(abs(v) for v in mom.values()) > 1e-8 * scale


############################################
# Validation of the moment call


def test_moment_validation():
    g = PolarGrid(PlanarGeometry("disk", 2.0), 32, 17)
    f = np.zeros((32, 17))
    with pytest.raises(ValueError):
        planar_moments(np.zeros((16, 17)), g, 2)
    with pytest.raises(ValueError):
        planar_moments(f, g, -1)
    with pytest.raises(ValueError):
        planar_moments(f, g, 9)        # needs k_max <= (17-1)//2
