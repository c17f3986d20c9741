"""
The tangential r^-(l+1) family: curl-curl annihilation and orthogonality.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divcurl.grids import RadialGrid, make_grids, surface_integral
from divcurl.pseudoharmonic import (curl_curl_source, matched_flow_source, phf_field,
                                    two_bump_source, verify_pseudoharmonic)
from divcurl.solver import _moment_targets, check_compatibility, radial_moments
from divcurl.transform import (ScalarSpectral, SpectralField, mode_index,
                               spectral_curl, spectral_div, spectral_grad,
                               synthesize)


def _wide_grids(L=6):
    # two wide panels resolve the slowly decaying profiles well
    return make_grids(1.0, 5.0, 64, L, breakpoints=[1.0, np.sqrt(5.0), 5.0])


############################################
# Defining identities


def test_family_annihilated_by_curl_curl():
    _, rad = _wide_grids()
    for l in range(1, 5):
        for m in range(-l, l + 1):
            rep = verify_pseudoharmonic(phf_field(l, m, rad, 6))
            assert rep.residual < 1e-9
            assert not rep.degenerate
            assert rep.curl_norm > 1e-3


def test_family_is_divergence_free():
    _, rad = _wide_grids()
    S = phf_field(3, -2, rad, 6)
    assert np.abs(spectral_div(S).coeffs).max() == 0.0


def test_family_curl_has_known_channels():
    # curl(Phi_lm r^-(l+1)) = -l(l+1) r^-(l+2) Y + l r^-(l+2) Psi
    _, rad = _wide_grids()
    r = rad.r
    l, m = 2, 1
    C = spectral_curl(phf_field(l, m, rad, 6))
    k = mode_index(l, m)
    assert np.abs(C.coeffs[k, 0] + 6.0 * r ** -4.0).max() < 1e-9
    assert np.abs(C.coeffs[k, 1] - 2.0 * r ** -4.0).max() < 1e-9


def test_harmonicity():
    # -grad div + curl curl: the divergence is exactly zero, so the vector
    # Laplacian is the curl-curl term alone
    _, rad = _wide_grids()
    for l, m in [(1, 0), (2, 2), (4, -3)]:
        S = phf_field(l, m, rad, 6)
        assert np.all(spectral_div(S).coeffs == 0)
        assert verify_pseudoharmonic(S).residual < 1e-9


def test_zero_field_reports_degenerate():
    _, rad = _wide_grids(L=2)
    rep = verify_pseudoharmonic(SpectralField(rad, 2))
    assert rep == (0.0, 0.0, True)


def test_gradient_field_reports_degenerate():
    # a curl-free field satisfies the identity vacuously
    _, rad = _wide_grids(L=3)
    s = ScalarSpectral(rad, 3)
    s.coeffs[mode_index(2, 1)] = rad.r ** 2
    rep = verify_pseudoharmonic(spectral_grad(s))
    assert rep.degenerate
    assert rep.residual < 1e-9


@settings(derandomize=True, max_examples=20, deadline=None)
@given(k=st.integers(-40, 40))
@example(k=-30)
@example(k=30)
def test_verify_reports_the_same_ratios_in_every_unit(k):
    # scaled by h = rmax - r0, a member on 2^k [1, 5] keeps its unit-scale
    # residual to rounding (0.2 % apart at worst), and a gradient stays degenerate
    unit = verify_pseudoharmonic(phf_field(3, 1, make_grids(1.0, 5.0, 64, 6)[1], 6))
    _, rad = make_grids(2.0 ** k, 5.0 * 2.0 ** k, 64, 6)
    rep = verify_pseudoharmonic(phf_field(3, 1, rad, 6))
    assert not rep.degenerate and abs(rep.residual - unit.residual) <= 1e-2 * unit.residual
    s = ScalarSpectral(rad, 3)
    s.coeffs[mode_index(2, 1)] = (rad.r / rad.r0) ** 2
    grad = verify_pseudoharmonic(spectral_grad(s))
    assert grad.degenerate and grad.residual < 1e-9


def test_validation():
    _, rad = _wide_grids(L=4)
    with pytest.raises(ValueError):
        phf_field(0, 0, rad, 4)
    with pytest.raises(ValueError):
        phf_field(5, 0, rad, 4)
    with pytest.raises(ValueError):
        phf_field(2, 3, rad, 4)


def test_large_degree_profile_stays_finite():
    _, rad = _wide_grids(L=2)
    S = phf_field(25, 0, rad.__class__(rad.breakpoints, rad.nodes_per_panel), 25)
    prof = S.coeffs[mode_index(25, 0), 2].real
    assert np.all(np.isfinite(prof))
    assert np.all(prof > 0.0)
    assert np.all(np.diff(prof) < 0.0)


def test_high_degree_profile_is_the_plain_power():
    _, rad = _wide_grids(L=2)
    S = phf_field(30, -4, rad, 30)
    prof = S.coeffs[mode_index(30, -4), 2]
    assert np.array_equal(prof.real, rad.r ** -31.0)
    assert np.all(prof.imag == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r0", [1e-40, 1e40])
def test_member_outside_the_normal_floats_is_refused(r0):
    # r^-9 overflows at r0 = 1e-40 and underflows to 0 at 1e40: refused
    # before numpy warns, while the l = 1 member stays representable
    _, rad = make_grids(r0, 5.0 * r0, 64, 8)
    want = "r^-(l+1) at l = 8 is not a normal float on RadialGrid([%g, " % r0
    with pytest.raises(ValueError, match="^" + re.escape(want)):
        phf_field(8, 0, rad, 8)
    prof = phf_field(1, 0, rad, 8).coeffs[mode_index(1, 0), 2].real
    assert np.all(np.isfinite(prof) & (prof > 0.0))


############################################
# Orthogonality against source data


def test_volume_form_matches_direct_quadrature():
    # l(l+1) times the radial moment equals the honest 3D inner product
    ang, rad = _wide_grids()
    rng = np.random.default_rng(0)
    f = SpectralField(rad, 6)
    bump = np.exp(-((rad.r - 3.0) / 0.8) ** 2)
    scal = (rng.standard_normal((f.n_modes, 3))
            + 1j * rng.standard_normal((f.n_modes, 3)))
    f.coeffs[:] = scal[:, :, None] * bump[None, None, :]
    f.coeffs[0, 1:] = 0.0

    l, m = 3, 1
    vol = l * (l + 1.0) * radial_moments(rad, f.coeffs[:, 2], f.ells)[
        mode_index(l, m)]
    vf = synthesize(f, ang).values
    vg = synthesize(phf_field(l, m, rad, 6), ang).values
    dens = (vf * np.conj(vg)).sum(axis=-1)
    shell = np.array([surface_integral(ang, dens[i]) for i in range(rad.n_r)])
    direct = rad.integrate(shell * rad.r ** 2)
    assert abs(vol - direct) < 1e-12 * max(abs(direct), 1.0)


def test_radial_form_is_the_solver_moment():
    _, rad = _wide_grids()
    rng = np.random.default_rng(1)
    f = SpectralField(rad, 6)
    f.coeffs[:, 2] = (rng.standard_normal((f.n_modes, rad.n_r))
                      + 1j * rng.standard_normal((f.n_modes, rad.n_r)))
    f.coeffs[0, 1:] = 0.0
    rep = check_compatibility(f)
    # one moment integral serves both, so they agree to the bit
    moments = radial_moments(rad, f.coeffs[:, 2], f.ells)
    assert np.array_equal(moments, rep.moment)


############################################
# The library's compatible sources in every length unit


def _unit_grid(r0):
    return RadialGrid(r0 * np.linspace(1.0, 5.0, 5), 32)


UNITS = [2.0 ** k for k in (-10, 0, 10)]


@pytest.mark.parametrize("decay", [1 / 3, 0.9, 1.0])
@pytest.mark.parametrize("L", [8, 24, 48])
def test_curl_curl_source_is_compatible_in_every_unit(L, decay):
    # the data alone: no normal trace at the wall, and each moment is
    # rounding next to the integral of its integrand's modulus
    for r0 in UNITS:
        rad = _unit_grid(r0)
        f, _ = curl_curl_source(rad, L, np.random.default_rng(L), decay)
        assert np.all(rad.at_r0(f.coeffs[:, 0]) == 0.0)
        f2 = f.coeffs[:, 2]
        scale = radial_moments(rad, np.abs(f2), f.ells)
        assert np.all(np.abs(radial_moments(rad, f2, f.ells)) <= 1e-10 * scale)


@pytest.mark.parametrize("r0", UNITS)
def test_matched_flow_profile_meets_its_target_in_every_unit(r0):
    # the l = 1 profiles meet the solve's flow targets and have no s^3 integral
    rad = RadialGrid(r0 * np.linspace(1.0, 5.0, 5), 16)
    s3 = rad.r ** 3
    for far in ((0.0, 0.0, 1.0), (0.3, -0.4, 0.5), (1.0, 2.0, 0.0)):
        f = matched_flow_source(rad, 2, far)
        target = _moment_targets(f.n_modes, far)
        gap = check_compatibility(f).moment - target
        assert np.abs(gap).max() <= 1e-14 * np.abs(target).max()
        f2 = f.coeffs[:, 2]
        assert np.all(np.abs(rad.integrate(s3 * f2)) <= 1e-14 * rad.integrate(s3 * np.abs(f2)))


def test_matched_flow_source_refuses_what_it_cannot_hold():
    # no l = 1 mode, or no node in [3, 4] r0: a ValueError, not a LinAlgError
    rad = RadialGrid([1.0, 2.0, 3.0], 8)
    with pytest.raises(ValueError, match="need L_max >= 1 to hold an l = 1 field"):
        matched_flow_source(rad, 0, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"holds no node of {rad!r}")):
        matched_flow_source(rad, 2, (0.0, 0.0, 1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r0", UNITS)
def test_two_bump_source_is_compatible_and_reaches_past_its_support(r0):
    # a real field whose moments are rounding next to their modulus integrals,
    # while its exterior multipoles, of s^(2+l) f2, are not
    rad = RadialGrid(r0 * np.linspace(1.0, 5.0, 9), 16)
    f = two_bump_source(rad, 8, 1.5, 2.0, 2.5, np.random.default_rng(8))
    assert not f.coeffs[:, :2].any() and not f.coeffs[0].any()
    f2, ells = f.coeffs[1:, 2], f.ells[1:]
    moment = np.abs(radial_moments(rad, f2, ells))
    assert np.all(moment <= 1e-14 * radial_moments(rad, np.abs(f2), ells))
    p = rad.r ** (2.0 + ells[:, None])
    assert np.all(np.abs(rad.integrate(p * f2)) >= 0.3 * rad.integrate(p * np.abs(f2)))
    for l in range(1, 9):
        for m in range(l + 1):
            assert np.array_equal(f.coeffs[mode_index(l, -m)],
                                  (-1) ** m * np.conj(f.coeffs[mode_index(l, m)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r0, abc, want", [
    (1.0, (5.5, 6.0, 6.5), "a bump on [5.5, 6.0] or [6.0, 6.5] r0 holds no node of {}"),
    (1.0, (1.001, 1.002, 1.5), "a bump on [1.001, 1.002] or [1.002, 1.5] r0 holds no node of {}"),
    (1e-10, (1.5, 2.0, 2.5), "the bump moments at l = 32 are not representable on {}"),
    (1e10, (1.5, 2.0, 2.5), "the bump moments at l = 32 are not representable on {}")])
def test_two_bump_source_refuses_what_it_cannot_represent(r0, abc, want):
    # a bump beyond the grid or between two nodes, or s^(1-l) g2 that
    # overflows or underflows: refused before numpy warns
    rad = RadialGrid(r0 * np.linspace(1.0, 5.0, 9), 16)
    with pytest.raises(ValueError, match="^" + re.escape(want.format(repr(rad))) + "$"):
        two_bump_source(rad, 40, *abc, np.random.default_rng(8))
