"""
The tangential r^-(l+1) family: curl-curl annihilation and orthogonality.
"""

import numpy as np
import pytest

from divcurl.grids import make_grids, surface_integral
from divcurl.pseudoharmonic import (harmonicity_check, phf_field,
                                    verify_pseudoharmonic)
from divcurl.solver import check_compatibility, radial_moments
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
    _, rad = _wide_grids()
    for l, m in [(1, 0), (2, 2), (4, -3)]:
        assert harmonicity_check(l, m, rad, 6) < 1e-9


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
