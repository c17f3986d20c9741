"""
End-to-end guarantees of the package at desk scale:
L_max = 8, n_r = 64, r0 = 1, rmax = 5.
"""

import numpy as np
import pytest

import sph_oracle
from divcurl.biotsavart import (biot_savart_eval, circulation_diagnostic,
                                sphere_points)
from divcurl.grids import AngularGrid, SampledField, make_grids, surface_integral
from divcurl.planar import PlanarGeometry, planar_moments
from divcurl.pseudoharmonic import phf_field, verify_pseudoharmonic
from divcurl.solver import (boundary_trace, check_compatibility,
                            partial_slip_project, radial_moments,
                            solve_exterior)
from divcurl.transform import (SpectralField, mode_index, spectral_curl,
                               spectral_div, synthesize, synthesize_at)

R0, RMAX, N_R, L_MAX = 1.0, 5.0, 64, 8
SQRT_4PI_3 = 2.046653415892977
SQRT_3PI = 3.0699801238394655


def _support_grids(n_r=N_R, L=L_MAX):
    """Panels aligned with the [2, 4] support shell of the fixtures."""
    return make_grids(R0, RMAX, n_r, L, breakpoints=[1, 2, 3, 4, 5])


def _manufactured(rad, seed):
    """Source f = curl(curl A) with known exact solution V = curl A."""
    rng = np.random.default_rng(seed)
    bump = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    A = SpectralField(rad, L_MAX)
    amp = (1.0 / 3.0) ** A.ells
    scal = amp[:, None] * (rng.standard_normal((A.n_modes, 3))
                           + 1j * rng.standard_normal((A.n_modes, 3)))
    A.coeffs[:] = scal[:, :, None] * bump[None, None, :]
    A.coeffs[0, 1:] = 0.0
    V = spectral_curl(A)
    return spectral_curl(V), V


@pytest.fixture(scope="module")
def suite():
    _, rad = _support_grids()
    return rad, [_manufactured(rad, seed) for seed in range(5)]


############################################
# 1. Basis orthonormality


def test_basis_inner_products_match_their_norms():
    ang = AngularGrid(18, 33)
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    fields, norms = [], []
    for kind in ("Y", "Psi", "Phi"):
        for l in range(L_MAX + 1):
            if l == 0 and kind != "Y":
                continue
            for m in range(-l, l + 1):
                fields.append(np.stack(sph_oracle.vector(kind, l, m, T, P), axis=-1))
                norms.append(1.0 if kind == "Y" else l * (l + 1.0))
    F = np.array(fields)
    w = ang.w_ct[:, None] * ang.w_phi
    gram = np.einsum("atpc,btpc,tp->ab", F, np.conj(F), w)
    assert np.abs(gram - np.diag(norms)).max() < 1e-12


############################################
# 2-3. The tangential r^-(l+1) family


@pytest.fixture(scope="module")
def wide_rad():
    return make_grids(R0, RMAX, N_R, L_MAX,
                      breakpoints=[1.0, np.sqrt(5.0), 5.0])[1]


def test_family_killed_by_curl_curl_but_not_by_curl(wide_rad):
    for l in range(1, 7):
        for m in range(-l, l + 1):
            rep = verify_pseudoharmonic(phf_field(l, m, wide_rad, L_MAX))
            assert rep.residual <= 1e-9
            assert rep.curl_norm > 1e-3
            assert not rep.degenerate


def test_family_is_vector_harmonic(wide_rad):
    for l in range(1, 7):
        for m in range(-l, l + 1):
            # -grad div + curl curl, whose divergence term is exactly zero
            S = phf_field(l, m, wide_rad, L_MAX)
            assert np.all(spectral_div(S).coeffs == 0)
            assert verify_pseudoharmonic(S).residual <= 1e-9


############################################
# 4. Manufactured-solution recovery


def test_manufactured_solutions_recovered(suite):
    _, pairs = suite
    for f, V in pairs:
        W = solve_exterior(f)
        scale = np.abs(V.coeffs).max()
        assert np.abs(W.coeffs - V.coeffs).max() < 1e-8 * scale
        assert np.abs(spectral_div(W).coeffs).max() < 1e-9


############################################
# 5. Wall trace scales linearly in a planted moment


def test_moment_perturbation_scales_the_wall_trace(suite):
    rad, pairs = suite
    f0 = pairs[0][0]
    base = boundary_trace(solve_exterior(f0, tol=1.0))
    g = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    eps = 1e-6
    for l, m in [(1, 0), (2, 1), (3, -2), (5, 3)]:
        unit = g / rad.integrate(rad.r ** (1.0 - l) * g)
        f = f0.copy()
        f.coeffs[mode_index(l, m), 2] += eps * unit
        tr = boundary_trace(solve_exterior(f, tol=1.0)).mode(l, m)
        b = base.mode(l, m)
        slope_r = abs(tr[0] - b[0]) / eps
        slope_1 = abs(tr[1] - b[1]) / eps
        want_r = l * (l + 1.0) / (2.0 * l + 1.0) * R0 ** (l - 1)
        want_1 = (l + 1.0) / (2.0 * l + 1.0) * R0 ** (l - 1)
        assert abs(slope_r - want_r) <= 0.05 * want_r
        assert abs(slope_1 - want_1) <= 0.05 * want_1


############################################
# 6. The 3D inner product with the family is l(l+1) times the moment


def test_orthogonality_forms_agree():
    ang, rad = _support_grids()
    modes = [(1, 0), (2, -1), (3, 2), (4, -3), (5, 1),
             (6, 4), (7, -5), (8, 0), (2, 2), (6, -6)]
    bump = np.exp(-((rad.r - 3.0) / 0.8) ** 2)
    for seed, (l, m) in enumerate(modes):
        rng = np.random.default_rng(100 + seed)
        f = SpectralField(rad, L_MAX)
        scal = (rng.standard_normal((f.n_modes, 3))
                + 1j * rng.standard_normal((f.n_modes, 3)))
        f.coeffs[:] = scal[:, :, None] * bump[None, None, :]
        f.coeffs[0, 1:] = 0.0

        moment = radial_moments(rad, f.coeffs[:, 2], f.ells)[mode_index(l, m)]
        vf = synthesize(f, ang).values
        vg = synthesize(phf_field(l, m, rad, L_MAX), ang).values
        dens = (vf * np.conj(vg)).sum(axis=-1)
        shell = np.array([surface_integral(ang, dens[i])
                          for i in range(rad.n_r)])
        direct = rad.integrate(shell * rad.r ** 2)
        ref = max(abs(direct), 1.0)
        assert abs(direct - l * (l + 1.0) * moment) < 1e-10 * ref


############################################
# 7. Direct volume-integral cross-check of the solver


def _two_bump_source(rad, L, seed):
    """Compatible Phi-channel source with a visible exterior field."""
    rng = np.random.default_rng(seed)
    r = rad.r
    g1 = np.clip((r - 1.4) * (1.8 - r), 0.0, None) ** 3
    g2 = np.clip((r - 1.8) * (2.2 - r), 0.0, None) ** 3
    f = SpectralField(rad, L)
    for l in range(1, L + 1):
        beta = (-rad.integrate(r ** (1.0 - l) * g1)
                / rad.integrate(r ** (1.0 - l) * g2))
        prof = g1 + beta * g2
        for m in range(l + 1):
            c = rng.standard_normal() + (1j * rng.standard_normal() if m else 0.0)
            c = c * (1.0 / 3.0) ** l
            f.coeffs[mode_index(l, m), 2] = c * prof
            f.coeffs[mode_index(l, -m), 2] = (-1) ** m * np.conj(c) * prof
    return f


def _cross_check_error(nodes_per_panel, L_ang):
    ang, rad = make_grids(R0, RMAX, 4 * nodes_per_panel, L_ang,
                          breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
    f = _two_bump_source(rad, L_MAX, seed=11)
    V = solve_exterior(f)
    sampled = synthesize(f, ang)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(4.3, 4.9, (20, 1))
    direct = biot_savart_eval(sampled, pts)
    spectral = synthesize_at(V, pts)
    return np.abs(direct - spectral).max() / np.abs(spectral).max()


def test_direct_integral_matches_and_converges():
    err_default = _cross_check_error(16, L_MAX)
    assert err_default < 1e-3
    err_refined = _cross_check_error(32, 16)
    order = np.log2(err_default / err_refined)
    assert order >= 2.0


############################################
# 8. Uniform flow at infinity


def test_uniform_flow_condition_and_far_value(suite):
    rad, _ = suite
    r = rad.r
    g1 = np.clip((r - 2.0) * (3.0 - r), 0.0, None) ** 3
    g2 = np.clip((r - 3.0) * (4.0 - r), 0.0, None) ** 3
    mat = np.array([[rad.integrate(g1), rad.integrate(g2)],
                    [rad.integrate(r ** 3 * g1), rad.integrate(r ** 3 * g2)]])
    ab = np.linalg.solve(mat, [SQRT_3PI, 0.0])
    F = SpectralField(rad, L_MAX)
    F.coeffs[mode_index(1, 0), 2] = ab[0] * g1 + ab[1] * g2

    # the no-slip requirement on top of v_inf = zhat moves the moment
    # target to 3/2 of the (1, 0) expansion coefficient sqrt(4 pi / 3) of
    # zhat -- nonzero at that single mode only
    assert abs(1.5 * SQRT_4PI_3 - SQRT_3PI) < 1e-15
    rep = check_compatibility(F)
    moments = rep.moment.copy()
    k10 = mode_index(1, 0)
    assert abs(moments[k10] - SQRT_3PI) < 1e-12
    moments[k10] = 0.0
    assert np.abs(moments[rep.ells >= 1]).max() < 1e-12

    V = solve_exterior(F, np.array([0.0, 0.0, 1.0]))
    assert boundary_trace(V).aggregate < 1e-10
    ang = AngularGrid(9, 17)
    vals = synthesize(V, ang).values[-1]          # outermost radial node
    zhat = np.zeros_like(vals)
    zhat[:, :, 0] = np.cos(ang.theta)[:, None]
    zhat[:, :, 1] = -np.sin(ang.theta)[:, None]
    assert np.abs(vals - zhat).max() < 1e-3


############################################
# 9. Partial slip silences exactly the projected degrees


def test_partial_slip_silences_low_degrees_only(suite):
    rad, _ = suite
    L = 4
    g = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    rng = np.random.default_rng(9)
    f = SpectralField(rad, L_MAX)
    for l in range(1, L_MAX + 1):
        for m in range(-l, l + 1):
            amp = 1.0 if l <= L else 1e-6
            c = amp * (rng.standard_normal() + 1j * rng.standard_normal())
            f.coeffs[mode_index(l, m), 2] = c * g

    P = partial_slip_project(f, L)
    high = P.ells > L
    assert np.array_equal(P.coeffs[high], f.coeffs[high])

    tr = boundary_trace(solve_exterior(P, tol=1.0))
    ll1 = tr.ells * (tr.ells + 1.0)
    per_mode = np.sqrt(np.abs(tr.values[:, 0]) ** 2
                       + ll1 * (np.abs(tr.values[:, 1]) ** 2
                                + np.abs(tr.values[:, 2]) ** 2))
    assert per_mode[tr.ells <= L].max() <= 1e-10
    assert per_mode[tr.ells > L].max() > 1e-8


############################################
# 10. Circulation identity at growing radii


def test_circulation_approaches_its_limit():
    ang, rad = make_grids(R0, RMAX, 48, L_MAX,
                          breakpoints=[1.0, 1.5, 3.5, 5.0])
    chi = ((rad.r >= 1.5) & (rad.r <= 3.5)).astype(float)
    v = np.zeros((48, ang.n_theta, ang.n_phi, 3), dtype=complex)
    v[:, :, :, 0] = chi[:, None, None] * np.cos(ang.theta)[None, :, None]
    v[:, :, :, 1] = -chi[:, None, None] * np.sin(ang.theta)[None, :, None]
    field = SampledField(rad, ang, v)

    gaps = []
    for R in (6.0, 12.0, 24.0):
        vs = biot_savart_eval(field, sphere_points(ang, R))
        surface, volume = circulation_diagnostic(vs, ang, R, field)
        gaps.append(np.abs(surface - (2.0 / 3.0) * volume).max())
    ref = np.abs(volume).max()
    assert abs(volume[2] - 4.0 * np.pi * (3.5 ** 3 - 1.5 ** 3) / 3.0) < 1e-10 * ref
    assert gaps[1] <= 0.5 * gaps[0]
    assert gaps[2] <= 0.5 * gaps[1]
    assert gaps[2] <= 1e-10 * ref


############################################
# 11. Planar moments of a Laplacian vanish


def test_planar_laplacian_has_no_moments():
    geom = PlanarGeometry("disk", 2.0)
    g = geom.grid(64, 33, breakpoints=[0.0, 0.4, 1.0, 1.6, 2.0])
    rho = g.rho
    inside = (rho > 0.4) & (rho < 1.6)
    u = (rho[inside] - 0.4) / 1.2
    s = 4.0 * u * (1.0 - u)
    ds = 4.0 * (1.0 - 2.0 * u) / 1.2
    d2s = -8.0 / 1.2 ** 2
    p = np.zeros_like(rho)
    dp = np.zeros_like(rho)
    d2p = np.zeros_like(rho)
    p[inside] = s ** 4
    dp[inside] = 4.0 * s ** 3 * ds
    d2p[inside] = 12.0 * s ** 2 * ds ** 2 + 4.0 * s ** 3 * d2s
    f = ((d2p + dp / rho - 4.0 * p / rho ** 2)[:, None]
         * np.cos(2.0 * g.phi)[None, :]).astype(complex)
    mom = planar_moments(f, g, geom, 8)
    assert max(abs(v) for v in mom.values()) <= 1e-10


############################################
# 12. The velocity/source norm ratio is stable under refinement


def test_norm_ratio_stable_under_refinement():
    def ratios(n_r, n_theta, n_phi):
        _, rad = _support_grids(n_r)
        ang = AngularGrid(n_theta, n_phi)
        w = ang.w_ct[:, None] * ang.w_phi
        out = []
        for seed in range(5):
            f, _ = _manufactured(rad, seed)
            W = solve_exterior(f)
            vals = synthesize(W, ang).values
            dens = (np.abs(vals) ** 2).sum(axis=-1) ** 3
            shell = np.einsum("tp,itp->i", w, dens)
            l6 = rad.integrate(shell * rad.r ** 2) ** (1.0 / 6.0)
            out.append(l6 / f.norm())
        return np.array(out)

    coarse = ratios(64, 20, 41)
    fine = ratios(128, 28, 57)
    assert np.all(np.isfinite(coarse)) and np.all(coarse > 0.0)
    assert np.all(np.abs(coarse - fine) <= 0.1 * fine)
