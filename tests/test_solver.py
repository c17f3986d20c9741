"""
The exterior solve: recovery, no slip, solvability gating, uniform flow.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divcurl.solver as solver
import divcurl.transform as transform
from divcurl.grids import RadialGrid, make_grids
from divcurl.pseudoharmonic import curl_curl_source, matched_flow_source
from divcurl.solver import (CompatibilityWarning, CompatReport,
                            IncompatibilityError, boundary_trace, check_compatibility,
                            far_field_coeffs, partial_slip_project,
                            radial_moments, solve_exterior)
from divcurl.transform import (ScalarSpectral, SpectralField, mode_index,
                               spectral_div, synthesize_at)
from fixtures import SQRT_4PI_3, support_grids, traced_peak


############################################
# Recovery of a known solution


def test_manufactured_recovery():
    _, rad = support_grids(6)
    f, W = curl_curl_source(rad, 6, np.random.default_rng(0))
    V = solve_exterior(f)
    scale = np.abs(W.coeffs).max()
    assert np.abs(V.coeffs - W.coeffs).max() < 1e-8 * scale


@pytest.mark.xfail(strict=True, reason="ROADMAP D13")
def test_flat_spectrum_recovery_at_high_degree():
    # amplitudes that do not decay with l: inside a panel [a, b] the
    # interpolant of the weights (s/a)^(l+2) and (b/s)^(l-1), which change
    # by (b/a)^l, loses digits, and at L = 48 on panels up to b/a = 2 the
    # solve, decided clean, recovers only to 2.9e-6
    rad = RadialGrid(np.linspace(1.0, 5.0, 5), 32)
    f, W = curl_curl_source(rad, 48, np.random.default_rng(0), decay=1.0)
    V = solve_exterior(f)
    assert np.abs(V.coeffs - W.coeffs).max() < 1e-10 * np.abs(W.coeffs).max()


@pytest.mark.filterwarnings("error")
def test_flat_spectrum_on_narrow_panels_recovers_to_rounding():
    # on 16 panels of [1, 5] each weight changes by at most (4/3)^l, so the
    # panel-local passes keep their digits at L = 48; a tail taken as the
    # moment minus the integral up to r recovered this only to 0.25
    rad = RadialGrid(np.linspace(1.0, 5.0, 17), 32)
    f, W = curl_curl_source(rad, 48, np.random.default_rng(7), decay=1.0)
    V = solve_exterior(f)                   # clean: a warning would be an error
    assert np.abs(V.coeffs - W.coeffs).max() < 1e-12 * np.abs(W.coeffs).max()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(L=st.sampled_from([8, 24]), k=st.integers(-40, 40))
@example(L=24, k=-1)
@example(L=24, k=-40)
@example(L=24, k=40)
def test_solution_follows_a_power_of_two_unit_bit_for_bit(L, k):
    # the panel ratios of radii keep their bits on 2^k [1, 5], and K, the
    # weights and D scale exactly, so V is 2^k times the unit solution
    unit = RadialGrid(np.linspace(1.0, 5.0, 5), 32)
    f, _ = curl_curl_source(unit, L, np.random.default_rng(7))
    rad = RadialGrid(2.0 ** k * np.linspace(1.0, 5.0, 5), 32)
    with mock.patch.object(solver, "REFUSE_TOL", np.inf):
        V = solve_exterior(f, tol=np.inf)
        V_k = solve_exterior(SpectralField(rad, L, f.coeffs), tol=np.inf)
    # scale the real and imaginary parts: a complex product can flip a -0.0
    assert V_k.coeffs.tobytes() == (2.0 ** k * V.coeffs.view(float)).tobytes()


def test_solution_is_divergence_free():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(1))
    V = solve_exterior(f)
    assert np.abs(spectral_div(V).coeffs).max() < 1e-9 * np.abs(V.coeffs).max()


def test_solution_sticks_to_the_wall():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(2))
    V = solve_exterior(f)
    assert boundary_trace(V).aggregate < 1e-9 * np.abs(V.coeffs).max()


def test_linearity():
    _, rad = support_grids(6)
    f1, _ = curl_curl_source(rad, 6, np.random.default_rng(3))
    f2, _ = curl_curl_source(rad, 6, np.random.default_rng(4))
    both = f1.copy()
    both.coeffs += 2.0 * f2.coeffs
    V = solve_exterior(both)
    ref = solve_exterior(f1).coeffs + 2.0 * solve_exterior(f2).coeffs
    assert np.abs(V.coeffs - ref).max() < 1e-12 * np.abs(ref).max()


############################################
# Closed-form piecewise-constant source at l = 1

# f sits in the (1, 0) Phi channel with f2 = +1 on [2, 3] and -1 on [3, 4];
# the moment integral of s^0 f2 vanishes, and the quadratures the solver
# performs are exact, so V matches the hand integrals
#   A(r) = int_1^r s^3 f2,  B(r) = int_r^5 s^0 f2,
#   V_r = -(2/3)(A / r^3 + B),  V_1 = (2/3)(A / (2 r^3) - B).


def _step_source(rad):
    r = rad.r
    f2 = np.where(r < 3.0, 1.0, -1.0) * ((r > 2.0) & (r < 4.0))
    f = SpectralField(rad, 2)
    f.coeffs[mode_index(1, 0), 2] = f2
    return f


def _step_exact(r):
    if r <= 2.0:
        A, B = 0.0, 0.0
    elif r <= 3.0:
        A, B = (r ** 4 - 16.0) / 4.0, 2.0 - r
    elif r <= 4.0:
        A, B = 65.0 / 4.0 - (r ** 4 - 81.0) / 4.0, r - 4.0
    else:
        A, B = -27.5, 0.0
    Vr = -(2.0 / 3.0) * (A / r ** 3 + B)
    V1 = (2.0 / 3.0) * (A / (2.0 * r ** 3) - B)
    return Vr, V1


def test_step_source_matches_hand_integrals():
    _, rad = support_grids(2)
    V = solve_exterior(_step_source(rad))
    k = mode_index(1, 0)
    for i in [3, 20, 36, 52, 60]:
        Vr, V1 = _step_exact(rad.r[i])
        assert abs(V.coeffs[k, 0, i] - Vr) < 1e-12
        assert abs(V.coeffs[k, 1, i] - V1) < 1e-12
    assert np.abs(V.coeffs[k, 2]).max() == 0.0
    other = np.delete(V.coeffs, k, axis=0)
    assert np.abs(other).max() == 0.0


def test_step_source_decays_like_dipole():
    # beyond the support the only survivor is the r^(-2-l) multipole
    _, rad = support_grids(2)
    V = solve_exterior(_step_source(rad))
    k = mode_index(1, 0)
    outer = rad.r > 4.0
    prof = V.coeffs[k, 0, outer].real
    ref = prof[0] * (rad.r[outer] / rad.r[outer][0]) ** -3.0
    assert np.abs(prof - ref).max() < 1e-13 * abs(prof[0])


############################################
# Solvability gating


def test_report_of_clean_source_is_clean():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(5))
    rep = check_compatibility(f)
    assert rep.worst()[3] < 1e-9 * rep.field_norm


def test_report_flags_nonzero_normal_trace():
    # f_r = r^(-2) is divergence free but reaches the wall with value 1
    _, rad = support_grids(2)
    f = SpectralField(rad, 2)
    k = mode_index(2, 1)
    f.coeffs[k, 0] = rad.r ** -2.0
    rep = check_compatibility(f)
    assert abs(rep.normal_trace[k] - 1.0) < 1e-10
    assert rep.solenoid[k] < 1e-10
    assert abs(rep.boundary_deriv[k] - 2.0) < 1e-7      # r0 f_r'(r0) = -2 at the wall
    assert abs(rep.moment[k]) == 0.0
    l, m, name, _ = rep.worst()
    assert (l, m) == (2, 1)
    assert name in ("normal_trace", "boundary_deriv")


def test_check_compatibility_never_raises():
    _, rad = support_grids(3)
    rng = np.random.default_rng(6)
    f = SpectralField(rad, 3)
    f.coeffs[:] = rng.standard_normal(f.coeffs.shape)
    f.coeffs[0, 1:] = 0.0
    rep = check_compatibility(f)
    assert rep.worst()[3] > 0.1


def _moment_bump(rad, l):
    """Unit-moment radial bump supported on [2, 4]."""
    r = rad.r
    w = np.clip((r - 2.0) * (4.0 - r), 0.0, None) ** 3
    return w / rad.integrate(r ** (1.0 - l) * w)


def test_small_violation_warns_and_proceeds():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(7))
    k = mode_index(2, 1)
    f.coeffs[k, 2] += 1e-6 * f.norm() * _moment_bump(rad, 2)
    with pytest.warns(CompatibilityWarning):
        V = solve_exterior(f)
    # the wall trace is of the size of the violated moment
    trace = boundary_trace(V).aggregate
    assert 1e-8 * f.norm() < trace < 1e-4 * f.norm()


def test_large_violation_refuses_with_mode_attribution():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(8))
    k = mode_index(2, 1)
    f.coeffs[k, 2] += 1e-2 * f.norm() * _moment_bump(rad, 2)
    with pytest.raises(IncompatibilityError) as err:
        solve_exterior(f)
    e = err.value
    assert e.mode == (2, 1)
    assert e.residual_name == "moment"
    assert 1e-3 < e.scaled_residual < 1e-1
    assert "moment" in str(e)


@pytest.mark.parametrize("channel, bad", [(2, np.nan), (2, np.inf),
                                          (0, complex(0.0, np.nan)),
                                          (1, -np.inf)])
def test_non_finite_source_refused(channel, bad):
    # a NaN residual compares False against any threshold; the gate must
    # still refuse, and name the mode the NaN sits in
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(10))
    f.coeffs[mode_index(3, -2), channel, 20] = bad
    with pytest.raises(IncompatibilityError) as err, \
            np.errstate(invalid="ignore"):
        solve_exterior(f)
    assert err.value.mode == (3, -2)
    assert not np.isfinite(err.value.scaled_residual)


def _decision(f):
    """(clean | warn | refuse, worst residual over the data norm)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            solve_exterior(f)
            kind = "clean"
        except CompatibilityWarning:
            kind = "warn"
        except IncompatibilityError as e:
            return "refuse", e.scaled_residual
    rep = check_compatibility(f)
    return kind, rep.worst()[3] / rep.field_norm


@pytest.mark.parametrize("violation, kind", [(0.0, "clean"), (1e-6, "warn"),
                                             (1e-2, "refuse")])
def test_decision_and_scaled_residual_ignore_amplitude(violation, kind):
    # squares of 1e200 overflow and those of 1e-150 data come near the
    # bottom of the double range; neither may change the outcome
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(7))
    f.coeffs[mode_index(2, 1), 2] += violation * f.norm() * _moment_bump(rad, 2)
    want = _decision(f)
    assert want[0] == kind
    for scale in (1e-150, 1e200):
        g = SpectralField(rad, f.L_max, f.coeffs * scale)
        assert np.isfinite(g.norm())
        assert abs(g.norm() / (scale * f.norm()) - 1.0) < 1e-14
        got = _decision(g)
        assert got[0] == kind
        assert abs(got[1] - want[1]) <= 1e-13 * max(want[1], 1e-3)


def test_as_table_shape():
    _, rad = support_grids(3)
    f, _ = curl_curl_source(rad, 3, np.random.default_rng(9))
    text = check_compatibility(f).as_table()
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[:2] == ["l", "m"]
    assert len(lines) == 1 + 16
    first = lines[1].split("\t")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])


def _report(nt=(0, 0, 0, 0), sol=(0, 0, 0, 0), bd=(0, 0, 0, 0), moment=(0, 0, 0, 0)):
    # a report on the L_max = 1 modes (0, 0), (1, -1), (1, 0), (1, 1)
    ells, ems = np.array([0, 1, 1, 1]), np.array([0, -1, 0, 1])
    return CompatReport(ells, ems, *(np.array(a, dtype=float) for a in (nt, sol, bd)),
                        np.array(moment, dtype=complex), 1.0)


def _worst_by_loop(rep, required=None):
    # the first NaN, else the first maximum, scanning kinds then modes in order
    gap = np.abs(rep.moment - (0.0 if required is None else required))
    kinds = [("normal_trace", rep.normal_trace), ("solenoid", rep.solenoid),
             ("boundary_deriv", rep.boundary_deriv),
             ("moment", [g if l >= 1 else 0.0 for g, l in zip(gap, rep.ells)])]
    best = None
    for name, values in kinds:
        for k, v in enumerate(values):
            if np.isnan(v):
                return (int(rep.ells[k]), int(rep.ems[k]), name, float(v))
            if best is None or v > best[3]:
                best = (int(rep.ells[k]), int(rep.ems[k]), name, float(v))
    return best


@pytest.mark.parametrize("rep, want", [
    # a NaN in a later kind beats a larger finite value in an earlier one
    (_report(nt=(0, 5, 0, 0), bd=(0, 0, np.nan, np.nan)), (1, 0, "boundary_deriv")),
    (_report(sol=(0, np.inf, 0, 0), moment=(0, 0, 0, complex(np.nan, 0))), (1, 1, "moment")),
    # ties go to the earliest kind, then to the lowest mode
    (_report(nt=(0, 0, 2, 2), sol=(2, 0, 0, 0), moment=(0, 2, 2, 2)), (1, 0, "normal_trace")),
    (_report(sol=(0, 0, 3, 3), bd=(0, 3, 0, 0)), (1, 0, "solenoid")),
    (_report(bd=(0, np.inf, np.inf, 1)), (1, -1, "boundary_deriv")),
    # the l = 0 moment is ignored, even when it is NaN
    (_report(moment=(100, 1j, 0, -0.5)), (1, -1, "moment")),
    (_report(moment=(np.nan, 0, 0, 0)), (0, 0, "normal_trace")),
    (_report(), (0, 0, "normal_trace")),
])
def test_worst_picks_first_nan_then_first_maximum(rep, want):
    got, loop = rep.worst(), _worst_by_loop(rep)
    assert got[:3] == want == loop[:3]
    assert got[3] == loop[3] or np.isnan(got[3]) and np.isnan(loop[3])
    assert all(isinstance(v, t) for v, t in zip(got, (int, int, str, float)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, np.inf, np.nan]),
                       min_size=24, max_size=24))
def test_worst_matches_a_loop_over_kinds_and_modes(values):
    v = np.array(values)
    moment = np.zeros(4, dtype=complex)
    moment.real, moment.imag = v[12:16], v[16:20]
    rep = _report(v[0:4], v[4:8], v[8:12], moment)
    for required in (None, v[20:24]):
        with np.errstate(invalid="ignore"):
            got, want = rep.worst(required), _worst_by_loop(rep, required)
        assert got[:3] == want[:3]
        assert got[3] == want[3] or (np.isnan(got[3]) and np.isnan(want[3]))


def test_as_table_bytes_match_a_per_row_format():
    rep = _report(nt=(-0.0, np.nan, np.inf, 1e-300), sol=(0.1, 2.0, -np.inf, 5e-324),
                  bd=(1.0 / 3.0, 0.0, 1e300, np.nan),
                  moment=(complex(-0.0, -0.0), complex(np.nan, np.inf),
                          complex(-np.inf, 0.25), complex(1e-17, -0.0)))
    rows = ["%d\t%d\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g"
            % (rep.ells[k], rep.ems[k], rep.normal_trace[k], rep.solenoid[k],
               rep.boundary_deriv[k], rep.moment[k].real, rep.moment[k].imag)
            for k in range(4)]
    text = rep.as_table()
    assert text == "\n".join(["\t".join(CompatReport.COLUMNS)] + rows) + "\n"
    assert "\t-0\t-0\n" in text and "\tnan\tinf\n" in text


############################################
# Partial-slip projection


def test_projection_kills_low_moments_only():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    for l, m in [(1, 0), (2, -1), (3, 2), (5, 4)]:
        f.coeffs[mode_index(l, m), 2] += rng.uniform(0.5, 2.0) * _moment_bump(rad, l)
    with pytest.raises(IncompatibilityError):
        solve_exterior(f)
    g = partial_slip_project(f, 3)
    rep = check_compatibility(g)
    ll = g.ells
    low = (ll >= 1) & (ll <= 3)
    assert np.abs(rep.moment[low]).max() < 1e-12 * rep.field_norm
    # the l = 5 obstruction and all non-Phi channels are untouched
    assert np.abs(rep.moment[mode_index(5, 4)]) > 0.1
    assert np.array_equal(g.coeffs[:, :2], f.coeffs[:, :2])
    assert np.array_equal(g.coeffs[ll > 3], f.coeffs[ll > 3])


def test_projected_source_solves_cleanly():
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(12))
    f.coeffs[mode_index(4, 0), 2] += _moment_bump(rad, 4)
    g = partial_slip_project(f, 6)
    V = solve_exterior(g)
    assert boundary_trace(V).aggregate < 1e-8 * g.norm()


def _project_per_mode(f, L):
    # the projection one degree and one order at a time
    rad = f.radial
    r = rad.r
    out = f.copy()
    for l in range(1, L + 1):
        w = r ** (l - 1.0) * (r - rad.r0) ** 2 * (rad.rmax - r) ** 2
        w = w / np.sqrt(rad.integrate(w * w))
        Wl = rad.integrate(r ** (1.0 - l) * w)
        if abs(Wl) < 1e-14:
            raise ValueError(f"projection weight has vanishing moment at l = {l}")
        for m in range(-l, l + 1):
            k = mode_index(l, m)
            M = rad.integrate(r ** (1.0 - l) * out.coeffs[k, 2])
            out.coeffs[k, 2] -= (M / Wl) * w
    return out


@pytest.mark.parametrize("weight", [None])     # the default bump is the only one
def test_projection_matches_per_mode_reference(weight):
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(13))
    rng = np.random.default_rng(14)
    f.coeffs[1:, 2] += rng.standard_normal((f.n_modes - 1, rad.n_r)) * 1e-3
    for L in (0, 1, 4, 6):
        got = partial_slip_project(f, L).coeffs
        want = _project_per_mode(f, L).coeffs
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()


def test_projection_refuses_at_the_same_degree_as_per_mode_reference():
    # at r0 = 10 the unit-norm bump has moments below 1e-14 from l = 11 on
    rad = make_grids(10.0, 50.0, 128, 24, breakpoints=np.linspace(10.0, 50.0, 5))[1]
    f = SpectralField(rad, 24)
    for project in (partial_slip_project, _project_per_mode):
        with pytest.raises(ValueError, match=r"vanishing moment at l = 11$"):
            project(f, 24)
    assert partial_slip_project(f, 10).coeffs.shape == f.coeffs.shape


def test_projection_meets_the_uniform_flow_targets():
    # no slip under a uniform flow needs M_1m = 3/2 a_m and M = 0 above l = 1
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(15))
    f.coeffs[1:, 2] += 1e-3 * np.random.default_rng(16).standard_normal((f.n_modes - 1, rad.n_r))
    vinf = np.array([1.0, 2.0, 0.0])
    target = np.zeros(f.n_modes, dtype=complex)
    target[1:4] = 1.5 * far_field_coeffs(vinf, rad).coeffs[1:4, 0, 0]
    for L in (1, 4, 6):
        g = partial_slip_project(f, L, vinf)
        low = (g.ells >= 1) & (g.ells <= L)
        gap = np.abs(check_compatibility(g).moment - target)[low]
        assert gap.max() <= 1e-12 * np.abs(target).max()
        assert np.array_equal(g.coeffs[~low], f.coeffs[~low])
        assert np.array_equal(g.coeffs[:, :2], f.coeffs[:, :2])


def test_projection_without_a_flow_keeps_its_bits():
    _, rad = support_grids(6)
    f = _random_field(rad, 6, np.random.default_rng(17))
    want = _ref_project(f, 4).coeffs.tobytes()
    for far in ((), (None,), ((0.0, 0.0, 0.0),)):
        assert partial_slip_project(f, 4, *far).coeffs.tobytes() == want


def test_projection_validates_band():
    _, rad = support_grids(3)
    f = SpectralField(rad, 3)
    for L in (4, -1, -3):
        with pytest.raises(ValueError, match=r"outside \[0, L_max = 3\]"):
            partial_slip_project(f, L)


############################################
# Uniform flow at infinity


def test_far_field_coeffs_represent_a_constant():
    _, rad = support_grids(2)
    vinf = np.array([0.3, -0.4, 0.5])
    S = far_field_coeffs(vinf, rad, L_max=2)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.0, 1.0, (12, 3)) + np.array([0.0, 0.0, 2.5])
    vals = synthesize_at(S, pts)
    assert np.abs(vals.imag).max() < 1e-13
    assert np.abs(vals.real - vinf).max() < 1e-13


def test_uniform_flow_without_supporting_source_refuses():
    _, rad = support_grids(2)
    f = SpectralField(rad, 2)
    with pytest.raises(IncompatibilityError) as err:
        solve_exterior(f, far=(0.0, 0.0, 1.0))
    e = err.value
    assert e.mode[0] == 1
    assert e.residual_name == "moment"
    assert abs(e.scaled_residual - 1.5 * SQRT_4PI_3) < 1e-10


@pytest.mark.filterwarnings("error")
def test_uniform_flow_with_matched_source():
    # in every unit the matched source's solution sticks to the wall and is
    # the flow beyond 4 r0; its moments are checked in test_pseudoharmonic
    for r0 in (2.0 ** -10, 1.0, 2.0 ** 10):
        rad = RadialGrid(r0 * np.linspace(1.0, 5.0, 5), 16)
        pts = r0 * np.array([[0, 0, 4.7], [3.1, 2.9, -1.5], [-4.4, 0.3, 0.8]])
        for far in ((0.0, 0.0, 1.0), (0.3, -0.4, 0.5), (1.0, 2.0, 0.0)):
            U = solve_exterior(matched_flow_source(rad, 2, far), far)
            assert boundary_trace(U).aggregate <= 1e-11
            assert np.abs(synthesize_at(U, pts) - far).max() <= 1e-12 * np.linalg.norm(far)


def test_far_spec_validation():
    # both entry points refuse a far field that is not a finite 3-vector
    _, rad = support_grids(2)
    f = SpectralField(rad, 2)
    for bad in ((1.0, 2.0), (np.nan, 0.0, 0.0)):
        with pytest.raises(ValueError, match="vinf must be a finite Cartesian 3-vector"):
            solve_exterior(f, bad)
        with pytest.raises(ValueError, match="vinf must be a finite Cartesian 3-vector"):
            far_field_coeffs(bad, rad, L_max=2)
    with pytest.raises(ValueError, match="need L_max >= 1 to hold an l = 1 field"):
        far_field_coeffs((1.0, 0.0, 0.0), rad, L_max=0)


def test_uniform_flow_needs_an_l1_mode():
    # at L_max = 0 the far flow has no mode to live in: refused, not dropped
    _, rad = support_grids(2)
    f = SpectralField(rad, 0)
    with pytest.raises(ValueError, match="need L_max >= 1 to hold an l = 1 field"):
        solve_exterior(f, far=(1.0, 0.0, 0.0))
    assert not solve_exterior(f, far=(0.0, 0.0, 0.0)).coeffs.any()


def test_solution_whose_powers_of_r_overflow_is_solved():
    # one (l, 0) bump on [1, 5] lam x 16 nodes: at lam = 1e3 r^(l+2) leaves the
    # float range from l = 82, but the solve forms only ratios of radii, all
    # in [1, 2]; it follows the unit to rounding (RuntimeWarning is an error)
    for L in (81, 90):
        V = []
        for lam in (1.0, 1e3):
            rad = RadialGrid(lam * np.linspace(1.0, 5.0, 5), 16)
            f = SpectralField(rad, L)
            f.set_mode(L, 0, 2, np.clip((rad.r / lam - 2.0) * (4.0 - rad.r / lam), 0.0, None) ** 3)
            V.append(solve_exterior(f).coeffs / lam)
        assert np.isfinite(V[1]).all()
        assert np.abs(V[1] - V[0]).max() <= 1e-12 * np.abs(V[0]).max()


@pytest.mark.filterwarnings("error")
def test_unrepresentable_solution_is_refused_before_compatibility_is_judged():
    # at 2^-66 length units s^(1-l) overflows and the moments read nan from
    # l = 16: finite data whose moment is not finite is refused by degree and
    # grid, not judged as a moment residual that a projection could remove
    rad = RadialGrid(2.0 ** -66 * np.linspace(1.0, 5.0, 5), 32)
    f, _ = curl_curl_source(rad, 24, np.random.default_rng(7))
    moment = check_compatibility(f).moment
    assert np.array_equal(np.isnan(moment), f.ells >= 16)
    with pytest.raises(ValueError) as e:
        solve_exterior(f)
    assert not isinstance(e.value, IncompatibilityError)
    assert str(e.value) == ("the moment of degree l = 16 is not finite on RadialGrid("
                            "[1.35525e-20, 6.77626e-20], 4 panels x 32 nodes); "
                            "the solution cannot be represented")


@pytest.mark.filterwarnings("error")
def test_grid_from_r0_zero_is_refused_by_name():
    # RadialGrid accepts r0 = 0, where r / r0 is infinite on the first panel
    rad = RadialGrid(np.linspace(0.0, 4.0, 5), 16)
    f, _ = curl_curl_source(RadialGrid(np.linspace(1.0, 5.0, 5), 16), 3,
                            np.random.default_rng(7))
    with pytest.raises(ValueError) as e:
        solve_exterior(SpectralField(rad, 3, f.coeffs))
    assert str(e.value) == ("powers of the ratios of radii are not finite from degree l = 0 "
                            "on RadialGrid([0, 4], 4 panels x 16 nodes); r0 must be positive")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, l", [(1e-40, 1), (1e-38, 1), (1e-35, 2), (1e-30, 2),
                                    (1e30, 2), (1e38, 1), (1e40, 1), (1e60, 1)])
def test_projection_refuses_a_bump_it_cannot_represent(lam, l):
    rad = RadialGrid(lam * np.linspace(1.0, 5.0, 5), 16)
    f = SpectralField(rad, 3)
    f.set_mode(2, 1, 2, np.clip((rad.r / lam - 2.0) * (3.0 - rad.r / lam), 0.0, None) ** 3)
    with pytest.raises(ValueError) as e:
        partial_slip_project(f, 3)
    assert str(e.value) == (f"the projection bump of degree l = {l} is not representable "
                            f"on RadialGrid([{lam:g}, {5 * lam:g}], 4 panels x 16 nodes)")


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_tol_must_be_a_nonnegative_number(tol):
    _, rad = support_grids(6)
    f, _ = curl_curl_source(rad, 6, np.random.default_rng(0))
    with pytest.raises(ValueError, match="tol must be a nonnegative number"):
        solve_exterior(f, tol=tol)


############################################
# Bit for bit with the full-pass arithmetic the solver used before: every
# residual, norm, solution and trace keeps its bytes


def _ref_radial_moments(radial, g, ells):
    return radial.integrate(radial.r ** (1.0 - ells[:, None]) * g)


def _ref_vector_density(f, c):
    ll1 = (f.ells * (f.ells + 1.0))[:, None]
    return (np.abs(c[:, 0]) ** 2 + ll1 * (np.abs(c[:, 1]) ** 2
                                          + np.abs(c[:, 2]) ** 2)).sum(axis=0)


def _ref_scalar_density(c):
    return (np.abs(c) ** 2).sum(axis=0)


def _ref_norm(S, density):
    """S.norm() from one whole-array density, rescaled as norm() does."""
    r = S.radial.r

    def norm(c):
        with np.errstate(over="ignore", under="ignore"):
            return np.sqrt(S.radial.integrate(density(c) * r ** 2).real)
    n = norm(S.coeffs)
    scale = np.abs(S.coeffs).max(initial=0.0)
    if 1e-100 < n < 1e100 or not 0.0 < scale < np.inf:
        return n
    return scale * norm(S.coeffs / scale)


def _ref_check_compatibility(f):
    """(normal_trace, solenoid, boundary_deriv, moment, field_norm)."""
    rad = f.radial
    r = rad.r
    fr, f1, f2 = f.coeffs[:, 0], f.coeffs[:, 1], f.coeffs[:, 2]
    ll1 = (f.ells * (f.ells + 1.0))[:, None]
    dfr = rad.differentiate(fr)
    solenoid = np.abs(rad.differentiate(r ** 2 * fr) / r ** 2 - ll1 / r * f1).max(axis=1)
    normal_trace = np.abs(rad.at_r0(fr))
    boundary_deriv = np.abs(rad.r0 * rad.at_r0(dfr) - ll1[:, 0] * rad.at_r0(f1))
    moment = _ref_radial_moments(rad, f2, f.ells)
    norm = _ref_norm(f, lambda c: _ref_vector_density(f, c))
    return normal_trace, solenoid, boundary_deriv, moment, norm


def _ref_far_l1_coeffs(vinf):
    vx, vy, vz = vinf
    return {
        -1: np.sqrt(2.0 * np.pi / 3.0) * (vx + 1j * vy),
        0: np.sqrt(4.0 * np.pi / 3.0) * vz,
        1: -np.sqrt(2.0 * np.pi / 3.0) * (vx - 1j * vy),
    }


def _ref_solve_body(f, far):
    """
    The solution of solve_exterior once the data has passed the gate: the
    outward and inward passes over all modes at once, one panel at a time.
    """
    rad = f.radial
    r, n, bp = rad.r, rad.nodes_per_panel, rad.breakpoints
    ell = f.ells[:, None].astype(float)
    ll1 = ell * (ell + 1.0)
    fr, f2 = f.coeffs[:, 0], f.coeffs[:, 2]
    panels = [slice(p * n, (p + 1) * n) for p in range(rad.n_panels)]
    u, w = np.empty_like(f2), np.empty_like(f2)
    ua = None                                   # u at the panel start a; none on panel 0
    for p, sl in enumerate(panels):
        a, b = bp[p], bp[p + 1]
        weight = (r[sl] / a) ** (2.0 + ell)
        g = weight * f2[:, sl]
        I, tot = g @ rad._K[p].T, g @ rad.w[sl]
        if ua is not None:
            I, tot = ua[:, None] + I, ua + tot
        u[:, sl] = I / weight
        ua = (a / b) ** (2.0 + ell[:, 0]) * tot
    wb = np.zeros(f.n_modes, dtype=complex)                 # w at the panel end b
    for p, sl in reversed(list(enumerate(panels))):
        a, b = bp[p], bp[p + 1]
        weight = (b / r[sl]) ** (ell - 1.0)
        g = weight * f2[:, sl]
        wb = wb + g @ rad.w[sl]
        w[:, sl] = (wb[:, None] - g @ rad._K[p].T) / weight
        wb = (a / b) ** (ell[:, 0] - 1.0) * wb
    V = SpectralField(rad, f.L_max)
    V.coeffs[:, 0] = -ll1 / (2.0 * ell + 1.0) * (u + w)
    safe = np.where(ll1 > 0, ll1, 1.0)
    V.coeffs[:, 1] = rad.differentiate(r ** 2 * V.coeffs[:, 0]) / (safe * r)
    V.coeffs[:, 2] = -r * fr / safe
    V.coeffs[0] = 0.0
    if far is not None and f.L_max >= 1:
        cfar = _ref_far_l1_coeffs(np.asarray(far, dtype=float))
        for m in (-1, 0, 1):
            V.coeffs[mode_index(1, m), :2] += cfar[m]
    return V


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _ref_project(f, L):
    """partial_slip_project with boolean-mask copies of the targeted modes."""
    rad = f.radial
    r = rad.r
    ell = np.arange(1, L + 1)
    w = r ** (ell[:, None] - 1.0) * (r - rad.r0) ** 2 * (rad.rmax - r) ** 2
    w = w / np.sqrt(rad.integrate(w * w))[:, None]
    W = _ref_radial_moments(rad, w, ell)
    low = np.flatnonzero(np.abs(W) < 1e-14)
    if low.size:
        raise ValueError(f"projection weight has vanishing moment at l = {ell[low[0]]}")
    out = f.copy()
    k = (f.ells >= 1) & (f.ells <= L)
    j = f.ells[k] - 1
    M = _ref_radial_moments(rad, out.coeffs[k, 2], f.ells[k])
    out.coeffs[k, 2] -= (M / W[j])[:, None] * w[j]
    return out


def _project(project, f, L):
    try:
        return project(f, L)
    except ValueError as e:
        return str(e)


def _random_field(rad, L, rng, amplitude=1.0):
    """Random coefficients with exact zeros of both signs and -0.0 modes."""
    shape = ((L + 1) ** 2, 3, rad.n_r)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (c.real, c.imag):            # exact zeros of both signs
        part[rng.random(shape) < 0.15] = 0.0
        part[rng.random(shape) < 0.15] = -0.0
    c[rng.random(shape[0]) < 0.2] = -0.0
    return SpectralField(rad, L, amplitude * c)


def _assert_same_bits(f, L_proj, vinf, rng):
    """Every solver output on f against its whole-array reference."""
    rad = f.radial
    s = ScalarSpectral(rad, f.L_max, f.coeffs[:, 2])
    assert (_bits(f.norm(), s.norm())
            == _bits(_ref_norm(f, lambda c: _ref_vector_density(f, c)),
                     _ref_norm(s, _ref_scalar_density)))
    perm = rng.permutation(f.n_modes)        # degrees in any order
    assert (radial_moments(rad, f.coeffs[perm, 2], f.ells[perm]).tobytes()
            == _ref_radial_moments(rad, f.coeffs[perm, 2], f.ells[perm]).tobytes())

    P = _project(partial_slip_project, f, min(L_proj, f.L_max))
    P_ref = _project(_ref_project, f, min(L_proj, f.L_max))
    if isinstance(P, str):
        assert P == P_ref
    else:
        assert P.coeffs.tobytes() == P_ref.coeffs.tobytes()

    # random data is refused; lift the gate to compare the solutions too
    with mock.patch.object(solver, "REFUSE_TOL", np.inf):
        for g in (f, P) if not isinstance(P, str) else (f,):
            rep = check_compatibility(g)
            assert _bits(rep.normal_trace, rep.solenoid, rep.boundary_deriv,
                         rep.moment, rep.field_norm) == _bits(*_ref_check_compatibility(g))
            # a far flow needs an l = 1 mode; at L_max = 0 it is refused
            for far in {None, vinf} if g.L_max else {None}:
                V, V_ref = solve_exterior(g, far, tol=np.inf), _ref_solve_body(g, far)
                assert V.coeffs.tobytes() == V_ref.coeffs.tobytes()
                trace, trace_ref = boundary_trace(V), boundary_trace(V_ref)
                assert (_bits(trace.values, trace.aggregate)
                        == _bits(trace_ref.values, trace_ref.aggregate))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(L=st.integers(0, 12), r0=st.floats(1e-2, 1e2),
       widths=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
       n=st.integers(2, 32), L_proj=st.integers(0, 12),
       vinf=st.none() | st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(any),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solver_keeps_the_bits_of_the_full_passes(L, r0, widths, n, L_proj, vinf, seed):
    rad = RadialGrid(r0 * (1.0 + np.concatenate([[0.0], np.cumsum(widths)])), n)
    rng = np.random.default_rng(seed)
    _assert_same_bits(_random_field(rad, L, rng), L_proj, vinf, rng)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(L=st.integers(2, 9), per=st.sampled_from([2, 3, 8]),
       amplitude=st.sampled_from([1.0, 1e200, 1e-200]),
       widths=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
       n=st.integers(2, 16), L_proj=st.integers(0, 9),
       vinf=st.none() | st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(any),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solver_mode_blocks_keep_the_bits_of_the_full_passes(L, per, amplitude, widths,
                                                            n, L_proj, vinf, seed):
    # blocks of `per` modes or more, equal to within one mode; blocks of 2
    # or 3 modes hold one degree or two, where a table of powers built per
    # block would take numpy's other pow kernel for fewer than 3 rows
    rad = RadialGrid(1.0 + np.concatenate([[0.0], np.cumsum(widths)]), n)
    rng = np.random.default_rng(seed)
    f = _random_field(rad, L, rng, amplitude)
    with mock.patch.object(transform, "_MODE_BLOCK", per * rad.n_r):
        blocks = transform._mode_blocks(f.n_modes, rad.n_r)
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= per and max(sizes) - min(sizes) <= 1
        if per < 8:
            assert {np.unique(f.ells[b]).size for b in blocks} >= {1, 2}
        if amplitude == 1.0:
            _assert_same_bits(f, L_proj, vinf, rng)
            return
        with np.errstate(over="ignore", under="ignore"):
            raw = np.sqrt(rad.integrate(_ref_vector_density(f, f.coeffs) * rad.r ** 2))
        assert not 1e-100 < raw < 1e100          # norm() takes its rescale branch
        s = ScalarSpectral(rad, L, f.coeffs[:, 2])
        rep = check_compatibility(f)
        assert _bits(rep.normal_trace, rep.solenoid, rep.boundary_deriv, rep.moment,
                     rep.field_norm, s.norm()) == _bits(*_ref_check_compatibility(f),
                                                        _ref_norm(s, _ref_scalar_density))


def test_solver_peaks_stay_near_the_input():
    # in mode blocks the solver holds its input, its output and per-block
    # temporaries; whole-array passes peaked at 2.34x (solve), 1.23x
    # (projection) and 0.51x (check) of the input at this size
    rad = make_grids(1.0, 5.0, 256, 48)[1]
    f = _random_field(rad, 48, np.random.default_rng(15))
    peaks = {}
    with mock.patch.object(solver, "REFUSE_TOL", np.inf):
        for name, call in (("check", check_compatibility),
                           ("solve", lambda g: solve_exterior(g, tol=np.inf)),
                           ("project", lambda g: partial_slip_project(g, 24))):
            peaks[name] = traced_peak(lambda: call(f))[1] / f.coeffs.nbytes
    assert peaks["solve"] <= 1.15
    assert peaks["project"] <= 1.10
    assert peaks["check"] <= 0.15
