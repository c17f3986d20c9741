"""
Forward/inverse VSH transforms and the spectral differential operators.
"""

import numpy as np
import pytest

import sph_oracle
from divcurl import transform
from divcurl._fourier import THETA_ROWS, theta_rows, theta_series
from divcurl.frames import sph_to_cart_points
from divcurl.grids import AngularGrid, SampledField, make_grids
from divcurl.solver import far_field_coeffs
from divcurl.transform import (_POINT_BLOCK, ScalarSpectral, SpectralField,
                               _mode_tables, analyze, mode_degrees,
                               mode_index, spectral_curl, spectral_div,
                               spectral_grad, synthesize, synthesize_at)
from fixtures import SQRT_4PI_3, traced_peak


def _grids(L=6, n_r=32):
    return make_grids(1.0, 5.0, n_r, L)


def _bump(r):
    # panel-smooth profile supported strictly inside [1, 5]
    return np.exp(-((r - 3.0) / 0.9) ** 2)


def _random_spectral(radial, L, seed, decay=0.5):
    """Band-limited field with per-mode random amplitudes on one smooth profile."""
    rng = np.random.default_rng(seed)
    S = SpectralField(radial, L)
    amp = decay ** S.ells
    scal = amp[:, None] * (rng.standard_normal((S.n_modes, 3))
                           + 1j * rng.standard_normal((S.n_modes, 3)))
    S.coeffs[:] = scal[:, :, None] * _bump(radial.r)[None, None, :]
    S.coeffs[0, 1:] = 0.0
    return S


############################################
# Mode bookkeeping


def test_mode_index_layout():
    assert mode_index(0, 0) == 0
    assert mode_index(1, -1) == 1
    assert mode_index(1, 0) == 2
    assert mode_index(1, 1) == 3
    assert mode_index(2, -2) == 4
    with pytest.raises(ValueError):
        mode_index(2, 3)


def test_set_mode_refuses_channels_outside_0_1_2():
    # numpy would read -1 as the Phi channel and fail on 3 with IndexError
    _, rad = _grids(L=2)
    S = SpectralField(rad, 2)
    for channel in (-1, 3):
        with pytest.raises(ValueError, match="must be one of \\(0, 1, 2\\), got %d" % channel):
            S.set_mode(2, 0, channel, np.ones(rad.n_r))
    assert not S.coeffs.any()


def test_mode_degrees_round_trip():
    ells, ems = mode_degrees(5)
    assert ells.size == 36
    for k in range(36):
        assert mode_index(ells[k], ems[k]) == k
    for L in range(13):             # the per-degree loop it replaced, dtype included
        want = (np.concatenate([np.full(2 * l + 1, l) for l in range(L + 1)]),
                np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)]))
        for got, ref in zip(mode_degrees(L), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


############################################
# analyze / synthesize


def test_analyze_uniform_z_flow():
    # v = z_hat everywhere: single (1, 0) mode with c_r = c_1 = sqrt(4 pi / 3)
    ang, rad = _grids()
    theta = ang.theta[None, :, None]
    vals = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    vals[..., 0] = np.cos(theta)
    vals[..., 1] = -np.sin(theta)
    S = analyze(SampledField(rad, ang, vals), 6)
    k = mode_index(1, 0)
    assert np.abs(S.coeffs[k, 0] - SQRT_4PI_3).max() < 1e-13
    assert np.abs(S.coeffs[k, 1] - SQRT_4PI_3).max() < 1e-13
    assert np.abs(S.coeffs[k, 2]).max() < 1e-13
    rest = np.delete(S.coeffs, k, axis=0)
    assert np.abs(rest).max() < 1e-12


def test_round_trip_random_band_limited():
    ang, rad = _grids()
    S = _random_spectral(rad, 6, seed=0)
    back = analyze(synthesize(S, ang), 6)
    assert np.abs(back.coeffs - S.coeffs).max() < 1e-12


@pytest.mark.parametrize("n_phi", [16, 17])
def test_round_trip_on_oversampled_grids(n_phi):
    # extra theta nodes and phi bins with no order of their own: every
    # order m must still land in, and be read from, bin m % n_phi
    _, rad = _grids()
    ang = AngularGrid(10, n_phi)
    S = _random_spectral(rad, 6, seed=11)
    F = synthesize(S, ang)
    back = analyze(F, 6)
    assert np.abs(back.coeffs - S.coeffs).max() < 1e-12
    # one negative order alone: its samples are that harmonic times the profile
    one = SpectralField(rad, 6)
    g = _bump(rad.r)
    one.set_mode(5, -4, 1, g)
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    harmonic = np.stack(sph_oracle.vector("Psi", 5, -4, T, P), axis=-1)
    want = g[:, None, None, None] * harmonic[None]
    assert np.abs(synthesize(one, ang).values - want).max() < 1e-13


def test_analyze_below_band_limit_truncates_exactly():
    # analyzing a band-6 field at L' = 3 returns its l <= 3 coefficients
    ang, rad = _grids()
    S = _random_spectral(rad, 6, seed=12, decay=1.0)
    low = analyze(synthesize(S, ang), 3)
    assert low.coeffs.shape == (16, 3, rad.n_r)
    assert np.abs(low.coeffs - S.coeffs[:16]).max() < 1e-12


def test_synthesize_single_mode_matches_reference_eval():
    # one Phi_{3,2} mode with profile g(r): samples must equal g(r) Phi(theta, phi)
    ang, rad = _grids()
    S = SpectralField(rad, 6)
    g = _bump(rad.r)
    S.set_mode(3, 2, 2, g)
    v = synthesize(S, ang).values
    T, P = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    vr, vt, vp = sph_oracle.vector("Phi", 3, 2, T, P)
    ref = g[:, None, None, None] * np.stack([vr, vt, vp], axis=-1)[None]
    assert np.abs(v - ref).max() < 1e-13


def test_analyze_conjugation_symmetry_for_real_fields():
    # real samples force c_{l,-m} = (-1)^m conj(c_{l,m}) in every channel
    ang, rad = _grids(L=4, n_r=16)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((rad.n_r, ang.n_theta, ang.n_phi, 3))
    S = analyze(SampledField(rad, ang, vals), 4)
    for l in range(5):
        for m in range(1, l + 1):
            a = S.coeffs[mode_index(l, -m)]
            b = (-1) ** m * np.conj(S.coeffs[mode_index(l, m)])
            assert np.abs(a - b).max() < 1e-13


def test_parseval_norm():
    # S.norm() equals the quadrature L2 norm of the synthesized samples
    ang, rad = _grids()
    S = _random_spectral(rad, 6, seed=1)
    v = synthesize(S, ang).values
    dens = (np.abs(v) ** 2).sum(axis=-1)
    dens = (dens * ang.w_ct[None, :, None]).sum(axis=(1, 2)) * ang.w_phi
    direct = np.sqrt(rad.integrate(dens * rad.r ** 2))
    assert abs(S.norm() - direct) < 1e-10 * direct


def test_scalar_norm_is_finite_at_any_amplitude():
    # a (2, 0) bump whose squares overflow (1e200) or underflow (1e-200)
    _, rad = _grids()
    unit = ScalarSpectral(rad, 4)
    unit.coeffs[mode_index(2, 0)] = _bump(rad.r)
    for amp in (1e200, 1e-200):
        s = ScalarSpectral(rad, 4, amp * unit.coeffs)
        assert np.isfinite(s.norm()) and s.norm() > 0.0
        assert abs(s.norm() / amp - unit.norm()) < 1e-14 * unit.norm()


def test_constructors_copy_the_coefficients():
    # modifying a field never writes through to the caller's array
    _, rad = _grids(L=4)
    for cls, shape in ((ScalarSpectral, (25, rad.n_r)),
                       (SpectralField, (25, 3, rad.n_r))):
        c = np.ones(shape, dtype=complex)
        field = cls(rad, 4, c)
        field.coeffs[:] = 5.0
        assert np.all(c == 1.0)


def test_band_limit_enforced():
    ang, rad = _grids(L=4)
    field = SampledField(rad, ang, np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3)))
    with pytest.raises(ValueError, match="cannot resolve"):
        analyze(field, 6)
    S = SpectralField(rad, 6)
    with pytest.raises(ValueError):
        synthesize(S, ang)


def test_analyze_refuses_negative_band_limit():
    ang, rad = _grids(L=4)
    field = SampledField(rad, ang, np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3)))
    with pytest.raises(ValueError, match="L_max must be >= 0"):
        analyze(field, -1)


def test_synthesize_at_matches_grid_synthesis():
    ang, rad = _grids()
    S = _random_spectral(rad, 6, seed=2)
    v = synthesize(S, ang).values
    ii, jj, kk = [4, 17, 30], [1, 3, 6], [0, 5, 11]
    pts, want = [], []
    for i, j, k in zip(ii, jj, kk):
        pts.append(sph_to_cart_points(rad.r[i], ang.theta[j], ang.phi[k]))
        want.append(v[i, j, k])
    got = synthesize_at(S, np.array(pts))
    want_cart = []
    for (i, j, k), w in zip(zip(ii, jj, kk), want):
        from divcurl.frames import sph_to_cart_vector
        want_cart.append(sph_to_cart_vector(w[0], w[1], w[2],
                                            ang.theta[j], ang.phi[k]))
    assert np.abs(got - np.array(want_cart)).max() < 1e-12


def _special_points(rad, rng, n):
    """Poles, points on radial nodes and breakpoints, and random shell points."""
    r_on = np.concatenate([rad.breakpoints, rad.r[[0, 7, 8, rad.n_r - 1]]])
    poles = np.concatenate([[0.0, 0.0, 1.0] * r_on[:, None],
                            [0.0, 0.0, -1.0] * r_on[:, None]])
    theta = rng.uniform(0.0, np.pi, r_on.size)
    phi = rng.uniform(0.0, 2.0 * np.pi, r_on.size)
    on_nodes = sph_to_cart_points(r_on, theta, phi)
    r = rng.uniform(rad.r0, rad.rmax, n)
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.concatenate([poles, on_nodes, sph_to_cart_points(r, theta, phi)])


def test_synthesize_at_blocks_match_pointwise_calls():
    # several full blocks plus a partial one, against one call per point:
    # points over every panel, more than two blocks' worth inside a single
    # panel, and both sets together in shuffled order
    _, rad = _grids(L=4)
    S = _random_spectral(rad, 4, seed=13)
    rng = np.random.default_rng(14)
    spread = _special_points(rad, rng, 2 * _POINT_BLOCK + 37)
    assert spread.shape[0] > 2 * _POINT_BLOCK and spread.shape[0] % _POINT_BLOCK
    n = 2 * _POINT_BLOCK + 21
    r = rng.uniform(rad.breakpoints[1], rad.breakpoints[2], n)
    one_panel = sph_to_cart_points(r, np.arccos(rng.uniform(-1.0, 1.0, n)),
                                   rng.uniform(0.0, 2.0 * np.pi, n))
    pts = np.concatenate([spread, one_panel])
    each = np.vstack([synthesize_at(S, p) for p in pts])
    shuffled = rng.permutation(pts.shape[0])
    for sel in (np.arange(spread.shape[0]), spread.shape[0] + np.arange(n),
                shuffled):
        got = synthesize_at(S, pts[sel])
        assert got.shape == (sel.size, 3)
        # block sizes change the BLAS summation order: rounding only
        assert np.abs(got - each[sel]).max() <= 1e-14 * np.abs(each[sel]).max()


def test_synthesize_at_empty_and_single_point():
    _, rad = _grids()
    S = _random_spectral(rad, 6, seed=15)
    empty = synthesize_at(S, np.empty((0, 3)))
    assert empty.shape == (0, 3) and empty.dtype == complex
    one = synthesize_at(S, [0.0, 0.0, 3.0])
    assert one.shape == (1, 3)
    both = synthesize_at(S, [[0.0, 0.0, 3.0], [0.0, 0.0, -3.0]])
    assert np.abs(both[:1] - one).max() <= 1e-14 * np.abs(one).max()


def test_synthesize_at_poles_and_nodes_of_uniform_flows():
    # uniform x and z flows are smooth through the poles: every point,
    # including theta = 0, pi and points on nodes and breakpoints, must
    # return the constant Cartesian vector
    ang, rad = _grids()
    T = ang.theta[None, :, None]
    P = ang.phi[None, None, :]
    x_flow = (np.sin(T) * np.cos(P), np.cos(T) * np.cos(P), -np.sin(P))
    z_flow = (np.cos(T), -np.sin(T), 0.0 * P)
    for e, comps in [((1.0, 0.0, 0.0), x_flow), ((0.0, 0.0, 1.0), z_flow)]:
        vals = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
        for c in range(3):
            vals[..., c] = comps[c]
        S = analyze(SampledField(rad, ang, vals), 6)
        pts = _special_points(rad, np.random.default_rng(16), 20)
        got = synthesize_at(S, pts)
        assert np.abs(got - np.array(e)).max() < 1e-12


def test_transform_peak_memory_stays_near_output_size():
    # synthesize writes into its output and transforms it in place; analyze
    # holds the coefficients it returns (0.52 of the field here) and one FFT
    # chunk of 16 radial nodes (0.25); it peaks at 0.89 of the field
    ang, rad = make_grids(1.0, 5.0, 64, 16)
    S = _random_spectral(rad, 16, seed=17)
    F = synthesize(S, ang)
    synth_peak = traced_peak(lambda: synthesize(S, ang))[1]
    R, analyze_peak = traced_peak(lambda: analyze(F, 16))
    assert synth_peak <= 1.5 * F.values.nbytes
    assert analyze_peak <= 0.95 * F.values.nbytes
    assert np.abs(R.coeffs - S.coeffs).max() < 1e-12


@pytest.mark.parametrize("step", [16, 32, 48])
def test_analyze_chunks_keep_every_bit(monkeypatch, step):
    # analyze transforms its input in radial chunks cut at multiples of 16
    # nodes; every coefficient keeps the bits of one whole-field call.
    # 72 nodes leave a short last chunk; L = 3 gives 16-node chunks
    ang, rad = make_grids(1.0, 5.0, 72, 8)
    rng = np.random.default_rng(22)
    shape = (rad.n_r, ang.n_theta, ang.n_phi, 3)
    F = SampledField(rad, ang, rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
    default = [analyze(F, L).coeffs for L in (8, 3)]
    monkeypatch.setattr(transform, "_RADIAL_STEP", 1 << 20)
    whole = [analyze(F, L).coeffs for L in (8, 3)]
    monkeypatch.setattr(transform, "_RADIAL_STEP", step)
    for L, a, b in zip((8, 3), default, whole):
        assert a.tobytes() == b.tobytes()
        assert analyze(F, L).coeffs.tobytes() == b.tobytes()


def test_synthesize_at_temporaries_do_not_grow_with_point_count():
    # the per-block buffers are bounded by _POINT_BLOCK: ten times the
    # points may add little more than the larger output itself
    _, rad = _grids(L=8)
    S = _random_spectral(rad, 8, seed=18)
    pts = _special_points(rad, np.random.default_rng(19), 4000)[:4000]
    peaks = [traced_peak(lambda: synthesize_at(S, pts[:n]))[1] for n in (400, 4000)]
    extra_out = (4000 - 400) * 3 * 16
    assert peaks[1] < peaks[0] + 2 * extra_out


def test_synthesize_at_peak_halves_with_its_block():
    # 128-point blocks and the phase spread 16 points at a time: 256-point
    # blocks with one (block, n_modes) phase table peaked at 6.97 MB here
    _, rad = make_grids(1.0, 5.0, 64, 16)
    S = _random_spectral(rad, 16, seed=31)
    pts = _special_points(rad, np.random.default_rng(32), 512)[:512]
    peak = traced_peak(lambda: synthesize_at(S, pts))[1]
    assert peak <= 0.5 * 6.97e6


@pytest.mark.parametrize("block", [1, 7, 128, 256])
def test_synthesize_at_blocks_keep_every_bit_on_radial_nodes(monkeypatch,
                                                             block):
    # a point's value depends on its block only through the rows of the
    # panel products.  At a radial node the interpolation row is exact, so
    # every block size keeps every bit; elsewhere a row rounds by the BLAS
    # tile it falls in (see test_synthesize_at_blocks_match_pointwise_calls)
    _, rad = make_grids(1.0, 5.0, 64, 8)
    S = _random_spectral(rad, 8, seed=33)
    rng = np.random.default_rng(34)
    n = 600
    pts = sph_to_cart_points(rng.choice(rad.r, n),
                             np.arccos(rng.uniform(-1.0, 1.0, n)),
                             rng.uniform(0.0, 2.0 * np.pi, n))
    monkeypatch.setattr(transform, "_POINT_BLOCK", 1 << 20)
    whole = synthesize_at(S, pts)
    monkeypatch.setattr(transform, "_POINT_BLOCK", block)
    assert synthesize_at(S, pts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("per_call", [1, 7, 37])
def test_synthesize_at_split_calls_agree_and_keep_node_bits(per_call):
    # the other points of a call only move the last bits of a point off the
    # radial nodes; on a node its interpolation row is exact in any call
    _, rad = make_grids(1.0, 5.0, 64, 8)
    S = _random_spectral(rad, 8, seed=36)
    rng = np.random.default_rng(37)
    n = 600
    angles = (np.arccos(rng.uniform(-1.0, 1.0, n)), rng.uniform(0.0, 2.0 * np.pi, n))
    for r, exact in ((rng.uniform(rad.r0, rad.rmax, n), False),
                     (rng.choice(rad.r, n), True)):
        pts = sph_to_cart_points(r, *angles)
        whole = synthesize_at(S, pts)
        split = np.vstack([synthesize_at(S, pts[i:i + per_call])
                           for i in range(0, n, per_call)])
        if exact:
            assert split.tobytes() == whole.tobytes()
        else:
            assert np.abs(split - whole).max() <= 1e-14 * np.abs(whole).max()


# the complex point is not truncated to its real part, (2, 0, 0)
@pytest.mark.parametrize("bad", [(5, 4), (5, 2), (2, 3, 3), (4,), np.array([[2 + 3j, 0, 0]])])
def test_synthesize_at_rejects_points_not_n_by_3(bad):
    _, rad = _grids()
    S = _random_spectral(rad, 6, seed=35)
    pts = np.full(bad, 1.5) if isinstance(bad, tuple) else bad
    with pytest.raises(ValueError, match=r"pts must be \(N, 3\), got "):
        synthesize_at(S, pts)


def test_synthesize_at_rejects_points_outside_shell():
    _, rad = _grids()
    S = SpectralField(rad, 6)
    with pytest.raises(ValueError):
        synthesize_at(S, np.array([[6.0, 0.0, 0.0]]))
    # a NaN coordinate gives a NaN radius, which is not inside the shell
    for bad in ([np.nan, 0.0, 0.0], [2.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match=r"\[r0, rmax\]"):
            synthesize_at(S, np.array([[3.0, 0.0, 0.0], bad]))


def test_synthesize_at_is_exact_near_the_poles():
    # the theta rows are Fourier series in theta itself: nothing recovers
    # sin(theta) as sqrt(1 - cos^2), which put the Legendre recurrence
    # 7.6e-10 off this uniform flow at theta = 1e-9 and pi - 1e-9
    _, rad = _grids(L=8)
    flow = far_field_coeffs([1.0, 0.0, 0.0], rad, 8)
    theta = np.array([1e-12, 1e-9, 1e-6, 1e-3, np.pi - 1e-9])
    got = synthesize_at(flow, sph_to_cart_points(3.0, theta, 0.7))
    assert np.abs(got - [1.0, 0.0, 0.0]).max() < 1e-12


def _rows(series, theta):
    """(n, n_modes, 3) rows (A, B, C) of theta_rows, in flat mode order."""
    odd, even = theta_rows(series, theta)
    rows = np.empty((theta.size, odd.shape[2] + even.shape[2], 3))
    rows[:, 1::2], rows[:, ::2] = odd.transpose(0, 2, 1), even.transpose(0, 2, 1)
    return rows


@pytest.mark.parametrize("L", [8, 32, 64])
def test_theta_rows_match_sph_harm_y_near_the_poles(L):
    # A e^{im phi} = Y, B e^{im phi} = dY/dtheta and i C e^{im phi} =
    # dY/dphi / sin(theta), relative to the largest value of each (Y up to
    # 3.2, the others up to 103 at L = 64); the recurrence missed Y by
    # 3.7e-8 at theta = 1e-9 and L = 32
    theta = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.4, 1.3, 2.9,
                      np.pi - 1e-6, np.pi - 1e-9])
    phi = np.random.default_rng(L).uniform(0.0, 2.0 * np.pi, theta.size)
    ells, ems = mode_degrees(L)
    rows = _rows(theta_series(L), theta)
    e = np.exp(1j * ems * phi[:, None])
    y = sph_oracle.vector("Y", ells, ems, theta[:, None], phi[:, None])[0]
    _, psi_t, psi_p = sph_oracle.vector("Psi", ells, ems, theta[:, None],
                                        phi[:, None])
    for j, want in enumerate((y, psi_t, psi_p)):
        got = (1j if j == 2 else 1.0) * rows[..., j] * e
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("L", [1, 8, 32, 64])
def test_theta_rows_keep_their_bits_at_any_row_of_the_product(L):
    # OpenBLAS rounds a row by the tile it sits in, so the theta rows come
    # from products of one fixed shape, THETA_ROWS rows, padded: at 96
    # rows a point gets the same bits at every row and alone, with one
    # BLAS thread or two (at 16, 32 or 64 rows it would not, nor at 48 with
    # two).  Off the poles, where the Legendre recurrence is accurate, the
    # rows are its tables
    theta = np.random.default_rng(L).uniform(0.25, np.pi - 0.25, THETA_ROWS)
    series = theta_series(L)
    group = _rows(series, theta)
    assert _rows(series, theta[::-1]).tobytes() == group[::-1].tobytes()
    for i in range(0, THETA_ROWS, 7):
        # the point at every row of one product, and alone
        every = _rows(series, np.full(THETA_ROWS, theta[i]))
        assert (every.view(np.int64) == group[i].view(np.int64)).all()
        assert _rows(series, theta[i:i + 1]).tobytes() == group[i].tobytes()
    tables = np.stack(_mode_tables(L, np.cos(theta)), axis=-1).transpose(1, 0, 2)
    assert np.abs(group - tables).max() <= 1e-13 * np.abs(tables).max()


############################################
# Spectral calculus


def test_div_of_uniform_flow_vanishes():
    ang, rad = _grids()
    theta = ang.theta[None, :, None]
    vals = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    vals[..., 0] = np.cos(theta)
    vals[..., 1] = -np.sin(theta)
    d = spectral_div(analyze(SampledField(rad, ang, vals), 6))
    assert np.abs(d.coeffs).max() < 1e-12


def test_div_of_monopole_stretch():
    # v = r Y_00 rhat has divergence profile 3 Y_00
    _, rad = _grids()
    S = SpectralField(rad, 0)
    S.set_mode(0, 0, 0, rad.r)
    d = spectral_div(S)
    assert np.abs(d.coeffs[0] - 3.0).max() < 1e-12


def test_div_of_phi_sector_is_exactly_zero():
    _, rad = _grids()
    S = SpectralField(rad, 4)
    rng = np.random.default_rng(3)
    S.coeffs[:, 2] = rng.standard_normal((S.n_modes, rad.n_r))
    assert np.abs(spectral_div(S).coeffs).max() == 0.0


def test_grad_of_power_profile():
    # g = r^2 on mode (2, 1): grad = (2r) Y + (r) Psi
    _, rad = _grids()
    s = ScalarSpectral(rad, 4)
    s.coeffs[mode_index(2, 1)] = rad.r ** 2
    G = spectral_grad(s)
    k = mode_index(2, 1)
    assert np.abs(G.coeffs[k, 0] - 2.0 * rad.r).max() < 1e-10
    assert np.abs(G.coeffs[k, 1] - rad.r).max() < 1e-13
    assert np.abs(G.coeffs[k, 2]).max() == 0.0


def test_curl_of_gradient_vanishes_identically():
    # cancellation happens through r (s / r), so the differentiation matrix
    # sees last-bit noise; the residual stays at amplified round-off
    _, rad = _grids()
    rng = np.random.default_rng(4)
    s = ScalarSpectral(rad, 5)
    s.coeffs[:] = (rng.standard_normal(s.coeffs.shape)
                   + 1j * rng.standard_normal(s.coeffs.shape))
    C = spectral_curl(spectral_grad(s))
    assert np.abs(C.coeffs).max() < 1e-11


def test_div_of_curl_vanishes_identically():
    # conservative forms make div(curl(.)) cancel at the level of the
    # differentiation matrix, for arbitrary (even rough) coefficients
    _, rad = _grids()
    rng = np.random.default_rng(5)
    S = SpectralField(rad, 5)
    S.coeffs[:] = (rng.standard_normal(S.coeffs.shape)
                   + 1j * rng.standard_normal(S.coeffs.shape))
    C = spectral_curl(S)
    d = spectral_div(C)
    assert np.abs(d.coeffs).max() < 1e-9 * max(np.abs(C.coeffs).max(), 1.0)


def test_curl_of_decaying_phi_profile():
    # c_2 = r^(-l-1) on one mode: curl = -l(l+1) r^(-l-2) Y + l r^(-l-2) Psi
    _, rad = _grids(n_r=64)
    r = rad.r
    for l, m in [(1, 0), (2, 1), (3, -2)]:
        S = SpectralField(rad, 4)
        S.set_mode(l, m, 2, r ** (-l - 1.0))
        C = spectral_curl(S)
        k = mode_index(l, m)
        ref_r = -l * (l + 1.0) * r ** (-l - 2.0)
        ref_1 = l * r ** (-l - 2.0)
        assert np.abs(C.coeffs[k, 0] - ref_r).max() < 1e-9
        assert np.abs(C.coeffs[k, 1] - ref_1).max() < 1e-9
        assert np.abs(C.coeffs[k, 2]).max() == 0.0


def test_curl_radial_channel_feeds_phi_exactly():
    # c_r = r^(-l-2), no tangential input: curl has only the Phi channel
    # -c_r / r, a pointwise quotient with no differentiation error
    _, rad = _grids()
    r = rad.r
    S = SpectralField(rad, 3)
    S.set_mode(2, 2, 0, r ** -4.0)
    C = spectral_curl(S)
    k = mode_index(2, 2)
    assert np.abs(C.coeffs[k, 2] + r ** -5.0).max() < 1e-14
    assert np.abs(C.coeffs[k, 0]).max() == 0.0
    other = np.delete(C.coeffs, k, axis=0)
    assert np.abs(other).max() == 0.0


def test_curl_against_finite_differences():
    # independent check: Cartesian central differences of the synthesized
    # field reproduce the spectral curl at off-grid points
    _, rad = _grids()
    S = _random_spectral(rad, 4, seed=6)
    C = spectral_curl(S)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (6, 3))
    pts += np.array([0.0, 0.0, 3.0])          # keep radii inside the shell
    h = 1e-3
    grad = np.empty((6, 3, 3), dtype=complex)  # grad[p, i, j] = d v_j / d x_i
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[:, i, :] = (synthesize_at(S, pts + e) - synthesize_at(S, pts - e)) / (2 * h)
    fd_curl = np.stack([grad[:, 1, 2] - grad[:, 2, 1],
                        grad[:, 2, 0] - grad[:, 0, 2],
                        grad[:, 0, 1] - grad[:, 1, 0]], axis=-1)
    spec = synthesize_at(C, pts)
    scale = np.abs(spec).max()
    assert np.abs(fd_curl - spec).max() < 1e-4 * scale


def test_l0_tangential_channels_stay_zero():
    _, rad = _grids()
    S = SpectralField(rad, 2)
    with pytest.raises(ValueError):
        S.set_mode(0, 0, 1, rad.r)
    with pytest.raises(ValueError, match="l = 3 exceeds L_max = 2"):
        S.mode(3, 0)
    with pytest.raises(ValueError, match=r"coeffs shape \(9, 3, 5\) does not match"):
        SpectralField(rad, 2, np.zeros((9, 3, 5)))
    coeffs = np.ones((9, 3, rad.n_r), dtype=complex)
    T = SpectralField(rad, 2, coeffs)
    assert np.abs(T.coeffs[0, 1:]).max() == 0.0
    assert np.all(coeffs == 1.0)                 # the caller's array is a copy
    U = T.copy()
    U.coeffs[:] = 2.0
    assert np.all(T.coeffs[1:] == 1.0)


def _operators(S):
    """curl, div and the gradient of the Y channel of S, as byte strings."""
    s = ScalarSpectral(S.radial, S.L_max, S.coeffs[:, 0])
    return [spectral_curl(S).coeffs.tobytes(), spectral_div(S).coeffs.tobytes(),
            spectral_grad(s).coeffs.tobytes()]


@pytest.mark.parametrize("L", [0, 4, 7])
@pytest.mark.parametrize("per", [2, 3, 4, 8])
def test_operator_mode_blocks_keep_every_bit(monkeypatch, L, per):
    # blocks of at least `per` modes, equal to within one mode; 25 and 64
    # modes cut by plain slices of 4 or 8 would leave a one-mode tail
    _, rad = _grids()
    S = _random_spectral(rad, L, seed=36)
    default = _operators(S)
    monkeypatch.setattr(transform, "_MODE_BLOCK", 1 << 30)
    whole = _operators(S)
    monkeypatch.setattr(transform, "_MODE_BLOCK", per * rad.n_r)
    sizes = [b.stop - b.start for b in transform._mode_blocks(S.n_modes, rad.n_r)]
    assert sum(sizes) == S.n_modes and (L == 0 or min(sizes) >= per)
    assert max(sizes) - min(sizes) <= 1
    assert default == whole
    assert _operators(S) == whole


def test_operator_peaks_stay_near_their_outputs():
    # mode blocks of about 2^14 numbers: curl held about six, and div four,
    # (n_modes, n_r) temporaries when they worked on whole arrays
    _, rad = make_grids(1.0, 5.0, 256, 32)
    S = _random_spectral(rad, 32, seed=37)
    peaks = []
    for op in (spectral_curl, spectral_div):
        out, peak = traced_peak(lambda: op(S))
        peaks.append(peak / out.coeffs.nbytes)
    assert peaks[0] <= 1.15
    assert peaks[1] <= 1.3
