"""
Forward and inverse vector spherical harmonic transforms, and the spectral
divergence / curl operators.

A vector field on the shell grid is expanded as

    v = sum_{l,m} [ c_r(r) Y_lm + c_1(r) Psi_lm + c_2(r) Phi_lm ]

with Y_lm = Y rhat, Psi_lm = r grad Y, Phi_lm = rvec x grad Y.  The three
radial profiles per (l, m) live in a SpectralField.  Analysis uses the FFT
over the uniform phi axis and Gauss-Legendre projection in cos(theta),
which is exact for band-limited fields on the grids from `make_grids`.

Both grid transforms are split by azimuthal order m, as in SHTns
(Schaeffer 2013): one FFT along phi, and per order one dense product of
the l >= |m| Legendre rows with the (n_theta, n_r) slab of frequency bin
m % n_phi.  No array indexed by every mode and every grid node is ever
formed, so synthesize peaks at about the size of the field it returns.
analyze takes its FFT a few radial nodes at a time, so it holds the
coefficients it returns and one FFT chunk no larger than them.
synthesize_at sorts its points by radial panel and works through them in
blocks of at most _POINT_BLOCK = 128: per block one real product
interpolates every radial profile, and one batched real product of each
point's Legendre rows with its coefficients does the sum over modes.

In this basis divergence and curl act mode by mode on the radial profiles:

    div  v -> c_r' + (2/r) c_r - l(l+1)/r c_1                    (Y channel)
    curl v -> -l(l+1)/r c_2                                      (Y channel)
              -(c_2' + c_2/r)                                    (Psi channel)
              -c_r/r + c_1' + c_1/r                              (Phi channel)

so both operators reduce to dense matrix actions on (n_modes, n_r) arrays.
The derivative combinations g' + k g/r are realized in the conservative
form r^(-k) (r^k g)'; with the shared discrete derivative this makes
div(curl S) vanish to rounding for arbitrary profiles, not just resolved
ones, which keeps manufactured-source pipelines exactly solenoidal.
Divergence, curl and gradient take the modes in equal blocks of about
_MODE_BLOCK numbers per channel, so each peaks near the size of its
output, and every value keeps the bits of one whole-array pass.
"""

import numpy as np

from .harmonics import pbar_table, qbar_table, dpbar_table

__all__ = ["SpectralField", "ScalarSpectral", "mode_index", "mode_degrees",
           "analyze", "synthesize", "synthesize_at", "spectral_div",
           "spectral_curl", "spectral_grad"]


def mode_index(l, m):
    """Flat index of mode (l, m) in l-major, m ascending order: l^2 + l + m."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return l * l + l + m


def mode_degrees(L_max):
    """Arrays (ells, ems) of length (L_max+1)^2 giving (l, m) per flat index."""
    ells = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    return ells, np.arange(ells.size) - ells * (ells + 1)


class _Profiles:
    """
    Complex radial profiles per (l, m) mode, at flat index l^2 + l + m,
    with the channel axes _CHANNELS between the mode and radial axes.
    A coeffs array given to the constructor is copied, never modified.
    """

    _CHANNELS = ()

    def __init__(self, radial, L_max, coeffs=None):
        if L_max < 0:
            raise ValueError("L_max must be >= 0")
        shape = ((L_max + 1) ** 2,) + self._CHANNELS + (radial.n_r,)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        else:
            coeffs = np.array(coeffs, dtype=complex)
            if coeffs.shape != shape:
                raise ValueError(f"coeffs shape {coeffs.shape} does not match {shape}")
        self.radial = radial
        self.L_max = int(L_max)
        self.coeffs = coeffs
        self.ells, self.ems = mode_degrees(self.L_max)

    def norm(self):
        """
        L2 norm of the represented field over the shell.

        Data whose squares could overflow or underflow is first divided by
        its largest |coefficient|, so finite data has a finite norm at any
        amplitude; NaN or Inf data gives a non-finite norm.
        """
        n = self._norm(self.coeffs)
        if 1e-100 < n < 1e100:                   # squares safely in range
            return n
        scale = np.abs(self.coeffs).max(initial=0.0)
        if not (0.0 < scale < np.inf):           # zero, NaN or Inf data
            return n
        return scale * self._norm(self.coeffs / scale)

    def _norm(self, c):
        with np.errstate(over="ignore", under="ignore"):    # norm() rescales
            dens = self._density(c)
        return np.sqrt(self.radial.integrate(dens * self.radial.r ** 2).real)


class SpectralField(_Profiles):
    """
    Radial coefficient profiles of a vector field in the VSH basis.

    coeffs has shape (n_modes, 3, n_r) with n_modes = (L_max+1)^2; the
    channel axis holds (c_r, c_1, c_2) for the (Y, Psi, Phi) components.
    Mode (l, m) sits at flat index l^2 + l + m.  The l = 0 mode has no
    tangential harmonics, so its c_1, c_2 rows are kept identically zero.
    A coeffs array given to the constructor is copied, never modified.
    """

    _CHANNELS = (3,)

    def __init__(self, radial, L_max, coeffs=None):
        super().__init__(radial, L_max, coeffs)
        self.coeffs[0, 1:] = 0.0

    @property
    def r0(self):
        return self.radial.r0

    @property
    def n_modes(self):
        return self.coeffs.shape[0]

    def mode(self, l, m):
        """The (3, n_r) profile block of mode (l, m)."""
        if l > self.L_max:
            raise ValueError(f"l = {l} exceeds L_max = {self.L_max}")
        return self.coeffs[mode_index(l, m)]

    def set_mode(self, l, m, channel, profile):
        """Assign one radial profile; channel is 0 (Y), 1 (Psi) or 2 (Phi)."""
        if l == 0 and channel != 0:
            raise ValueError("l = 0 has no Psi/Phi channels")
        self.mode(l, m)[channel] = profile

    def copy(self):
        return SpectralField(self.radial, self.L_max, self.coeffs)

    def _density(self, c):
        # squared angular norms |c_r|^2 + l(l+1) (|c_1|^2 + |c_2|^2), in place
        ll1 = (self.ells * (self.ells + 1.0))[:, None]
        sq0, sq1, sq2 = (np.square(a, out=a) for a in map(np.abs, c.transpose(1, 0, 2)))
        sq0 += np.multiply(ll1, np.add(sq1, sq2, out=sq1), out=sq1)
        return sq0.sum(axis=0)

    def __repr__(self):
        return (f"SpectralField(L_max={self.L_max}, n_r={self.radial.n_r}, "
                f"r in [{self.radial.r0:g}, {self.radial.rmax:g}])")


class ScalarSpectral(_Profiles):
    """Radial profiles of a scalar field expanded in Y_lm (one per mode)."""

    def _density(self, c):
        return np.square(sq := np.abs(c), out=sq).sum(axis=0)


############################################
# Angular tables shared by analyze and synthesize


def _mode_tables(L_max, ct):
    """
    Per-mode theta rows on the cos(theta) nodes.

    Returns (A, B, C) of shape (n_modes, n_theta): A is the Y row, B the
    d/dtheta row shared by Psi_theta and Phi_phi, and C = m * Pbar/sin(theta)
    so that Psi_phi = i C and Phi_theta = -i C.  Negative m carries the
    (-1)^m conjugation sign baked into the rows (the azimuthal factor
    e^{i m phi} is handled separately by the FFT).
    """
    P = pbar_table(L_max, ct)
    Q = qbar_table(L_max, ct)
    S = dpbar_table(L_max, ct, P, Q)
    ells, ems = mode_degrees(L_max)
    mu = np.abs(ems)
    sign = np.where((ems < 0) & (mu % 2 == 1), -1.0, 1.0)[:, None]
    return (sign * P[ells, mu], sign * S[ells, mu],
            sign * ems[:, None] * Q[ells, mu])


def _order_rows(L_max):
    """Pairs (m, flat indices of the modes of order m, l ascending), m = -L..L."""
    _, ems = mode_degrees(L_max)
    return [(m, np.flatnonzero(ems == m)) for m in range(-L_max, L_max + 1)]


def _require_band_limit(angular, L_max):
    if angular.n_theta < L_max + 1 or angular.n_phi < 2 * L_max + 1:
        raise ValueError(
            f"angular grid ({angular.n_theta} x {angular.n_phi}) cannot resolve "
            f"L_max = {L_max}; need at least {L_max + 1} x {2 * L_max + 1}")


def _real_gemm(M, Z):
    """Real matrix M times complex matrix Z as one real product on Z's float view."""
    Z = np.ascontiguousarray(Z)
    return (M @ Z.view(float)).view(complex)


############################################
# Transforms

# points per block in synthesize_at; bounds its (block, n_modes) buffers
_POINT_BLOCK = 128
# numbers per channel in a mode block of the spectral operators
_MODE_BLOCK = 1 << 14
# analyze transforms its input a multiple of this many radial nodes at a
# time; cut there, every product column is rounded as in one whole call
_RADIAL_STEP = 16


def analyze(field, L_max):
    """
    Project a sampled vector field onto the VSH basis.

    One FFT along phi gives the phi integral of v e^{-i m phi} for every
    azimuthal order m at once; bin m % n_phi holds order m, since the grid
    resolves L_max.  Then for each m one dense product of the weighted
    l >= |m| Legendre rows with the (n_theta, 3 n) Fourier slab of that
    bin gives all coefficients of that order on n radial nodes.  The FFT
    goes into one buffer of n radial nodes at a time, n the largest
    multiple of _RADIAL_STEP (at least one) that fits in the size of the
    coefficients: working memory is that buffer plus the coefficients, and
    per-order temporaries are O(L_max n_theta n).

    Parameters
    ----------
    field: SampledField
        spherical-frame samples on a tensor grid
    L_max: int
        band limit of the output

    Returns
    -------
    SpectralField
        c_r = surface integral of v . conj(Y_lm), and c_1, c_2 the Psi / Phi
        projections divided by the basis norm l(l+1), per radial node.
    """
    ang = field.angular
    out = SpectralField(field.radial, L_max)         # refuses L_max < 0
    _require_band_limit(ang, L_max)
    w = ang.w_phi * ang.w_ct                         # fold quadrature weights in
    A, B, C = (w * T for T in _mode_tables(L_max, ang.ct))
    n_r = field.radial.n_r
    ells, _ = mode_degrees(L_max)
    inv = np.zeros(ells.size)                        # 1 / l(l+1), 0 at l = 0
    inv[1:] = 1.0 / (ells[1:] * (ells[1:] + 1.0))
    # per order m, for every radial chunk: its modes, Y rows, [d/dtheta; m/sin] rows
    orders = _order_rows(L_max)
    Y = [A[k] for _, k in orders]
    BC = [np.concatenate([B[k], C[k]]) for _, k in orders]
    del A, B, C

    step = _RADIAL_STEP * max(1, n_r * ells.size // (ang.n_theta * ang.n_phi)
                              // _RADIAL_STEP)
    F = np.empty((min(step, n_r), ang.n_theta, ang.n_phi, 3), dtype=complex)
    for a in range(0, n_r, step):
        n = min(step, n_r - a)
        np.fft.fft(field.values[a:a + n], axis=2, out=F[:n])
        for (m, k), Y_m, BC_m in zip(orders, Y, BC):
            # (n_t, 3, n) slab of order m, channels side by side along columns
            X = F[:n, :, m % ang.n_phi, :].transpose(1, 2, 0).reshape(ang.n_theta, 3 * n)
            c_r = _real_gemm(Y_m, X[:, :n])
            pq = _real_gemm(BC_m, X[:, n:])
            p, q = pq[:k.size], pq[k.size:]          # d/dtheta and m/sin rows
            out.coeffs[k, 0, a:a + n] = c_r
            out.coeffs[k, 1, a:a + n] = inv[k, None] * (p[:, :n] - 1j * q[:, n:])
            out.coeffs[k, 2, a:a + n] = inv[k, None] * (1j * q[:, :n] + p[:, n:])
    return out


def synthesize(S, angular):
    """
    Evaluate a SpectralField on the tensor grid (inverse of analyze).

    For each azimuthal order m, dense products of the l >= |m| Legendre
    rows with that order's coefficients give the (n_theta, n_r) theta
    profiles, written into frequency bin m % n_phi of the output buffer;
    one in-place inverse FFT along phi then yields the samples.  Peak
    memory is the output array plus O(L_max n_theta n_r) per order.

    Parameters
    ----------
    S: SpectralField
    angular: AngularGrid
        must resolve the band limit of S

    Returns
    -------
    SampledField
        pointwise sum of c_r Y_lm + c_1 Psi_lm + c_2 Phi_lm.
    """
    from .grids import SampledField

    _require_band_limit(angular, S.L_max)
    A, B, C = _mode_tables(S.L_max, angular.ct)
    n_r, n_t, n_p = S.radial.n_r, angular.n_theta, angular.n_phi

    values = np.zeros((n_r, n_t, n_p, 3), dtype=complex)
    for m, k in _order_rows(S.L_max):
        c = S.coeffs[k]                              # (n_lm, 3, n_r)
        T_r = _real_gemm(A[k].T, c[:, 0])
        # [T_t | T_p] = [B^T C^T] [[c_1, c_2], [-i c_2, i c_1]]
        coef = np.block([[c[:, 1], c[:, 2]], [-1j * c[:, 2], 1j * c[:, 1]]])
        T_tp = _real_gemm(np.concatenate([B[k], C[k]]).T, coef)
        slab = values[:, :, m % n_p]                 # (n_r, n_t, 3) view
        slab[..., 0] = T_r.T
        slab[..., 1] = T_tp[:, :n_r].T
        slab[..., 2] = T_tp[:, n_r:].T
    np.fft.ifft(values, axis=2, norm="forward", out=values)   # in place
    return SampledField(S.radial, angular, values)


def synthesize_at(S, pts):
    """
    Evaluate a SpectralField at arbitrary Cartesian points.

    The points are sorted by radial panel and taken in blocks of at most
    _POINT_BLOCK, so every temporary is bounded by the block, whatever the
    point count.  Per block, one real product of the barycentric rows with
    each panel's node-major coefficient slab interpolates every (mode,
    channel) profile, e^{i m phi} multiplies the interpolated coefficients,
    and the sum over modes is one batched real product of the point's
    Legendre rows with the float view of its coefficients.  The result is
    rotated to the Cartesian frame.  Points outside [r0, rmax] radially, or
    pts of another shape than (N, 3) or (3,), raise ValueError.

    A point off the radial nodes may change its last bits (~1e-16 relative)
    with the other points of the call, as BLAS rounds its row of the panel
    product by the rows around it; a point on a radial node keeps its bits.

    Parameters
    ----------
    S: SpectralField
    pts: (N, 3) array of Cartesian positions, or one (3,) position

    Returns
    -------
    (N, 3) complex array of Cartesian field values
    """
    from .frames import as_points, cart_to_sph_points, sph_to_cart_vector

    r, theta, phi = cart_to_sph_points(as_points(pts))
    order, runs = S.radial.locate(r)
    n, K = S.radial.nodes_per_panel, S.n_modes
    orders = np.arange(-S.L_max, S.L_max + 1)
    slab = (None, None)                  # (panel, its node-major float view)
    out = np.empty((r.size, 3), dtype=complex)
    for lo in range(0, r.size, _POINT_BLOCK):
        hi = min(lo + _POINT_BLOCK, r.size)
        at = order[lo:hi]
        # per point the (K, 3) columns A, B, C; laid out (K, block, 3)
        T = np.stack(_mode_tables(S.L_max, np.cos(theta[at])), axis=-1)
        # (block, 6 K): (Re, Im) of (c_r, c_1, c_2) for every mode, per point
        c = np.empty((hi - lo, 6 * K))
        for p, a, b in runs:
            a, b = max(a, lo), min(b, hi)
            if a >= b:
                continue
            if slab[0] != p:             # panels come in order: one view each
                view = S.coeffs[:, :, p * n:(p + 1) * n].transpose(2, 0, 1)
                slab = (p, np.ascontiguousarray(view).view(float).reshape(n, 6 * K))
            np.matmul(S.radial.eval_matrix(p, r[order[a:b]]), slab[1],
                      out=c[a - lo:b - lo])
        c = c.view(complex).reshape(hi - lo, K, 3)
        # e^{i m phi} per point and order, spread over the modes 16 points
        # at a time, so the spread table stays small beside c
        e = np.exp(1j * phi[at, None] * orders)
        for i in range(0, hi - lo, 16):
            c[i:i + 16] *= e[i:i + 16, S.ems + S.L_max, None]
        # V[n, j, t] = sum over modes of column j of c and row t of T, with
        # j = (Re, Im) of (c_r, c_1, c_2) and t = (A, B, C)
        V = np.matmul(c.view(float).transpose(0, 2, 1), T.transpose(1, 0, 2))
        del c, T                         # before the next block's tables
        v_r = V[:, 0, 0] + 1j * V[:, 1, 0]
        v_t = (V[:, 2, 1] + V[:, 5, 2]) + 1j * (V[:, 3, 1] - V[:, 4, 2])
        v_p = (V[:, 4, 1] - V[:, 3, 2]) + 1j * (V[:, 2, 2] + V[:, 5, 1])
        out[at] = sph_to_cart_vector(v_r, v_t, v_p, theta[at], phi[at])
    return out


############################################
# Spectral differential operators


def _mode_blocks(S):
    """
    Equal slices of the modes of S, about _MODE_BLOCK numbers per channel
    each and two modes or more (unless S has one): a one-mode block would
    take BLAS's matrix-vector path and round otherwise.
    """
    n = S.coeffs.shape[0]
    k = max(1, n // max(2, _MODE_BLOCK // S.radial.n_r))     # block count
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def spectral_div(S):
    """
    Divergence of a SpectralField, as a ScalarSpectral.

    Per mode: c_r' + (2/r) c_r - l(l+1)/r c_1, with the first two terms
    realized as r^(-2) (r^2 c_r)'.
    """
    r = S.radial.r
    ll1 = (S.ells * (S.ells + 1.0))[:, None]
    out = ScalarSpectral(S.radial, S.L_max)
    for b in _mode_blocks(S):
        c = S.coeffs[b]
        np.subtract(S.radial.differentiate(r ** 2 * c[:, 0]) / r ** 2,
                    ll1[b] / r * c[:, 1], out=out.coeffs[b])
    return out


def spectral_grad(s):
    """
    Gradient of a ScalarSpectral, as a SpectralField.

    For a scalar g(r) Y_lm the gradient is g' Y_lm + (g/r) Psi_lm, so per
    mode the output channels are (s', s/r, 0).
    """
    r = s.radial.r
    out = SpectralField(s.radial, s.L_max)
    for b in _mode_blocks(s):
        out.coeffs[b, 0] = s.radial.differentiate(s.coeffs[b])
        out.coeffs[b, 1] = s.coeffs[b] / r
    out.coeffs[0, 1:] = 0.0
    return out


def spectral_curl(S):
    """
    Curl of a SpectralField, as a SpectralField.

    Per mode the output channels are
        Y:   -l(l+1)/r c_2
        Psi: -(c_2' + c_2/r)  = -(r c_2)'/r
        Phi: -c_r/r + c_1' + c_1/r  = -c_r/r + (r c_1)'/r
    and the l = 0 row is identically zero (a radial monopole has no curl).
    """
    r = S.radial.r
    ll1 = (S.ells * (S.ells + 1.0))[:, None]
    out = SpectralField(S.radial, S.L_max)
    for b in _mode_blocks(S):
        c, o = S.coeffs[b], out.coeffs[b]
        o[:, 0] = -ll1[b] / r * c[:, 2]
        o[:, 1] = -S.radial.differentiate(r * c[:, 2]) / r
        o[:, 2] = -c[:, 0] / r + S.radial.differentiate(r * c[:, 1]) / r
    out.coeffs[0] = 0.0
    return out
