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
the l >= |m| Legendre rows with the (n_theta, n) slab of frequency bin
m % n_phi, on a block of n radial nodes (block_nodes: at most a quarter
of the coefficients' size).  analyze projects each block as it comes,
from a SampledField or a .vfld file, through a bin-major copy in which
every slab is contiguous; synthesize_blocks makes the samples block by
block; synthesize, its one-block case, peaks near its output; synthesize_at
takes the theta rows from their exact Fourier series (_fourier).

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
           "block_nodes", "analyze", "synthesize", "synthesize_blocks",
           "synthesize_at", "spectral_div", "spectral_curl", "spectral_grad"]


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
        n = self._norm()
        if 1e-100 < n < 1e100:                   # squares safely in range
            return n
        blocks = _mode_blocks(len(self.coeffs), self.radial.n_r)
        scale = np.max([np.abs(self.coeffs[b]).max(initial=0.0) for b in blocks])
        if not (0.0 < scale < np.inf):           # zero, NaN or Inf data
            return n
        return scale * self._norm(scale)

    def _norm(self, scale=None):
        # the density of coeffs / scale, summed over the modes block by
        # block: row 0 of each block's rows carries the sum so far, and
        # numpy sums axis 0 row by row, so the bits are one whole sum's
        n_r = self.radial.n_r
        acc = np.zeros(n_r)
        with np.errstate(over="ignore", under="ignore"):    # norm() rescales
            for b in _mode_blocks(len(self.coeffs), n_r):
                c = self.coeffs[b] if scale is None else self.coeffs[b] / scale
                rows = np.empty((len(c) + 1, n_r))
                rows[0] = acc
                self._density(c, self.ells[b], rows[1:])
                acc = rows.sum(axis=0)
        return np.sqrt(self.radial.integrate(acc * self.radial.r ** 2).real)


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
    def n_modes(self):
        return self.coeffs.shape[0]

    def mode(self, l, m):
        """The (3, n_r) profile block of mode (l, m)."""
        if l > self.L_max:
            raise ValueError(f"l = {l} exceeds L_max = {self.L_max}")
        return self.coeffs[mode_index(l, m)]

    def set_mode(self, l, m, channel, profile):
        """Assign one radial profile; channel is 0 (Y), 1 (Psi) or 2 (Phi)."""
        allowed = (0, 1, 2)[:3 if l else 1]     # l = 0 has no Psi/Phi channels
        if channel not in allowed:              # numpy would read -1 as Phi
            raise ValueError(f"channel at l = {l} must be one of {allowed}, got {channel}")
        self.mode(l, m)[channel] = profile

    def copy(self):
        return SpectralField(self.radial, self.L_max, self.coeffs)

    def _density(self, c, ells, out):
        # squared angular norms |c_r|^2 + l(l+1) (|c_1|^2 + |c_2|^2) per mode, into out
        ll1 = (ells * (ells + 1.0))[:, None]
        sq0 = np.square(np.abs(c[:, 0], out=out), out=out)
        sq1, sq2 = (np.square(a, out=a) for a in map(np.abs, (c[:, 1], c[:, 2])))
        sq0 += np.multiply(ll1, np.add(sq1, sq2, out=sq1), out=sq1)
        return out

    def __repr__(self):
        return (f"SpectralField(L_max={self.L_max}, n_r={self.radial.n_r}, "
                f"r in [{self.radial.r0:g}, {self.radial.rmax:g}])")


class ScalarSpectral(_Profiles):
    """Radial profiles of a scalar field expanded in Y_lm (one per mode)."""

    def _density(self, c, ells, out):
        return np.square(np.abs(c, out=out), out=out)


############################################
# Angular tables shared by analyze and synthesize


def _mode_tables(L_max, ct):
    """
    Per-mode theta rows (A, B, C), each (n_modes, len(ct)), at the cos(theta)
    nodes ct: A is the Y row, B the d/dtheta row of Psi_theta and Phi_phi,
    and C = m Pbar / sin(theta), so that Psi_phi = i C and Phi_theta = -i C.
    Negative m carries its (-1)^m conjugation sign; e^{i m phi} is not in.
    """
    P, Q = pbar_table(L_max, ct), qbar_table(L_max, ct)
    S = dpbar_table(L_max, ct, P, Q)
    ells, ems = mode_degrees(L_max)
    mu = np.abs(ems)
    sign = np.where((ems < 0) & (mu % 2 == 1), -1.0, 1.0)[:, None]
    return (sign * P[ells, mu], sign * S[ells, mu],
            sign * ems[:, None] * Q[ells, mu])


def _orders(L_max, angular, w=1.0):
    """Per order m: its bin m % n_phi, modes, Y rows and [d/dtheta; m/sin] rows, times w."""
    A, B, C = (T * w for T in _mode_tables(L_max, angular.ct))
    _, ems = mode_degrees(L_max)
    return [(m % angular.n_phi, k, A[k], np.concatenate([B[k], C[k]]))
            for m in range(-L_max, L_max + 1) for k in [np.flatnonzero(ems == m)]]


def _require_band_limit(n_theta, n_phi, L_max):
    if n_theta < L_max + 1 or n_phi < 2 * L_max + 1:
        raise ValueError(f"angular grid ({n_theta} x {n_phi}) cannot resolve L_max = "
                         f"{L_max}; need at least {L_max + 1} x {2 * L_max + 1}")


def _real_gemm(M, Z):
    """Real M times complex Z (unit-stride rows) as one real product on Z's float view."""
    return (M @ Z.view(float)).view(complex)


############################################
# Transforms

# points per block in synthesize_at; bounds its (block, n_modes) buffers
_POINT_BLOCK = 96
# numbers per channel in a mode block of the spectral operators
_MODE_BLOCK = 1 << 14
# the grid transforms take samples a multiple of this many radial nodes at
# a time; cut there, every product column is rounded as in one whole call
_RADIAL_STEP = 16


def block_nodes(n_r, L_max, n_theta, n_phi):
    """The largest multiple of _RADIAL_STEP nodes (one at least) in 1/4 of the coefficients."""
    return _RADIAL_STEP * max(1, n_r * (L_max + 1) ** 2 // (4 * n_theta * n_phi)
                              // _RADIAL_STEP)


def analyze(field, L_max):
    """
    Project a sampled vector field onto the VSH basis.

    field is a SampledField, or a .vfld file open with fileio.open_vfld:
    anything with shape (n_r, n_theta, n_phi) and blocks(step) of the
    samples, its angular grid read after the first block and its radial
    grid after the last.  Each block of n = block_nodes(...) radial nodes
    is copied bin-major, (n_phi, n_theta, 3, n), and one in-place FFT
    along phi gives the integral of v e^{-i m phi} for every order m (bin
    m % n_phi); per m one product of the weighted l >= |m| Legendre rows
    with the contiguous (n_theta, 3 n) slab of its bin gives that order's
    coefficients.  Working memory is the coefficients, one FFT buffer of a
    block (and a file's buffer) and per-order temporaries of O(L_max n_theta n).
    Returns the SpectralField of band limit L_max: c_r = surface integral of
    v . conj(Y_lm), and c_1, c_2 the Psi / Phi projections over l(l+1).
    """
    n_r, n_t, n_p = field.shape
    _require_band_limit(n_t, n_p, L_max)             # before any allocation
    step = block_nodes(n_r, L_max, n_t, n_p)
    a, buf = 0, None
    for V in field.blocks(step):
        if buf is None:          # a file has sized its buffer and read a shell
            out = SpectralField(field.radial, L_max)     # refuses L_max < 0
            inv = (out.ells > 0) / np.maximum(out.ells * (out.ells + 1.0), 1.0)  # 0 at l = 0
            ang = field.angular                          # fold quadrature weights in
            orders = _orders(L_max, ang, ang.w_phi * ang.w_ct)
            buf = np.empty(n_p * n_t * 3 * min(step, n_r), dtype=complex)
        n = len(V)
        # bin-major (n_phi, n_theta, 3, n): every order's slab is contiguous
        F = buf[:n_p * n_t * 3 * n].reshape(n_p, n_t, 3, n)
        F[...] = V.transpose(2, 1, 3, 0)
        del V                  # none held while a file rebuilds its radial grid
        np.fft.fft(F, axis=0, out=F)
        for b, k, Y_m, BC_m in orders:
            out.coeffs[k, 0, a:a + n] = _real_gemm(Y_m, F[b, :, 0])
            # the Psi and Phi channels side by side along columns
            pq = _real_gemm(BC_m, F[b, :, 1:].reshape(n_t, 2 * n))
            p, q = pq[:k.size], pq[k.size:]          # d/dtheta and m/sin rows
            out.coeffs[k, 1, a:a + n] = inv[k, None] * (p[:, :n] - 1j * q[:, n:])
            out.coeffs[k, 2, a:a + n] = inv[k, None] * (1j * q[:, :n] + p[:, n:])
        a += n
    out.radial = field.radial                        # a file's, rebuilt at its end
    return out


def synthesize_blocks(S, angular, step):
    """
    Evaluate a SpectralField on the tensor grid, yielding the samples
    (n, n_theta, n_phi, 3) of step radial nodes at a time in one buffer.
    Per order m, products of the l >= |m| Legendre rows with that order's
    coefficients give the theta profiles in frequency bin m % n_phi; one
    in-place inverse FFT along phi then yields the samples.
    """
    _require_band_limit(angular.n_theta, angular.n_phi, S.L_max)
    orders, n_r = _orders(S.L_max, angular), S.radial.n_r
    buf = np.empty((min(step, n_r), angular.n_theta, angular.n_phi, 3), dtype=complex)
    for a in range(0, n_r, step):
        values = buf[:min(step, n_r - a)]
        n = len(values)
        values.fill(0.0)                             # bins of no order stay zero
        for b, k, A_m, BC_m in orders:
            c = S.coeffs[k, :, a:a + n]              # (n_lm, 3, n)
            T_r = _real_gemm(A_m.T, c[:, 0])
            # [T_t | T_p] = [B^T C^T] [[c_1, c_2], [-i c_2, i c_1]]
            coef = np.block([[c[:, 1], c[:, 2]], [-1j * c[:, 2], 1j * c[:, 1]]])
            T_tp = _real_gemm(BC_m.T, coef)
            slab = values[:, :, b]                   # (n, n_t, 3) view
            slab[..., 0] = T_r.T
            slab[..., 1] = T_tp[:, :n].T
            slab[..., 2] = T_tp[:, n:].T
        np.fft.ifft(values, axis=2, norm="forward", out=values)   # in place
        yield values


def synthesize(S, angular):
    """
    Evaluate a SpectralField on the tensor grid of angular (which must
    resolve its band limit), the inverse of analyze, as one block of
    synthesize_blocks: it peaks near the size of its output.  Returns the
    SampledField of the pointwise sum of c_r Y_lm + c_1 Psi_lm + c_2 Phi_lm.
    """
    from .grids import SampledField

    values, = synthesize_blocks(S, angular, S.radial.n_r)
    return SampledField(S.radial, angular, values)


def synthesize_at(S, pts):
    """
    Evaluate a SpectralField at Cartesian points pts, (N, 3) or one (3,),
    as an (N, 3) complex array of Cartesian field values.  Points outside
    [r0, rmax] radially, or pts of another shape, raise ValueError.

    The points are sorted by radial panel and taken in blocks of at most
    _POINT_BLOCK, so every temporary is bounded by the block.  Per block,
    one real product of the barycentric rows with each panel's node-major
    coefficient slab interpolates every (mode, channel) profile, and
    e^{i m phi} multiplies the result.  The theta rows, exact Fourier series
    fitted once per call (_fourier), are as accurate by a pole as anywhere,
    with the same bits in any call; one batched real product per parity of
    m sums the modes.  A point off the radial nodes may change its last bits
    (~1e-16 relative) with the other points of the call, as BLAS rounds its
    row of the panel product by the rows around it; on a node it does not.
    """
    from ._fourier import theta_rows, theta_series
    from .frames import as_points, cart_to_sph_points, sph_to_cart_vector

    r, theta, phi = cart_to_sph_points(as_points(pts))
    order, runs = S.radial.locate(r)
    n, K, L = S.radial.nodes_per_panel, S.n_modes, S.L_max
    series, orders = theta_series(L), np.arange(-L, L + 1)
    slab = (None, None)                  # (panel, its node-major float view)
    out = np.empty((r.size, 3), dtype=complex)
    # (block, 6 K): (Re, Im) of (c_r, c_1, c_2) for every mode, per point
    buf = np.empty((min(r.size, _POINT_BLOCK), 6 * K))
    for lo in range(0, r.size, _POINT_BLOCK):
        hi = min(lo + _POINT_BLOCK, r.size)
        at, c = order[lo:hi], buf[:hi - lo]
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
            c[i:i + 16] *= e[i:i + 16, S.ems + L, None]
        # V[n, j, t] = sum over modes of column j of c and row t, with j =
        # (Re, Im) of (c_r, c_1, c_2) and t = (A, B, C); m is odd at odd indices
        odd, even = theta_rows(series, theta[at])
        cf = c.view(float).transpose(0, 2, 1)
        V = cf[..., 1::2] @ odd.transpose(0, 2, 1) + cf[..., ::2] @ even.transpose(0, 2, 1)
        del odd, even                    # before the next block's rows
        v_r = V[:, 0, 0] + 1j * V[:, 1, 0]
        v_t = (V[:, 2, 1] + V[:, 5, 2]) + 1j * (V[:, 3, 1] - V[:, 4, 2])
        v_p = (V[:, 4, 1] - V[:, 3, 2]) + 1j * (V[:, 2, 2] + V[:, 5, 1])
        out[at] = sph_to_cart_vector(v_r, v_t, v_p, theta[at], phi[at])
    return out


############################################
# Spectral differential operators


def _mode_blocks(n, n_r):
    """
    Equal slices of n modes on n_r radial nodes, about _MODE_BLOCK numbers
    per channel each and two modes or more (unless n < 2): a one-mode
    block would take BLAS's matrix-vector path and round otherwise.
    """
    k = max(1, n // max(2, _MODE_BLOCK // n_r))     # block count
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _divergence(S, b, out=None):
    """
    Divergence of the modes b of S: c_r' + (2/r) c_r - l(l+1)/r c_1, with
    the first two terms realized as r^(-2) (r^2 c_r)'.
    """
    r, l = S.radial.r, S.ells[b, None]
    c = S.coeffs[b]
    return np.subtract(S.radial.differentiate(r ** 2 * c[:, 0]) / r ** 2,
                       l * (l + 1.0) / r * c[:, 1], out=out)


def spectral_div(S):
    """Divergence of a SpectralField, as a ScalarSpectral (see _divergence)."""
    out = ScalarSpectral(S.radial, S.L_max)
    for b in _mode_blocks(S.n_modes, S.radial.n_r):
        _divergence(S, b, out=out.coeffs[b])
    return out


def spectral_grad(s):
    """Gradient of a ScalarSpectral, as a SpectralField: g(r) Y_lm gives (g', g/r, 0)."""
    r = s.radial.r
    out = SpectralField(s.radial, s.L_max)
    for b in _mode_blocks(len(s.coeffs), s.radial.n_r):
        out.coeffs[b, 0] = s.radial.differentiate(s.coeffs[b])
        out.coeffs[b, 1] = s.coeffs[b] / r
    out.coeffs[0, 1:] = 0.0
    return out


def spectral_curl(S):
    """
    Curl of a SpectralField, as a SpectralField: per mode -l(l+1)/r c_2,
    -(r c_2)'/r and -c_r/r + (r c_1)'/r, and zero at l = 0 (a radial
    monopole has no curl).
    """
    r = S.radial.r
    ll1 = (S.ells * (S.ells + 1.0))[:, None]
    out = SpectralField(S.radial, S.L_max)
    for b in _mode_blocks(S.n_modes, S.radial.n_r):
        c, o = S.coeffs[b], out.coeffs[b]
        o[:, 0] = -ll1[b] / r * c[:, 2]
        o[:, 1] = -S.radial.differentiate(r * c[:, 2]) / r
        o[:, 2] = -c[:, 0] / r + S.radial.differentiate(r * c[:, 1]) / r
    out.coeffs[0] = 0.0
    return out
