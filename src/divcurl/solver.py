"""
Compatibility diagnostics and the explicit solution of the exterior
divergence-curl problem

    curl v = f,  div v = 0   for |x| > r0,
    v = 0 on |x| = r0,       v -> v_inf at infinity,

for sources f supported in the shell [r0, rmax].  In the VSH basis the
problem decouples into an ODE system per (l, m) that is solved in closed
form by radial quadratures.  The system is overdetermined: solvability
requires f to have vanishing normal trace at r0, to be solenoidal, and to
satisfy one scalar moment condition per mode,

    M_lm = integral_{r0}^{rmax} s^(1-l) f2_lm(s) ds = 0        (v_inf = 0),

or M_lm matched to the l = 1 coefficients of v_inf in the uniform-flow
variant.  `check_compatibility` quantifies all of these; `solve_exterior`
enforces them with a graded tolerance and returns the unique solution.

With u(r) = integral_{r0}^{r} (s/r)^(l+2) f2 ds and w(r) =
integral_{r}^{rmax} (r/s)^(l-1) f2 ds, the no-slip solution per mode reads

    V_r  = -l(l+1)/(2l+1) (u + w)
    V_1  =  l/(2l+1) u - (l+1)/(2l+1) w
    V_2  = -r f_r / (l(l+1)),

which vanishes at r0 exactly when M_lm = 0 (there u = 0 and
w = r0^(l-1) M_lm) and decays like r^(-2-l) beyond the support of f.  The
solve weights each panel [a, b] by (s/a)^(l+2) and (b/s)^(l-1) and carries
u and w across panel ends: every weight is a ratio of radii in [1, b/a].

No step needs every mode at once.  The divergence residual, the data
norm, the moments, the solve and the projection take the modes in the
blocks of `transform._mode_blocks`, writing into their outputs, so each
holds its input, its output and one block's temporaries, and every value
keeps the bits of one whole-array pass.
"""

import warnings
from collections import namedtuple

import numpy as np

from .transform import SpectralField, _divergence, _mode_blocks

__all__ = ["CompatReport", "IncompatibilityError", "CompatibilityWarning",
           "check_compatibility", "solve_exterior", "boundary_trace",
           "BoundaryTrace", "partial_slip_project", "far_field_coeffs",
           "radial_moments", "DEFAULT_TOL", "REFUSE_TOL"]

# residuals (scaled by the data norm) below DEFAULT_TOL are clean; between
# the two thresholds the solver warns and proceeds; beyond REFUSE_TOL it
# refuses, since the computed field would visibly violate the no-slip wall
DEFAULT_TOL = 1e-8
REFUSE_TOL = 1e-4


class CompatibilityWarning(UserWarning):
    """Data violates a solvability condition mildly (solver proceeds)."""


class IncompatibilityError(ValueError):
    """Data violates a solvability condition beyond the refuse threshold."""

    def __init__(self, l, m, name, scaled_residual):
        self.mode = (int(l), int(m))
        self.residual_name = name
        self.scaled_residual = float(scaled_residual)
        super().__init__(
            f"mode (l={l}, m={m}): {name} residual {scaled_residual:.3e} "
            f"(relative to data norm) exceeds {REFUSE_TOL:g}")


def _vinf(far):
    """The uniform flow at infinity as a (3,) array; None is no flow."""
    v = np.zeros(3) if far is None else np.asarray(far, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError("vinf must be a finite Cartesian 3-vector")
    return v


_L1 = slice(1, 4)       # flat indices l^2 + l + m of the l = 1 modes


def _far_l1_coeffs(vinf):
    """
    l = 1 expansion coefficients (a_-1, a_0, a_1) of a constant field.

    A constant vector c has c = sum_m a_m (Y_1m + Psi_1m) with
    a_0 = sqrt(4 pi / 3) c_z and a_{+-1} = -+ sqrt(2 pi / 3)(c_x -+ i c_y);
    both the Y and Psi channels carry the same constant profile.
    """
    vx, vy, vz = vinf
    return np.array([np.sqrt(2.0 * np.pi / 3.0) * (vx + 1j * vy),
                     np.sqrt(4.0 * np.pi / 3.0) * vz,
                     -np.sqrt(2.0 * np.pi / 3.0) * (vx - 1j * vy)])


def _moment_targets(n_modes, vinf):
    """
    The moment each mode must have for no slip at r0: 0, except at l = 1
    under a uniform flow, where it is (2l+1)/(l(l+1)) a_m, i.e. 3/2 of the
    flow's coefficient.
    """
    required = np.zeros(n_modes, dtype=complex)
    required[_L1] = 1.5 * _far_l1_coeffs(vinf)[:n_modes - 1]    # empty when L_max = 0
    return required


############################################
# Diagnostics


def _powers(r, ells, *pairs):
    """
    (row, tables): per (a, s) in pairs a table of r^(a + s l), one pow per
    distinct degree l; table[row[k]] is the row of degree ells[k].
    """
    deg, row = np.unique(ells, return_inverse=True)
    if deg.size < 3:        # numpy may take another pow kernel (other bits) for < 3 rows
        deg, row = np.asarray(ells), np.arange(len(ells))
    return row, [r ** (a + s * deg[:, None]) for a, s in pairs]


def radial_moments(radial, g, ells):
    """
    The moments integral_{r0}^{rmax} s^(1-l) g_k(s) ds of a stack of profiles.

    Parameters
    ----------
    radial: RadialGrid
    g: (K, n_r) array
        radial profiles, one per row
    ells: (K,) integer array
        the degree l of each row

    Returns
    -------
    (K,) array
        for the Phi-channel profiles f2 of a source these are the
        solvability moments M_lm, i.e. the inner products of the data with
        the pseudo-harmonic family Phi_lm / r^(l+1) without the l(l+1)
        factor.  A moment that cannot be represented reads inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        row, (p,) = _powers(radial.r, ells, (1.0, -1))
        out = np.empty(len(row), dtype=np.result_type(g, float))
        for b in _mode_blocks(len(row), radial.n_r):
            out[b] = radial.integrate(p[row[b]] * g[b])
    return out


class CompatReport(namedtuple("CompatReport", ["ells", "ems", "normal_trace", "solenoid",
                                               "boundary_deriv", "moment", "field_norm"])):
    """
    Per-mode solvability residuals of a source field.

    Arrays are indexed like SpectralField modes (flat l^2 + l + m):
    normal_trace |f_r(r0)|, solenoid max_r |div residual|, boundary_deriv
    |r0 f_r'(r0) - l(l+1) f1(r0)|, and the complex moment
    integral s^(1-l) f2 ds.  `field_norm` holds the L2 norm of the data,
    used to scale residuals for tolerance decisions.
    """

    __slots__ = ()
    COLUMNS = ("l", "m", "normal_trace", "solenoid", "boundary_deriv",
               "moment_re", "moment_im")
    _KINDS = ("normal_trace", "solenoid", "boundary_deriv", "moment")

    def worst(self, required_moment=None):
        """
        The largest residual over all modes and kinds.

        Parameters
        ----------
        required_moment: array of per-mode complex targets, optional
            moments are judged by |moment - required| (uniform-flow variant);
            default target is zero.

        Returns
        -------
        (l, m, name, value)
            a NaN residual counts as the largest; the first one is named
        """
        gap = np.abs(self.moment if required_moment is None
                     else self.moment - required_moment)
        table = np.stack([self.normal_trace, self.solenoid, self.boundary_deriv,
                          np.where(self.ells >= 1, gap, 0.0)])
        kind, k = divmod(int(np.argmax(table)), table.shape[1])  # first NaN wins
        return (int(self.ells[k]), int(self.ems[k]), self._KINDS[kind],
                float(table[kind, k]))

    def as_table(self):
        """Tab-separated text table, one row per mode (l asc, m asc)."""
        rows = np.column_stack([self.ells, self.ems, self.normal_trace, self.solenoid,
                                self.boundary_deriv, self.moment.real, self.moment.imag])
        row = "\n%d\t%d" + "\t%.17g" * 5
        return "\t".join(self.COLUMNS) + row * len(rows) % tuple(rows.ravel().tolist()) + "\n"


def check_compatibility(f):
    """
    Evaluate every solvability residual of a source field.

    Parameters
    ----------
    f: SpectralField

    Returns
    -------
    CompatReport
        diagnostics for all modes l <= L_max (never raises); the l = 0 row
        uses the same formulas with l(l+1) = 0, so a radial monopole shows
        up through its normal trace and divergence.
    """
    rad = f.radial
    fr, f1, f2 = f.coeffs[:, 0], f.coeffs[:, 1], f.coeffs[:, 2]
    solenoid = np.empty(f.n_modes)
    for b in _mode_blocks(f.n_modes, rad.n_r):
        solenoid[b] = np.abs(_divergence(f, b)).max(axis=1)
    normal_trace = np.abs(rad.at_r0(fr))
    boundary_deriv = np.abs(rad.r0 * rad.slope_at_r0(fr)
                            - f.ells * (f.ells + 1.0) * rad.at_r0(f1))
    moment = radial_moments(rad, f2, f.ells)
    return CompatReport(f.ells.copy(), f.ems.copy(), normal_trace, solenoid,
                        boundary_deriv, moment, float(f.norm()))


############################################
# Solver


def solve_exterior(f, far=None, tol=DEFAULT_TOL):
    """
    Solve curl v = f, div v = 0 outside the sphere with no slip at r0.

    Parameters
    ----------
    f: SpectralField
        source (vorticity), supported in [r0, rmax]
    far: 3-vector or None
        uniform flow at infinity; None means decay to zero
    tol: float
        residuals scaled by the data norm above this emit a
        CompatibilityWarning; above REFUSE_TOL the solve raises

    Returns
    -------
    SpectralField
        the velocity field V on the same grids.  Beyond the support of f
        each mode continues as the decaying multipole r^(-2-l), plus the
        constant l = 1 contribution of `far`.

    Raises
    ------
    IncompatibilityError
        when a residual exceeds REFUSE_TOL, carrying the offending mode,
        or when a coefficient is NaN or Inf (the data norm is not finite).
    ValueError
        when a power of the panels' ratios of radii is not finite (r0 = 0),
        or when finite data have a moment M_lm that is not; both name degree and grid.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    vinf = _vinf(far)
    if f.L_max < 1 and vinf.any():
        raise ValueError("need L_max >= 1 to hold an l = 1 field")
    rad, r = f.radial, f.radial.r
    P, n, N, bp = rad.n_panels, rad.nodes_per_panel, rad.n_r, rad.breakpoints
    # columns: r/a and b/r at the nodes of each panel [a, b], then a/b per panel
    with np.errstate(divide="ignore", over="ignore"):   # non-finite tables are refused
        ratios = np.concatenate([r / np.repeat(bp[:-1], n), np.repeat(bp[1:], n) / r,
                                 bp[:-1] / bp[1:]])
        row, (grow, shrink) = _powers(ratios, f.ells, (2.0, 1), (-1.0, 1))
    finite = (np.isfinite(grow).all(axis=1) & np.isfinite(shrink).all(axis=1))[row]
    if not finite.all():
        raise ValueError(f"powers of the ratios of radii are not finite from degree l = "
                         f"{f.ells[finite.argmin()]} on {rad!r}; r0 must be positive")
    report = check_compatibility(f)
    bad = ~np.isfinite(report.moment)
    if np.isfinite(report.field_norm) and bad.any():    # finite data, moment out of range
        raise ValueError(f"the moment of degree l = {f.ells[bad.argmax()]} is not finite "
                         f"on {rad!r}; the solution cannot be represented")
    required = _moment_targets(f.n_modes, vinf)

    denom = report.field_norm + float(np.linalg.norm(vinf)) or 1.0
    l_bad, m_bad, name, value = report.worst(required)
    # a NaN or Inf coefficient makes the data norm non-finite
    if not (np.isfinite(denom) and value <= REFUSE_TOL * denom):
        raise IncompatibilityError(l_bad, m_bad, name, value / denom)
    if value > tol * denom:
        warnings.warn(
            f"solvability residual {value / denom:.3e} at mode "
            f"(l={l_bad}, m={m_bad}, {name}) exceeds tol={tol:g}; "
            "the wall trace of the solution will be of that size",
            CompatibilityWarning, stacklevel=2)

    ell = f.ells[:, None].astype(float)
    ll1 = ell * (ell + 1.0)
    coef = -ll1 / (2.0 * ell + 1.0)
    safe = np.where(ll1 > 0, ll1, 1.0)
    V = SpectralField(rad, f.L_max)
    for b in _mode_blocks(f.n_modes, rad.n_r):
        k, f2, v = row[b], f.coeffs[b, 2], V.coeffs[b]
        # outward: u(r) = (a/r)^(l+2) [u(a) + integral_a^r (s/a)^(l+2) f2 ds]
        g = np.multiply(grow[k, :N], f2)                # the block's product buffer
        G, I = rad._panels(g), np.empty_like(g)
        rad._matmul(G, rad._K.transpose(0, 2, 1), out=rad._panels(I))  # from each panel start
        tot = rad._matmul(G, rad.w.reshape(P, n, 1))[..., 0]           # (P, K) whole panels
        for p in range(1, P):                           # tot becomes u(a) + integral_a^b
            tot[p] += grow[k, 2 * N + p - 1] * tot[p - 1]
        I.reshape(-1, P, n)[:, 1:] += (grow[k, 2 * N:-1] * tot[:-1].T)[..., None]
        np.divide(I, grow[k, :N], out=v[:, 0])          # u waits in V_r
        # inward: w(r) = (r/b)^(l-1) [w(b) + integral_r^b (b/s)^(l-1) f2 ds]
        np.multiply(shrink[k, N:2 * N], f2, out=g)
        rad._matmul(G, rad._K.transpose(0, 2, 1), out=rad._panels(I))
        tot = rad._matmul(G, rad.w.reshape(P, n, 1))[..., 0]
        for p in range(P - 1, 0, -1):                   # tot becomes w(b) + integral_a^b
            tot[p - 1] += shrink[k, 2 * N + p] * tot[p]
        np.subtract(tot.T[..., None], I.reshape(-1, P, n), out=I.reshape(-1, P, n))
        I /= shrink[k, N:2 * N]
        np.multiply(coef[b], np.add(v[:, 0], I, out=I), out=v[:, 0])
        del I                                           # before the derivative's temporaries
        # V_1 = l/(2l+1) u - (l+1)/(2l+1) w, realized through the identity
        # V_1 = (r^2 V_r)' / (l(l+1) r) so the discrete divergence of the
        # solution vanishes to rounding (same derivative matrix as spectral_div)
        np.divide(rad.differentiate(np.multiply(r ** 2, v[:, 0], out=g)),
                  safe[b] * r, out=v[:, 1])
        np.divide(np.multiply(-r, f.coeffs[b, 0], out=g), safe[b], out=v[:, 2])
    V.coeffs[0] = 0.0                       # no l = 0 content in the solution

    if vinf.any():                          # adding +0.0 would flip a -0.0
        V.coeffs[_L1, :2] += _far_l1_coeffs(vinf)[:, None, None]
    return V


# per-mode channel values of a field at r = r0, plus an aggregate norm
BoundaryTrace = namedtuple("BoundaryTrace", ["ells", "ems", "values", "aggregate"])


def boundary_trace(V):
    """
    Evaluate a SpectralField at the sphere r = r0.

    Returns
    -------
    BoundaryTrace
        values[k] = (V_r, V_1, V_2) at r0 for mode k; aggregate is the
        L2(sphere) norm using the channel weights (1, l(l+1), l(l+1)).
    """
    vals = V.radial.at_r0(V.coeffs)                     # (n_modes, 3)
    dens = V._density(vals[..., None], V.ells, np.empty((V.n_modes, 1)))
    agg = np.sqrt(dens.sum(axis=0)[0])
    return BoundaryTrace(V.ells.copy(), V.ems.copy(), vals, float(agg))


def partial_slip_project(f, L, far=None):
    """
    Remove the moment obstruction from the Phi channels with l <= L.

    Each targeted mode gets f2 <- f2 - mu w with a fixed radial bump w and
    mu chosen so the mode's moment meets the target `solve_exterior` checks
    for the same `far`: 0, or 3/2 of the uniform flow's coefficient at
    l = 1.  All other channels and all modes with l > L are untouched.
    Solving the projected data then satisfies no slip exactly on the first
    L degrees and leaves a small tangential wall velocity in the higher
    ones (a partial-slip wall).

    The bump of degree l is s^(l-1) (s - r0)^2 (rmax - s)^2, normalized to
    unit L2 on [r0, rmax].  The s^(l-1) factor makes the moment integrand
    the same quartic for every l, so the subtraction stays exact in the
    discrete calculus and the projected modes solve to a clean wall trace.

    Parameters
    ----------
    f: SpectralField
    L: int
        highest degree to project, 0 <= L <= L_max; L = 0 is a no-op
    far: 3-vector or None
        uniform flow at infinity, as for `solve_exterior`

    Returns
    -------
    SpectralField
    """
    if not 0 <= L <= f.L_max:
        raise ValueError(f"L = {L} is outside [0, L_max = {f.L_max}]")
    target = _moment_targets(f.n_modes, _vinf(far))
    rad = f.radial
    r = rad.r
    ell = np.arange(1, L + 1)                       # row l - 1 of w holds degree l
    with np.errstate(all="ignore"):     # D3 replaces the normalisation; refused if unrepresentable
        w = r ** (ell[:, None] - 1.0) * (r - rad.r0) ** 2 * (rad.rmax - r) ** 2
        norm = np.sqrt(rad.integrate(w * w))
        w = w / norm[:, None]       # moments in one pass: BLAS rounds a real row by its call
        W = rad.integrate(_powers(r, ell, (1.0, -1))[1][0] * w)
    bad = ~(np.isfinite(W) & (norm >= np.finfo(float).tiny) & (norm < np.inf))
    if bad.any():
        raise ValueError(f"the projection bump of degree l = {ell[bad.argmax()]} is not "
                         f"representable on {rad!r}")
    low = np.flatnonzero(np.abs(W) < 1e-14)
    if low.size:
        raise ValueError(f"projection weight has vanishing moment at l = {ell[low[0]]}")

    out = f.copy()
    n = (L + 1) ** 2                                # modes 1 <= l <= L: flat 1 .. n - 1
    j = f.ells[1:n] - 1
    M = radial_moments(rad, f.coeffs[1:n, 2], f.ells[1:n]) - target[1:n]
    for b in _mode_blocks(n - 1, rad.n_r):
        out.coeffs[1:n, 2][b] -= (M[b] / W[j[b]])[:, None] * w[j[b]]
    return out


def far_field_coeffs(far, radial, L_max=1):
    """
    SpectralField of a constant vector field (the uniform flow itself).

    Parameters
    ----------
    far: 3-vector
    radial: RadialGrid
    L_max: int
        band limit of the output (content sits entirely at l = 1)

    Returns
    -------
    SpectralField
        c_r = c_1 = the l = 1 expansion coefficients, constant in r.
    """
    vinf = _vinf(far)
    if L_max < 1:
        raise ValueError("need L_max >= 1 to hold an l = 1 field")
    S = SpectralField(radial, L_max)
    S.coeffs[_L1, :2] = _far_l1_coeffs(vinf)[:, None, None]
    return S
