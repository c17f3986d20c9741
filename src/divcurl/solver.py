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

With A(r) = integral_{r0}^{r} s^(2+l) f2 ds and B(r) the tail of the
moment integrand, the no-slip solution per mode reads

    V_r  = -l(l+1)/(2l+1) [ r^(-2-l) A + r^(l-1) B ]
    V_1  =  l/(2l+1) r^(-2-l) A - (l+1)/(2l+1) r^(l-1) B
    V_2  = -r f_r / (l(l+1)),

which vanishes at r0 exactly when M_lm = 0 (there A(r0) = 0 and
B(r0) = M_lm) and decays like r^(-2-l) beyond the support of f.
"""

import warnings

import numpy as np

from .transform import SpectralField, mode_index, spectral_div

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


############################################
# Diagnostics


def _powers(r, ells, a, s):
    """r^(a + s l) on rows of degree l, with one pow per distinct degree."""
    deg, row = np.unique(ells, return_inverse=True)
    if deg.size < 3:        # numpy may take another pow kernel (other bits) for < 3 rows
        deg, row = np.asarray(ells), slice(None)
    return (r ** (a + s * deg[:, None]))[row]


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
        factor.
    """
    return radial.integrate(_powers(radial.r, ells, 1.0, -1) * g)


class CompatReport:
    """
    Per-mode solvability residuals of a source field.

    Arrays are indexed like SpectralField modes (flat l^2 + l + m):
    normal_trace |f_r(r0)|, solenoid max_r |div residual|, boundary_deriv
    |r0 f_r'(r0) - l(l+1) f1(r0)|, and the complex moment
    integral s^(1-l) f2 ds.  `field_norm` holds the L2 norm of the data,
    used to scale residuals for tolerance decisions.
    """

    COLUMNS = ("l", "m", "normal_trace", "solenoid", "boundary_deriv",
               "moment_re", "moment_im")

    def __init__(self, ells, ems, normal_trace, solenoid, boundary_deriv,
                 moment, field_norm):
        self.ells = ells
        self.ems = ems
        self.normal_trace = normal_trace
        self.solenoid = solenoid
        self.boundary_deriv = boundary_deriv
        self.moment = moment
        self.field_norm = float(field_norm)

    def mode(self, l, m):
        """Residual 4-tuple (normal_trace, solenoid, boundary_deriv, moment)."""
        k = mode_index(l, m)
        return (self.normal_trace[k], self.solenoid[k],
                self.boundary_deriv[k], self.moment[k])

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
        gap = np.where(self.ells >= 1, gap, 0.0)
        stack = {"normal_trace": self.normal_trace, "solenoid": self.solenoid,
                 "boundary_deriv": self.boundary_deriv, "moment": gap}
        best = (0, 0, "normal_trace", -1.0)
        for name, arr in stack.items():
            k = int(np.argmax(arr))         # the first NaN, if there is one
            if not arr[k] <= best[3]:       # true for a NaN, which wins
                best = (int(self.ells[k]), int(self.ems[k]), name, float(arr[k]))
                if np.isnan(arr[k]):
                    break
        return best

    def as_table(self):
        """Tab-separated text table, one row per mode (l asc, m asc)."""
        lines = ["\t".join(self.COLUMNS)]
        for k in range(self.ells.size):
            row = (self.ells[k], self.ems[k], self.normal_trace[k],
                   self.solenoid[k], self.boundary_deriv[k],
                   self.moment[k].real, self.moment[k].imag)
            lines.append("%d\t%d\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g" % row)
        return "\n".join(lines) + "\n"


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
    solenoid = np.abs(spectral_div(f).coeffs).max(axis=1)
    normal_trace = np.abs(rad.at_r0(fr))
    boundary_deriv = np.abs(rad.r0 * rad.slope_at_r0(fr)
                            - f.ells * (f.ells + 1.0) * rad.at_r0(f1))
    moment = radial_moments(rad, f2, f.ells)
    return CompatReport(f.ells.copy(), f.ems.copy(), normal_trace, solenoid,
                        boundary_deriv, moment, f.norm())


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
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    vinf = _vinf(far)
    report = check_compatibility(f)

    cfar = _far_l1_coeffs(vinf)[:f.n_modes - 1]         # empty when L_max = 0
    required = np.zeros(f.n_modes, dtype=complex)
    # no slip on top of the uniform flow trades the zero moment for
    # M = (2l+1)/(l(l+1)) a_m at l = 1, i.e. 3/2 of the coefficient
    required[_L1] = 1.5 * cfar

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

    rad = f.radial
    r = rad.r
    ell = f.ells[:, None].astype(float)
    ll1 = ell * (ell + 1.0)
    fr, f2 = f.coeffs[:, 0], f.coeffs[:, 2]

    A = rad.running_integral(_powers(r, f.ells, 2.0, 1) * f2)
    B = rad.running_integral(_powers(r, f.ells, 1.0, -1) * f2)
    np.subtract(report.moment[:, None], B, out=B)      # tail: M - integral to r
    A *= _powers(r, f.ells, -2.0, -1)       # grow
    B *= _powers(r, f.ells, -1.0, 1)        # decay

    V = SpectralField(rad, f.L_max)
    A += B
    np.multiply(-ll1 / (2.0 * ell + 1.0), A, out=V.coeffs[:, 0])
    # V_1 = l/(2l+1) grow - (l+1)/(2l+1) decay, realized through the identity
    # V_1 = (r^2 V_r)' / (l(l+1) r) so the discrete divergence of the
    # solution vanishes to rounding (same derivative matrix as spectral_div)
    safe = np.where(ll1 > 0, ll1, 1.0)
    np.divide(rad.differentiate(r ** 2 * V.coeffs[:, 0]), safe * r, out=V.coeffs[:, 1])
    np.divide(-r * fr, safe, out=V.coeffs[:, 2])
    V.coeffs[0] = 0.0                       # no l = 0 content in the solution

    if vinf.any():                          # adding +0.0 would flip a -0.0
        V.coeffs[_L1, :2] += cfar[:, None, None]
    return V


class BoundaryTrace:
    """Per-mode channel values of a field at r = r0, plus an aggregate norm."""

    def __init__(self, ells, ems, values, aggregate):
        self.ells = ells
        self.ems = ems
        self.values = values                # (n_modes, 3) complex
        self.aggregate = float(aggregate)

    def mode(self, l, m):
        return self.values[mode_index(l, m)]


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
    agg = np.sqrt(V._density(vals[..., None])[0])
    return BoundaryTrace(V.ells.copy(), V.ems.copy(), vals, agg)


def partial_slip_project(f, L):
    """
    Remove the moment obstruction from the Phi channels with l <= L.

    Each targeted mode gets f2 <- f2 - mu w with a fixed radial bump w and
    mu chosen so the mode's moment vanishes; all other channels and all
    modes with l > L are untouched.  Solving the projected data then
    satisfies no slip exactly on the first L degrees and leaves a small
    tangential wall velocity in the higher ones (a partial-slip wall).

    The bump of degree l is s^(l-1) (s - r0)^2 (rmax - s)^2, normalized to
    unit L2 on [r0, rmax].  The s^(l-1) factor makes the moment integrand
    the same quartic for every l, so the subtraction stays exact in the
    discrete calculus and the projected modes solve to a clean wall trace.

    Parameters
    ----------
    f: SpectralField
    L: int
        highest degree to project, 0 <= L <= L_max; L = 0 is a no-op

    Returns
    -------
    SpectralField
    """
    if not 0 <= L <= f.L_max:
        raise ValueError(f"L = {L} is outside [0, L_max = {f.L_max}]")
    rad = f.radial
    r = rad.r
    ell = np.arange(1, L + 1)                       # row l - 1 of w holds degree l
    w = r ** (ell[:, None] - 1.0) * (r - rad.r0) ** 2 * (rad.rmax - r) ** 2
    w = w / np.sqrt(rad.integrate(w * w))[:, None]
    W = radial_moments(rad, w, ell)
    low = np.flatnonzero(np.abs(W) < 1e-14)
    if low.size:
        raise ValueError(f"projection weight has vanishing moment at l = {ell[low[0]]}")

    out = f.copy()
    k = (f.ells >= 1) & (f.ells <= L)
    j = f.ells[k] - 1
    M = radial_moments(rad, out.coeffs[k, 2], f.ells[k])
    out.coeffs[k, 2] -= (M / W[j])[:, None] * w[j]
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
