"""
Angular and radial grids with quadrature weights, and the sampled-field
container used by the transforms and the Biot-Savart oracle.

The angular grid is Gauss-Legendre in cos(theta) crossed with a uniform
trapezoid rule in phi, which integrates products of spherical harmonics
exactly up to the declared band limit.  The radial grid is a composite
Gauss-Legendre rule on [r0, rmax] split into P panels of n nodes, with
barycentric operators stacked over the panels: weights (P, n), the
differentiation matrix D and the cumulative matrix K (P, n, n).  One
matrix product over a (P, ..., n) view of the samples applies them to
every panel; per-panel rows evaluate off the nodes, and a cached row of
panel 0 gives the value at the wall r0, and the wall slope from D on panel 0.

The infinite domain [r0, inf) is truncated at rmax under the convention
that source fields are compactly supported in [r0, rmax]; tail integrals
then terminate at rmax exactly.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["AngularGrid", "RadialGrid", "SampledField", "make_grids",
           "surface_integral"]


############################################
# Barycentric helper

_EVAL_BLOCK = 1 << 17    # entries of the (nodes, n, n) temporary K is built from


def node_tolerance(lo, hi):
    """Tolerance for matching nodes or grid ends on [lo, hi] to the grid they claim."""
    return 1e-9 * max(abs(lo), abs(hi), 1.0)


def _bary_eval_matrix(x, w, pts):
    """
    Rows map samples at nodes x to interpolant values at pts.  A point
    within 1e-14 (relative) of a node gets the unit row of that node.
    Leading axes of x and w broadcast against those of pts, so one call
    serves a stack of panels.
    """
    pts = np.atleast_1d(pts)
    d = pts[..., :, None] - x[..., None, :]
    hit = np.abs(d) < 1e-14 * np.maximum(1.0, np.abs(pts))[..., None]
    d[hit.any(axis=-1)] = np.inf       # a hit row keeps only w_j / w_j = 1
    d[hit] = 1.0
    c = np.divide(w[..., None, :], d, out=d)
    c /= c.sum(axis=-1, keepdims=True)
    return c


class AngularGrid:
    """
    Gauss-Legendre x uniform product grid on the sphere.

    Attributes
    ----------
    n_theta, n_phi: int
        node counts
    theta, phi: arrays
        colatitude and longitude nodes
    ct, w_ct: arrays
        cos(theta) Gauss-Legendre nodes and weights (integrate d cos t)
    w_phi: float
        uniform phi weight 2 pi / n_phi
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 1 or n_phi < 1:
            raise ValueError("angular node counts must be positive")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        ct, w_ct = leggauss(self.n_theta)
        order = np.argsort(-ct)          # theta increasing from the north pole
        self.ct = ct[order]
        self.w_ct = w_ct[order]
        self.theta = np.arccos(self.ct)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.w_phi = 2.0 * np.pi / self.n_phi

    def __eq__(self, other):
        return (isinstance(other, AngularGrid) and self.n_theta == other.n_theta
                and self.n_phi == other.n_phi)

    def __repr__(self):
        return f"AngularGrid(n_theta={self.n_theta}, n_phi={self.n_phi})"


class RadialGrid:
    """
    Composite Gauss-Legendre grid on [r0, rmax].

    Attributes
    ----------
    r0, rmax: float
    breakpoints: array
        panel edges, breakpoints[0] = r0, breakpoints[-1] = rmax
    nodes_per_panel: int
    r, w: arrays of length n_r
        nodes (strictly increasing, all interior to their panels) and
        quadrature weights for integrals in dr
    """

    def __init__(self, breakpoints, nodes_per_panel):
        bp = np.asarray(breakpoints, dtype=float)
        if (bp.ndim != 1 or bp.size < 2 or not np.all(np.isfinite(bp))
                or np.any(np.diff(bp) <= 0)):
            raise ValueError("breakpoints must be finite and strictly increasing "
                             "with at least 2 entries")
        if bp[0] < 0:
            raise ValueError("inner radius must be nonnegative")
        n = int(nodes_per_panel)
        if n < 2:
            raise ValueError("need at least 2 nodes per panel")
        self.breakpoints = bp
        self.nodes_per_panel = n
        self.r0 = float(bp[0])
        self.rmax = float(bp[-1])
        self.n_panels = P = bp.size - 1

        xg, wg = leggauss(n)
        a, h = bp[:-1, None], (bp[1:] - bp[:-1])[:, None]
        x = 0.5 * (xg + 1.0) * h + a                    # (P, n) panel nodes
        self.r = x.ravel()
        self.w = (wg * 0.5 * h).ravel()
        self.n_r = self.r.size
        # stacked panel operators: weights (P, n), D and K (P, n, n); off()
        # rows are contiguous, so their sums round as the old per-row loop
        i = np.arange(n)
        off = lambda A: np.ascontiguousarray(A[:, i[:, None] != i]).reshape(P, n, n - 1)
        dx = x[:, :, None] - x[:, None, :]
        # K[p, i, j] = integral from the panel start to x_i of Lagrange_j, by the same
        # Gauss rule on [a, x_i]; its evaluation rows go in blocks of ~_EVAL_BLOCK entries
        s = (x - a)[..., None]
        t, wt = (0.5 * (xg + 1.0) * s + a[..., None]).reshape(-1, n), wg * 0.5 * s
        blocks = np.array_split(np.arange(P * n), min(P * n, -(-P * n ** 3 // _EVAL_BLOCK)))
        bad = f"{n} nodes per panel overflow the weights; use more panels"
        with np.errstate(all="ignore"):         # out-of-range weights are refused
            self._bary = bw = 1.0 / np.prod(off(dx), axis=-1)
            dx[:, i, i] = 1.0
            self._D = (bw[:, None, :] / bw[:, :, None]) / dx
            self._D[:, i, i] = -off(self._D).sum(axis=-1)
            if not np.isfinite(self._D).all():  # a weight of 0 or inf: skip K's O(n^4)
                raise ValueError(bad)
            self._K = np.concatenate([np.matmul(wt.reshape(-1, 1, n)[i], _bary_eval_matrix(
                x[i // n], bw[i // n], t[i])) for i in blocks]).reshape(P, n, n)
        if not np.isfinite(self._K).all():      # from ~505 nodes on [1, 2], D from ~520
            raise ValueError(bad)
        self._wall_row = self.eval_matrix(0, [self.r0])

    # -------------------------------------------------- calculus on samples

    def _panels(self, a):
        """(P, ..., n) view of a (..., n_r) array; a 1-D array gets one row."""
        v = a.reshape((a.shape[:-1] or (1,)) + (self.n_panels, self.nodes_per_panel))
        return v.transpose(v.ndim - 2, *range(v.ndim - 2), v.ndim - 1)

    @staticmethod
    def _matmul(v, ops, out=None):
        """v[p] @ ops[p] for every panel p of a (P, ..., n) view, in one call."""
        ops = ops.reshape(ops.shape[:1] + (1,) * (v.ndim - 3) + ops.shape[1:])
        return np.matmul(v, ops, out=out)

    def integrate(self, g):
        """Integral of sampled g over [r0, rmax] in dr (last axis is radial)."""
        return np.asarray(g) @ self.w

    def differentiate(self, g):
        """d/dr of sampled g via the per-panel barycentric differentiation matrix."""
        g = np.asarray(g)
        out = np.empty(g.shape, dtype=np.result_type(g, float))
        self._matmul(self._panels(g), self._D.transpose(0, 2, 1), out=self._panels(out))
        return out

    def running_integral(self, g):
        """
        Cumulative integral I(r_i) = integral_{r0}^{r_i} g(s) ds at every node.

        g is interpolated per panel, so the value is exact for samples of
        panel-wise polynomials up to the panel order.
        """
        g = np.asarray(g)
        out = np.empty(g.shape, dtype=np.result_type(g, float))
        v, ov = self._panels(g), self._panels(out)
        self._matmul(v, self._K.transpose(0, 2, 1), out=ov)
        # panel p starts from the totals of panels 0..p-1
        w = self.w.reshape(self.n_panels, -1, 1)
        ov[1:] += np.cumsum(self._matmul(v[:-1], w[:-1]), axis=0)
        return out

    def at_r0(self, g):
        """Interpolant of sampled g at the wall r0, equal to interp(g, [r0])[..., 0]."""
        g = np.asarray(g)
        rows = g.reshape(-1, g.shape[-1])[:, :self.nodes_per_panel]
        return (self._wall_row @ rows.T).reshape(g.shape[:-1])

    def slope_at_r0(self, g):
        """d/dr of sampled g at r0: at_r0(differentiate(g)), with D on panel 0 alone."""
        d = self._matmul(self._panels(np.asarray(g))[:1], self._D[:1].transpose(0, 2, 1))
        return self.at_r0(d).reshape(np.shape(g)[:-1])

    def locate(self, pts):
        """
        Group points in [r0, rmax] by the radial panel that holds them.

        Returns (order, runs): order is a stable permutation of the points
        that sorts them by panel, and runs lists (p, a, b) for each panel p
        holding points, which are order[a:b].  Points outside [r0, rmax],
        NaN included, raise ValueError.
        """
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        if not np.all((pts >= self.r0 - 1e-12) & (pts <= self.rmax + 1e-12)):
            raise ValueError("interpolation points must lie in [r0, rmax]")
        idx = np.clip(np.searchsorted(self.breakpoints, pts, side="right") - 1,
                      0, self.n_panels - 1)
        counts = np.bincount(idx, minlength=self.n_panels)
        ends = np.cumsum(counts)
        runs = [(p, ends[p] - counts[p], ends[p]) for p in np.flatnonzero(counts)]
        return np.argsort(idx, kind="stable"), runs

    def eval_matrix(self, p, pts):
        """Rows mapping the samples of panel p to its interpolant at pts."""
        n = self.nodes_per_panel
        return _bary_eval_matrix(self.r[p * n:(p + 1) * n], self._bary[p], pts)

    def interp(self, g, pts):
        """Evaluate the panel-wise interpolant of sampled g at points in [r0, rmax]."""
        g = np.asarray(g)
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        order, runs = self.locate(pts)
        n = self.nodes_per_panel
        rows = g.reshape(-1, g.shape[-1])
        # point-major buffer, filled by whole rows per panel, returned transposed
        out = np.empty((pts.size, rows.shape[0]), dtype=np.result_type(g, float))
        for p, a, b in runs:
            at = order[a:b]
            out[at] = self.eval_matrix(p, pts[at]) @ rows[:, p * n:(p + 1) * n].T
        return out.T.reshape(g.shape[:-1] + (pts.size,))

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.nodes_per_panel == other.nodes_per_panel
                and self.breakpoints.size == other.breakpoints.size
                and np.allclose(self.breakpoints, other.breakpoints, rtol=1e-12, atol=0))

    def __repr__(self):
        return (f"RadialGrid([{self.r0:g}, {self.rmax:g}], {self.n_panels} panels x "
                f"{self.nodes_per_panel} nodes)")


class SampledField:
    """
    Complex vector samples in the spherical frame on a tensor grid.

    values has shape (n_r, n_theta, n_phi, 3) with the last axis holding
    (v_r, v_theta, v_phi).
    """

    def __init__(self, radial, angular, values):
        values = np.asarray(values, dtype=complex)
        expected = (radial.n_r, angular.n_theta, angular.n_phi, 3)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match grids {expected}")
        self.radial = radial
        self.angular = angular
        self.values = values

    @classmethod
    def zeros(cls, radial, angular):
        return cls(radial, angular,
                   np.zeros((radial.n_r, angular.n_theta, angular.n_phi, 3), dtype=complex))

    def copy(self):
        return SampledField(self.radial, self.angular, self.values.copy())


############################################
# Construction and surface quadrature


def make_grids(r0, rmax, n_r, L_max, breakpoints=None):
    """
    Build the default angular and radial grids for a band limit L_max.

    Parameters
    ----------
    r0, rmax: float
        inner sphere radius and outer truncation radius, 0 < r0 < rmax
    n_r: int
        total radial node count (split evenly over the panels)
    L_max: int
        band limit; the angular grid gets L_max+1 Gauss nodes in cos(theta)
        and 2 L_max + 1 uniform phi nodes, exact for harmonic products
    breakpoints: array, optional
        explicit panel edges from r0 to rmax; default is geometric spacing
        with about 16 nodes per panel

    Returns
    -------
    (AngularGrid, RadialGrid)
    """
    if not (0 < r0 < rmax < np.inf):
        raise ValueError("need 0 < r0 < rmax, both finite")
    if n_r < 4:
        raise ValueError("need n_r >= 4")
    if L_max < 1:
        raise ValueError("need L_max >= 1")
    angular = AngularGrid(L_max + 1, 2 * L_max + 1)
    if breakpoints is None:
        n_panels = max(1, n_r // 16)
        while n_r % n_panels:
            n_panels -= 1
        breakpoints = np.geomspace(r0, rmax, n_panels + 1)
    else:
        breakpoints = np.asarray(breakpoints, dtype=float)
        if abs(breakpoints[0] - r0) > 1e-12 or abs(breakpoints[-1] - rmax) > 1e-12:
            raise ValueError("breakpoints must span [r0, rmax]")
        n_panels = breakpoints.size - 1
        if n_r % n_panels:
            raise ValueError(f"n_r={n_r} not divisible by {n_panels} panels")
    radial = RadialGrid(breakpoints, n_r // (len(breakpoints) - 1))
    return angular, radial


def surface_integral(grid, g):
    """
    Quadrature of scalar samples g over the unit sphere.

    Parameters
    ----------
    grid: AngularGrid
    g: array of shape (n_theta, n_phi)

    Returns
    -------
    complex
        integral of g dS, exact for spherical polynomials within the band.
    """
    g = np.asarray(g)
    if g.shape != (grid.n_theta, grid.n_phi):
        raise ValueError(f"sample shape {g.shape} does not match grid "
                         f"({grid.n_theta}, {grid.n_phi})")
    return grid.w_phi * np.dot(grid.w_ct, g.sum(axis=1))
