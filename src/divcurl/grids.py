"""
Angular and radial grids with quadrature weights, and the sampled-field
container used by the transforms and the Biot-Savart oracle.

The angular grid is Gauss-Legendre in cos(theta) crossed with a uniform
trapezoid rule in phi, which integrates products of spherical harmonics
exactly up to the declared band limit.  The radial grid is a composite
Gauss-Legendre rule on [r0, rmax] split into panels; per-panel barycentric
interpolation supplies a spectrally accurate differentiation matrix,
running integrals from either endpoint, and evaluation off the nodes.

The infinite domain [r0, inf) is truncated at rmax under the convention
that source fields are compactly supported in [r0, rmax]; tail integrals
then terminate at rmax exactly.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["AngularGrid", "RadialGrid", "SampledField", "make_grids",
           "surface_integral"]


############################################
# Barycentric helpers (per panel)


def _bary_weights(x):
    n = len(x)
    w = np.ones(n)
    for j in range(n):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w


def _diff_matrix(x, w):
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(np.delete(D[i], i))
    return D


def _bary_eval_matrix(x, w, pts):
    """
    Rows map samples at nodes x to interpolant values at pts.  A point
    within 1e-14 (relative) of a node gets the unit row of that node.
    """
    pts = np.atleast_1d(pts)
    d = pts[:, None] - x[None, :]
    i, j = np.nonzero(np.abs(d) < 1e-14 * np.maximum(1.0, np.abs(pts))[:, None])
    d[i] = np.inf                      # a hit row keeps only w_j / w_j = 1
    d[i, j] = 1.0
    c = w / d
    return c / c.sum(axis=1, keepdims=True)


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
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing with at least 2 entries")
        if bp[0] < 0:
            raise ValueError("inner radius must be nonnegative")
        n = int(nodes_per_panel)
        if n < 2:
            raise ValueError("need at least 2 nodes per panel")
        self.breakpoints = bp
        self.nodes_per_panel = n
        self.r0 = float(bp[0])
        self.rmax = float(bp[-1])
        self.n_panels = bp.size - 1

        xg, wg = leggauss(n)
        rs, ws, Ds, Ks, bws = [], [], [], [], []
        for a, b in zip(bp[:-1], bp[1:]):
            x = 0.5 * (xg + 1.0) * (b - a) + a
            w = wg * 0.5 * (b - a)
            bw = _bary_weights(x)
            rs.append(x)
            ws.append(w)
            bws.append(bw)
            Ds.append(_diff_matrix(x, bw))
            # cumulative matrix: K[i, j] = integral_a^{x_i} of Lagrange_j
            # the same Gauss rule on [a, x_i] is exact for the basis
            K = np.zeros((n, n))
            for i in range(n):
                t = 0.5 * (xg + 1.0) * (x[i] - a) + a
                wt = wg * 0.5 * (x[i] - a)
                K[i] = wt @ _bary_eval_matrix(x, bw, t)
            Ks.append(K)
        self.r = np.concatenate(rs)
        self.w = np.concatenate(ws)
        self.n_r = self.r.size
        self._bary = bws
        self._D = Ds
        self._K = Ks
        self._panel_totals = np.array([w.sum() for w in ws])

    # -------------------------------------------------- calculus on samples

    def integrate(self, g):
        """Integral of sampled g over [r0, rmax] in dr (last axis is radial)."""
        return np.asarray(g) @ self.w

    def differentiate(self, g):
        """d/dr of sampled g via the per-panel barycentric differentiation matrix."""
        g = np.asarray(g)
        n = self.nodes_per_panel
        out = np.empty_like(g, dtype=np.result_type(g, float))
        for p, D in enumerate(self._D):
            sl = slice(p * n, (p + 1) * n)
            out[..., sl] = g[..., sl] @ D.T
        return out

    def running_integral(self, g):
        """
        Cumulative integral I(r_i) = integral_{r0}^{r_i} g(s) ds at every node.

        g is interpolated per panel, so the value is exact for samples of
        panel-wise polynomials up to the panel order.
        """
        g = np.asarray(g)
        n = self.nodes_per_panel
        out = np.empty_like(g, dtype=np.result_type(g, float))
        offset = np.zeros(g.shape[:-1], dtype=np.result_type(g, float))
        for p, K in enumerate(self._K):
            sl = slice(p * n, (p + 1) * n)
            out[..., sl] = g[..., sl] @ K.T + offset[..., None]
            offset = offset + g[..., sl] @ self.w[sl]
        return out

    def tail_integral(self, g):
        """Cumulative integral from the outer end: integral_{r_i}^{rmax} g(s) ds."""
        g = np.asarray(g)
        total = np.asarray(g @ self.w)
        return total[..., None] - self.running_integral(g)

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


def _geometric_breakpoints(r0, rmax, n_panels):
    return np.geomspace(r0, rmax, n_panels + 1)


def make_grids(r0, rmax, n_r, L_max, breakpoints=None, nodes_per_panel=16):
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
        with about `nodes_per_panel` nodes per panel
    nodes_per_panel: int
        target panel order for the default layout

    Returns
    -------
    (AngularGrid, RadialGrid)
    """
    if not (0 < r0 < rmax):
        raise ValueError("need 0 < r0 < rmax")
    if n_r < 4:
        raise ValueError("need n_r >= 4")
    if L_max < 1:
        raise ValueError("need L_max >= 1")
    angular = AngularGrid(L_max + 1, 2 * L_max + 1)
    if breakpoints is None:
        n_panels = max(1, n_r // int(nodes_per_panel))
        while n_r % n_panels:
            n_panels -= 1
        breakpoints = _geometric_breakpoints(r0, rmax, n_panels)
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
