"""
Two-dimensional moment conditions on polar grids.

For planar vorticity data the solvability conditions of the
divergence-curl problem reduce to moments against powers of
z = x_1 + i x_2:

    disk of radius r0:        integral of f z^k  for k = 0, 1, ...
    exterior of a disk:       integral of f z^{-k}  (f supported in
                              r0 <= |x| <= R_sup)
    annulus r0 < |x| < r1:    integral of f z^k  for all integer k

The quadrature is Gauss-Legendre in radius and uniform trapezoid in
angle, so the moments are exact for radially polynomial, angularly
band-limited integrands.
"""

import numpy as np

from .grids import RadialGrid, node_tolerance

__all__ = ["PolarGrid", "PlanarGeometry", "planar_moments"]


class PolarGrid:
    """
    Tensor quadrature grid on an annular (or full-disk) planar region.

    Radial nodes and weights come from composite Gauss-Legendre panels on
    [rho_min, rho_max] (rho_min = 0 for a disk); the angular grid is
    uniform with the trapezoid weight 2 pi / n_phi.
    """

    def __init__(self, rho_min, rho_max, n_rho, n_phi, breakpoints=None):
        if not (0 <= rho_min < rho_max < np.inf):
            raise ValueError(f"need 0 <= rho_min < rho_max, both finite, got "
                             f"[{rho_min}, {rho_max}]")
        if n_rho < 1 or n_phi < 1:
            raise ValueError("n_rho and n_phi must be positive")
        if breakpoints is None:
            nodes_per_panel = next((c for c in (16, 8) if n_rho % c == 0 and n_rho >= c),
                                   n_rho)
            breakpoints = np.linspace(rho_min, rho_max, n_rho // nodes_per_panel + 1)
        else:
            breakpoints = np.asarray(breakpoints, dtype=float)
            n_panels = len(breakpoints) - 1
            if abs(breakpoints[0] - rho_min) > 1e-12 * max(1.0, rho_max) \
                    or abs(breakpoints[-1] - rho_max) > 1e-12 * max(1.0, rho_max):
                raise ValueError("breakpoints must span [rho_min, rho_max]")
            if n_rho % n_panels != 0:
                raise ValueError(f"n_rho = {n_rho} is not divisible by "
                                 f"{n_panels} panels")
            nodes_per_panel = n_rho // n_panels
        self.radial = RadialGrid(breakpoints, nodes_per_panel)
        self.rho = self.radial.r
        self.w_rho = self.radial.w
        self.n_rho = int(n_rho)
        self.n_phi = int(n_phi)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.w_phi = 2.0 * np.pi / n_phi
        self.rho_min = float(rho_min)
        self.rho_max = float(rho_max)

    def integrate(self, samples):
        """Area integral of samples (n_rho, n_phi) with the rho drho dphi weight."""
        samples = np.asarray(samples)
        return self.w_phi * np.einsum("r,rp->", self.w_rho * self.rho,
                                      samples)

    def __repr__(self):
        return (f"PolarGrid({self.n_rho} x {self.n_phi}, "
                f"rho in [{self.rho_min:g}, {self.rho_max:g}])")


class PlanarGeometry:
    """
    Which planar domain the moments refer to.

    kind "disk": the disk |x| <= r0; moments use z^k, k >= 0.
    kind "exterior": the region |x| >= r0 with f supported inside
        |x| <= R_sup (declared compact support); moments use z^{-k}.
    kind "annulus": r0 <= |x| <= r1; moments use z^k for both signs of k.
    """

    KINDS = ("disk", "exterior", "annulus")

    def __init__(self, kind, r0, r1=None, R_sup=None):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        if r0 <= 0:
            raise ValueError(f"r0 must be positive, got {r0}")
        if kind == "annulus":
            if r1 is None or r1 <= r0:
                raise ValueError("annulus needs r1 > r0")
        elif r1 is not None:
            raise ValueError(f"r1 is only meaningful for an annulus")
        if kind == "exterior":
            if R_sup is None or R_sup <= r0:
                raise ValueError("exterior needs a support radius R_sup > r0")
        elif R_sup is not None:
            raise ValueError("R_sup is only meaningful for the exterior kind")
        self.kind = kind
        self.r0 = float(r0)
        self.r1 = None if r1 is None else float(r1)
        self.R_sup = None if R_sup is None else float(R_sup)

    def domain(self):
        """Radial interval [rho_min, rho_max] carrying the quadrature."""
        if self.kind == "disk":
            return 0.0, self.r0
        if self.kind == "exterior":
            return self.r0, self.R_sup
        return self.r0, self.r1

    def grid(self, n_rho, n_phi, breakpoints=None):
        """A PolarGrid covering this geometry's radial domain."""
        lo, hi = self.domain()
        return PolarGrid(lo, hi, n_rho, n_phi, breakpoints=breakpoints)

    def powers(self, k_max):
        """The moment indices: 0..k_max, or -k_max..k_max for an annulus."""
        if self.kind == "annulus":
            return list(range(-k_max, k_max + 1))
        return list(range(k_max + 1))

    def __repr__(self):
        lo, hi = self.domain()
        return f"PlanarGeometry({self.kind!r}, rho in [{lo:g}, {hi:g}])"


def planar_moments(samples, grid, geom, k_max):
    """
    Moments of planar data against the harmonic powers of its geometry.

    Parameters
    ----------
    samples: (n_rho, n_phi) complex array
        scalar f on the polar grid
    grid: PolarGrid
        must cover geom.domain()
    geom: PlanarGeometry
    k_max: int
        highest power; needs k_max <= (n_phi - 1) // 2 so the angular
        quadrature resolves e^{i k phi}

    Returns
    -------
    dict k -> complex moment
        integral of f z^k over the domain (z^{-k} for the exterior kind,
        where the table key is still the positive k).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (grid.n_rho, grid.n_phi):
        raise ValueError(f"samples shape {samples.shape} does not match grid "
                         f"({grid.n_rho}, {grid.n_phi})")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > (grid.n_phi - 1) // 2:
        raise ValueError(
            f"k_max = {k_max} exceeds the angular resolution of n_phi = "
            f"{grid.n_phi}; need k_max <= {(grid.n_phi - 1) // 2}")
    lo, hi = geom.domain()
    tol = node_tolerance(lo, hi)
    if abs(grid.rho_min - lo) > tol or abs(grid.rho_max - hi) > tol:
        raise ValueError(f"grid covers [{grid.rho_min:g}, {grid.rho_max:g}] "
                         f"but the geometry needs [{lo:g}, {hi:g}]")

    z = grid.rho[:, None] * np.exp(1j * grid.phi[None, :])
    out = {}
    for k in geom.powers(k_max):
        expo = -k if geom.kind == "exterior" else k
        if expo >= 0:
            zk = z ** expo
        else:
            zk = (1.0 / z) ** (-expo)
        out[k] = grid.integrate(samples * zk)
    return out
