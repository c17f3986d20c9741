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

from .grids import _panel_grid

__all__ = ["PolarGrid", "PlanarGeometry", "planar_moments", "laplacian_ridge"]


class PlanarGeometry:
    """
    Which planar domain the moments refer to.

    kind "disk": the disk |x| <= r0; moments use z^k, k >= 0.
    kind "exterior": the region |x| >= r0 with f supported inside
        |x| <= R_sup (declared compact support); moments use z^{-k}.
    kind "annulus": r0 <= |x| <= r1; moments use z^k for both signs of k.
    """

    # each kind's outer radius: its keyword here -> its .pfld header key
    OUTER = {"disk": {}, "exterior": {"R_sup": "rsup"}, "annulus": {"r1": "r1"}}
    KINDS = tuple(OUTER)

    def __init__(self, kind, r0, r1=None, R_sup=None):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        if not r0 > 0:                    # NaN radii fail every test
            raise ValueError(f"r0 must be positive, got {r0}")
        if kind == "annulus":
            if r1 is None or not r1 > r0:
                raise ValueError("annulus needs r1 > r0")
        elif r1 is not None:
            raise ValueError(f"r1 is only meaningful for an annulus")
        if kind == "exterior":
            if R_sup is None or not R_sup > r0:
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

    def powers(self, k_max):
        """The moment indices: 0..k_max, or -k_max..k_max for an annulus."""
        if self.kind == "annulus":
            return list(range(-k_max, k_max + 1))
        return list(range(k_max + 1))

    def __repr__(self):
        lo, hi = self.domain()
        return f"PlanarGeometry({self.kind!r}, rho in [{lo:g}, {hi:g}])"


class PolarGrid:
    """
    Tensor quadrature grid on the radial domain of a PlanarGeometry.

    Radial nodes and weights come from composite Gauss-Legendre panels on
    geom.domain(); the angular grid is uniform with the trapezoid weight
    2 pi / n_phi.
    """

    def __init__(self, geom, n_rho, n_phi, breakpoints=None):
        rho_min, rho_max = geom.domain()
        if not rho_max < np.inf:            # before linspace warns of it
            raise ValueError(f"the grid needs a finite outer radius, got {geom!r}")
        if n_rho < 1 or n_phi < 1:
            raise ValueError("n_rho and n_phi must be positive")
        if breakpoints is None:
            n = next((c for c in (16, 8) if n_rho % c == 0), n_rho)
            breakpoints = np.linspace(rho_min, rho_max, n_rho // n + 1)
        self.geom = geom
        self.radial = _panel_grid(rho_min, rho_max, n_rho, breakpoints)
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


def planar_moments(samples, grid, k_max):
    """
    Moments of planar data against the harmonic powers of grid.geom.

    Parameters
    ----------
    samples: (n_rho, n_phi) complex array
        scalar f on the polar grid
    grid: PolarGrid
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

    z = grid.rho[:, None] * np.exp(1j * grid.phi[None, :])
    out = {}
    for k in grid.geom.powers(k_max):
        expo = -k if grid.geom.kind == "exterior" else k
        out[k] = grid.integrate(samples * (z if expo >= 0 else 1.0 / z) ** abs(expo))
    return out


def laplacian_ridge(grid, lo, width, k):
    """
    Samples of the Laplacian of psi = (4u(1-u))^4 cos(k phi), u = (rho - lo) / width:
    psi is C^3 and compact, so no moment survives, to rounding when lo and lo +
    width are breakpoints of grid.
    """
    rho, u = grid.rho, (grid.rho - lo) / width
    s = np.where((u > 0.0) & (u < 1.0), 4.0 * u * (1.0 - u), 0.0)
    ds, d2s = 4.0 * (1.0 - 2.0 * u) / width, -8.0 / width ** 2
    lap = (12.0 * s ** 2 * ds ** 2 + 4.0 * s ** 3 * d2s       # psi'' + psi'/rho - k^2 psi/rho^2
           + 4.0 * s ** 3 * ds / rho - k * k * s ** 4 / rho ** 2)
    return lap[:, None] * np.cos(k * grid.phi)[None, :]
