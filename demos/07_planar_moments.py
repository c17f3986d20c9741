"""
The planar analogue: moment conditions on disk, annulus, and exterior.

In two dimensions the solvability conditions become moments of f against
the complex powers z^k (and z^(-k) on domains excluding the origin).  A
source that is the Laplacian of a compactly supported stream function has
every moment equal to zero.
"""

import numpy as np

from divcurl.planar import PlanarGeometry, PolarGrid, laplacian_ridge, planar_moments

############################################
# Disk moments of simple fields

disk = PlanarGeometry("disk", 2.0)
g = PolarGrid(disk, 32, 17)
rho, phi = g.rho[:, None], g.phi[None, :]

mom = planar_moments(np.ones((32, 17)), g, 3)
print("f = 1   : k=0 -> %.6f (area 4 pi = %.6f), k=1 -> %.2e"
      % (mom[0].real, 4 * np.pi, abs(mom[1])))

x1 = rho * np.cos(phi)
mom = planar_moments(x1, g, 2)
print("f = x1  : k=1 -> %.6f (pi R^4 / 4 = %.6f)"
      % (mom[1].real, np.pi * 2.0 ** 4 / 4))

############################################
# Annulus: negative powers join in

ga = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 32, 33)
f = (ga.rho[:, None] ** 2) * np.cos(2.0 * ga.phi[None, :])
mom = planar_moments(f, ga, 2)
print("annulus : k=-2 -> %.6f (3 pi / 2 = %.6f)"
      % (mom[-2].real, 1.5 * np.pi))

############################################
# A Laplacian source has no moments at all

# psi = p(rho) cos(2 phi) with p supported on [0.4, 1.6]; the support
# edges sit on panel breakpoints so the discrete by-parts identity is
# exact and every moment collapses to rounding
gd = PolarGrid(disk, 64, 33, breakpoints=[0.0, 0.4, 1.0, 1.6, 2.0])
mom = planar_moments(laplacian_ridge(gd, 0.4, 1.2, 2), gd, 8)
print("\nf = Laplacian(psi), psi compact:")
for k in sorted(mom):
    print("  k = %d : |moment| = %.3e" % (k, abs(mom[k])))
