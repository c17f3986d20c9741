"""
Independent cross-check: direct Biot-Savart volume integration.

v(x) = -(1/4pi) integral of (x - y) x f(y) / |x - y|^3 dy gives the
divergence-free field of a compactly supported source by brute-force
quadrature, sharing no code with the spectral solver past the sampled
field.  Two checks: a shell source with a closed-form exterior field, and
a generic compatible source evaluated both ways at off-grid points.
"""

import numpy as np

from divcurl.biotsavart import (biot_savart_eval, circulation_diagnostic,
                                sphere_points)
from divcurl.grids import AngularGrid, RadialGrid, SampledField, make_grids
from divcurl.pseudoharmonic import two_bump_source
from divcurl.solver import solve_exterior
from divcurl.transform import synthesize, synthesize_at

############################################
# Shell source with a known exterior field

# f = zhat on the shell 1.5 <= |x| <= 3.5 has the exact exterior field
# v = (W / r^2) sin(theta) phihat with W = (b^3 - a^3) / 3, and exactly
# zero field in the cavity |x| < a.
a, b = 1.5, 3.5
ang = AngularGrid(30, 60)
rad = RadialGrid([1.0, a, b, 5.0], 24)
chi = ((rad.r >= a) & (rad.r <= b)).astype(float)
v = np.zeros((rad.n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
v[:, :, :, 0] = chi[:, None, None] * np.cos(ang.theta)[None, :, None]
v[:, :, :, 1] = -chi[:, None, None] * np.sin(ang.theta)[None, :, None]
shell = SampledField(rad, ang, v)

W = (b ** 3 - a ** 3) / 3.0
R = 6.0
pt = np.array([[R / np.sqrt(2.0), 0.0, R / np.sqrt(2.0)]])
got = biot_savart_eval(shell, pt)[0]
# at that point sin(theta) = 1/sqrt(2) and phihat = yhat
want = np.array([0.0, W / R ** 2 / np.sqrt(2.0), 0.0])
print("exterior field error  : %.3e" % np.abs(got - want).max())

cavity = biot_savart_eval(shell, np.array([[0.5, 0.5, 0.8]]))
print("cavity field          : %.3e  (exact zero)" % np.abs(cavity).max())

############################################
# Circulation identity on growing spheres

# for any compact f, the surface integral of n x v over |x| = R equals
# exactly two thirds of the volume integral of f, for every enclosing R
for R in (6.0, 12.0):
    vs = biot_savart_eval(shell, sphere_points(ang, R))
    surface, volume = circulation_diagnostic(vs, ang, R, shell)
    print("R = %4.0f  surface_z = %11.6f   (2/3) volume_z = %11.6f"
          % (R, surface[2].real, (2.0 / 3.0) * volume[2].real))

############################################
# Against the spectral solver at off-grid points

# every moment zero (solvable with no slip), the exterior multipoles not
ang2, rad2 = make_grids(1.0, 5.0, 64, 8, breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
rng = np.random.default_rng(3)
f = two_bump_source(rad2, 6, 1.4, 1.8, 2.2, rng)
V = solve_exterior(f)
pts = rng.standard_normal((6, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
pts *= rng.uniform(4.3, 4.9, (6, 1))

direct = biot_savart_eval(synthesize(f, ang2), pts)
spectral = synthesize_at(V, pts)
print("\nsolver vs direct      : %.3e  (relative, %d off-grid points)"
      % (np.abs(direct - spectral).max() / np.abs(spectral).max(), len(pts)))
