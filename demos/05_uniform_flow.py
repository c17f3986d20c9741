"""
Flow past the sphere: v -> v_inf at infinity instead of decay.

Prescribing a uniform flow at infinity shifts the moment condition: for
v_inf = zhat the target moment moves from 0 to (3/2) sqrt(4 pi / 3)
= sqrt(3 pi) at the single mode (1, 0), and stays 0 everywhere else.  A
source tuned to hit that target yields a solution that sticks to the wall
and turns into the uniform flow beyond its support.
"""

import numpy as np

from divcurl.grids import AngularGrid, make_grids
from divcurl.pseudoharmonic import matched_flow_source
from divcurl.solver import (boundary_trace, check_compatibility,
                            far_field_coeffs, solve_exterior)
from divcurl.transform import mode_index, synthesize

ang, rad = make_grids(1.0, 5.0, 64, 4, breakpoints=[1, 2, 3, 4, 5])
c10 = np.sqrt(4.0 * np.pi / 3.0)
target = 1.5 * c10
print("zhat (1,0) coefficient: %.15f" % c10)
print("moment target         : %.15f (= sqrt(3 pi) = %.15f)"
      % (target, np.sqrt(3.0 * np.pi)))

############################################
# Tune a two-bump source to the target

# bumps on [2, 3] and [3, 4]: one equation hits the solver's target for
# v_inf, the other kills the interior multipole so the field is exactly
# uniform beyond them
f = matched_flow_source(rad, 4, [0.0, 0.0, 1.0])
rep = check_compatibility(f)
print("moment achieved       : %.15f" % rep.moment[mode_index(1, 0)].real)

############################################
# Solve with v_inf = zhat

v = solve_exterior(f, np.array([0.0, 0.0, 1.0]))
print("wall trace            : %.3e  (no slip holds)"
      % boundary_trace(v).aggregate)

far = far_field_coeffs([0.0, 0.0, 1.0], rad, v.L_max)
gap = np.abs(v.coeffs[:, :, -1] - far.coeffs[:, :, -1]).max()
print("|v - zhat| at rmax    : %.3e  (uniform flow reached)" % gap)

# sample the velocity on the outermost sphere and print a meridian
vals = synthesize(v, AngularGrid(5, 9)).values[-1]
print("\n  theta      v_r         v_theta      (at r = %.0f, phi = 0)"
      % rad.rmax)
for j, t in enumerate(AngularGrid(5, 9).theta):
    print("  %5.2f   %9.6f   %9.6f" % (t, vals[j, 0, 0].real,
                                       vals[j, 0, 1].real))
print("          (cos theta)  (-sin theta)")
