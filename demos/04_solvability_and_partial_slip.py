"""
Solvability diagnostics and the partial-slip workaround.

The exterior problem is overdetermined: a source f is solvable with no
slip only when, per mode, f has no radial trace at the wall, is
divergence-compatible, and its moment integral of s^(1-l) f_2 vanishes --
equivalently f is orthogonal to the tangential family Phi_lm / r^(l+1).
A planted moment is detected, refused, and can be projected away for
degrees l <= L, which is the partial-slip compromise.
"""

import numpy as np

from divcurl.grids import make_grids
from divcurl.pseudoharmonic import phf_field, verify_pseudoharmonic
from divcurl.solver import (IncompatibilityError, boundary_trace,
                            check_compatibility, partial_slip_project,
                            radial_moments, solve_exterior)
from divcurl.transform import SpectralField, mode_index

ang, rad = make_grids(1.0, 5.0, 64, 6, breakpoints=[1, 2, 3, 4, 5])
r = rad.r

############################################
# The family the source must be orthogonal to

for l, m in [(1, 0), (2, 1), (4, -2)]:
    rep = verify_pseudoharmonic(phf_field(l, m, rad, 6))
    print("family (%d,%2d): curl-curl residual %.2e, curl norm %.3f"
          % (l, m, rep.residual, rep.curl_norm))

############################################
# A source with a planted obstruction

g = np.clip((r - 2.0) * (4.0 - r), 0.0, None) ** 3
f = SpectralField(rad, 6)
f.coeffs[mode_index(3, 1), 2] = g

M = radial_moments(rad, f.coeffs[:, 2], f.ells)[mode_index(3, 1)]
print("\nmoment at (3, 1)      : %.6f (radial form)" % abs(M))
print("volume form l(l+1) M  : %.6f (the inner product with the family)"
      % abs(12 * M))

report = check_compatibility(f)
l_bad, m_bad, name, value = report.worst()
print("worst residual        : %s = %.3e at (l=%d, m=%d)"
      % (name, value, l_bad, m_bad))

try:
    solve_exterior(f)
except IncompatibilityError as e:
    print("solver refused        : %s residual %.3e at mode %s"
          % (e.residual_name, e.scaled_residual, e.mode))

############################################
# Project the obstruction out and solve under partial slip

p = partial_slip_project(f, 4)
after = check_compatibility(p)
print("\nmoment after project  : %.3e"
      % abs(after.moment[mode_index(3, 1)]))

v = solve_exterior(p)
print("wall trace            : %.3e  (no slip on degrees l <= 4)"
      % boundary_trace(v).aggregate)
