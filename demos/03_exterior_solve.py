"""
The exterior problem: curl v = f, div v = 0 outside the unit sphere,
v = 0 on the sphere, v -> 0 at infinity.

A manufactured test: pick a potential A supported in the shell [2, 4],
set v_exact = curl A (divergence-free, vanishing at the wall and beyond
the support) and feed the solver f = curl v_exact.  The mode-by-mode
integral solution should reproduce v_exact.
"""

import numpy as np

from divcurl.grids import make_grids
from divcurl.pseudoharmonic import curl_curl_source
from divcurl.solver import boundary_trace, solve_exterior
from divcurl.transform import mode_index, spectral_div

# panels aligned with the support edges keep every radial integral exact;
# A has random amplitudes of size (1/3)^l on the bump ((r - 2)(4 - r))^3
ang, rad = make_grids(1.0, 5.0, 64, 8, breakpoints=[1, 2, 3, 4, 5])
f, v_exact = curl_curl_source(rad, 8, np.random.default_rng(3))

############################################
# Solve and compare

v = solve_exterior(f)
scale = np.abs(v_exact.coeffs).max()
print("recovery error        : %.3e  (relative)"
      % (np.abs(v.coeffs - v_exact.coeffs).max() / scale))
print("max |div v|           : %.3e" % np.abs(spectral_div(v).coeffs).max())
print("wall trace |v(r0)|    : %.3e" % boundary_trace(v).aggregate)

############################################
# Decay beyond the support

# outside [2, 4] each mode of the solution continues as a pure decaying
# multipole r^(-2-l); print the (2, 1) profile on the last panel
k = mode_index(2, 1)
outer = rad.r >= 4.0
prof = np.abs(v.coeffs[k, 0, outer])
fit = np.polyfit(np.log(rad.r[outer]), np.log(prof), 1)[0]
print("(2,1) radial slope    : %.6f   (expected %d)" % (fit, -(2 + 2)))
