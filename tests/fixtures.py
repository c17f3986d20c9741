"""
Solver grids and the memory probe shared by the test modules.

`support_grids` puts a breakpoint at every integer radius, so the bumps of
the compatible sources carry no kink inside a panel.  The sources live in
the library: `pseudoharmonic.curl_curl_source`, `two_bump_source`,
`matched_flow_source` (which takes the flow, not its moment target) and
`planar.laplacian_ridge`.  `SQRT_4PI_3` is the independent oracle of the
flow: the (1, 0) coefficient of z_hat, restated, not computed by divcurl.
"""

import tracemalloc

from divcurl.grids import make_grids

SQRT_4PI_3 = 2.046653415892977      # coefficient of z_hat on the (1, 0) mode


def support_grids(L, n_r=64):
    """Grids on [1, 5] with a breakpoint at every integer radius."""
    return make_grids(1.0, 5.0, n_r, L, breakpoints=[1, 2, 3, 4, 5])


def traced_peak(fn):
    """fn()'s result and the peak bytes it allocated above what it found held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
