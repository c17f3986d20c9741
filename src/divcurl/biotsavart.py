"""
Direct Biot-Savart-Laplace evaluation and the circulation diagnostic.

`biot_savart_eval` computes

    v(x) = -(1/4 pi) * integral over the shell of (x - y) x f(y) / |x - y|^3

by applying the tensor-product quadrature of the sampled source field,
with f extended by zero inside the sphere and beyond its support.  It is
deliberately independent of the spherical-harmonic machinery, which makes
it a cross-check for the spectral exterior solver: for compatible data
the two must produce the same field, and the sum vanishes for |x| < r0.

The sum is direct and exact: no multipole expansion, no truncation.
Only source nodes where f is exactly zero are left out of it, since
they contribute exactly zero; the sum and the proximity check see the
same live (nonzero) nodes.  The source is converted a few radial shells
at a time into arrays, allocated once, of its live nodes; the other
nodes are dropped.
The points are summed in fixed blocks of _POINT_BLOCK.

`circulation_diagnostic` evaluates the circulation pair

    surface integral of n x v over |x| = R   and   volume integral of f.

For the Biot-Savart field of any compactly supported f the surface side
equals exactly two thirds of the volume side at every R beyond the
support: curl v is f plus the gradient of the Newtonian potential of
div f, and the dipole term of that potential feeds the sphere integral
the remaining third.  Divergence-free data with vanishing normal trace
has zero mean identically (f_j = div(x_j f)), so for solvable sources
both sides vanish and no orthogonality-to-constants condition is ever
needed.  The diagnostic returns the raw pair so a caller can watch the
relation hold as R grows.
"""

import numpy as np

from .frames import finite_points, sph_to_cart_points, spherical_frame

__all__ = ["biot_savart_eval", "circulation_diagnostic", "sphere_points",
           "ProximityError"]


class ProximityError(ValueError):
    """An evaluation point is closer than half the local grid spacing to a live source node."""


############################################
# Source-side geometry


def _node_gap(x):
    """Gap from each increasing node x to its nearest neighbour; inf for a lone node."""
    gap = np.full_like(x, np.inf)
    gap[:-1] = np.diff(x)
    gap[1:] = np.minimum(gap[1:], np.diff(x))
    return gap


def _source_chunks(field):
    """
    The source as quadrature-ready data, a few whole radial shells at a time.

    Yields (pts, fc, w, spacing) per chunk of about _SHELL_NODES nodes, in
    node order: Cartesian node positions (k, 3), the Cartesian field
    values (k, 3), the volume quadrature weights w_r r^2 w_ct w_phi (k,),
    and the local grid spacing per node (k,) used by the proximity check.
    Only the angular frame is tabulated on the (n_theta, n_phi) grid; the
    radial axis is broadcast.
    """
    rad, ang = field.radial, field.angular
    r, theta = rad.r, ang.theta
    T, P = np.meshgrid(theta, ang.phi, indexing="ij")
    frame = np.stack(spherical_frame(T, P), axis=-2)   # (n_t, n_p, 3, 3)
    w_r = rad.w * r ** 2

    # local spacing: nearest radial neighbour and the angular arc lengths
    dr, dtheta = _node_gap(r), _node_gap(theta)
    st = np.abs(np.sin(theta))
    dphi = 2.0 * np.pi / ang.n_phi
    spacing = np.minimum(dr[:, None], np.minimum(r[:, None] * dtheta,
                                                 r[:, None] * st * dphi))
    step = max(1, _SHELL_NODES // (ang.n_theta * ang.n_phi))
    for a in range(0, rad.n_r, step):
        s = slice(a, a + step)
        values = field.values[s]
        pts = (r[s, None, None, None] * frame[:, :, 0]).reshape(-1, 3)
        fc = np.einsum("rtpk,tpkc->rtpc", values, frame).reshape(-1, 3)
        w = w_r[s, None, None] * ang.w_ct[:, None] * ang.w_phi
        yield (pts, fc, np.broadcast_to(w, values.shape[:3]).reshape(-1),
               np.broadcast_to(spacing[s, :, None], values.shape[:3]).reshape(-1))


############################################
# Direct sum

# evaluation points per block, cut at fixed offsets
_POINT_BLOCK = 64
# source nodes per block; temporaries are (_POINT_BLOCK, _SOURCE_CHUNK)
_SOURCE_CHUNK = 512
# source nodes converted to Cartesian at a time, in whole radial shells
_SHELL_NODES = 1 << 11


def biot_savart_eval(field, pts):
    """
    Evaluate the Biot-Savart-Laplace integral of a sampled source field.

    The sum is exact over every source node that carries a nonzero value
    (the others contribute exactly zero and are skipped).  The source is
    converted _SHELL_NODES nodes at a time, in whole radial shells, into
    the live nodes' positions, weights, spacings and values, in arrays
    allocated once for the nodes with a nonzero spherical sample.  The
    call then drops the field, so unless the caller holds it the sums run
    without it.  For a block of _POINT_BLOCK points and a chunk of
    _SOURCE_CHUNK live nodes it forms the real differences d_a = x_a - y_a and
    k = |x - y|^-3, and accumulates the three real products (d_a k) @ G
    against the (chunk, 6) float view G of the weighted complex source
    w f; the cross product is assembled once per block from those 3 x 6
    partial sums.  Temporaries are (_POINT_BLOCK, _SOURCE_CHUNK) whatever
    the number of points.

    Parameters
    ----------
    field: SampledField
        source f in spherical-frame components on the tensor grid; its
        values must be finite
    pts: (N, 3) array
        finite Cartesian evaluation points; each must keep a distance of
        at least half the local grid spacing from every source node that
        carries a nonzero value (nodes where f vanishes contribute
        nothing and impose nothing, a point on one included)

    Returns
    -------
    (N, 3) complex array of Cartesian field values
        v(x) = -(1/4 pi) * sum of w_i (x - y_i) x f_i / |x - y_i|^3.

    Raises
    ------
    ValueError
        on a malformed or non-finite `pts`, or non-finite field values
    ProximityError
        when a point violates the separation above
    """
    pts = finite_points(pts)
    if not np.isfinite(field.values).all():
        raise ValueError("source field values must be finite")
    n = pts.shape[0]
    # only live nodes are kept, in room for every nonzero spherical sample
    # (a zero one converts to zero)
    cap = np.count_nonzero((field.values != 0.0).any(axis=-1))
    src, half, G = np.empty((3, cap)), np.empty(cap), np.empty((cap, 3), dtype=complex)
    k = 0
    for y, fc, w, spacing in _source_chunks(field):
        live = (fc != 0.0).any(axis=1)
        s = slice(k, k + int(live.sum()))
        src[:, s] = y[live].T
        np.multiply(w[live, None], fc[live], out=G[s])
        half[s] = spacing[live]
        k = s.stop
    del field, y, fc, w, spacing, live
    src, G, half = src[:, :k], G[:k].view(float), half[:k]     # G: (n_live, 6)
    # clamped to the least positive double so that `|d| < half` also
    # catches a point exactly on a live node
    half = np.maximum(0.5 * half, np.nextafter(0.0, 1.0))
    chunk = max(1, min(_SOURCE_CHUNK, src.shape[1]))
    out = np.empty((n, 3), dtype=complex)
    # allocated once: a buffer per block would keep the last one alive
    # while the next is allocated
    buf = np.empty(5 * min(n, _POINT_BLOCK) * chunk)
    for lo in range(0, n, _POINT_BLOCK):
        p = pts[lo:lo + _POINT_BLOCK]
        b = p.shape[0]
        px, py, pz = (p[:, a, None] for a in range(3))
        acc = np.zeros((3 * b, 6))
        for s in range(0, src.shape[1], chunk):
            sx, sy, sz = src[:, s:s + chunk]
            c = sx.size
            m = b * c
            d = buf[:3 * m].reshape(3, b, c)
            t = buf[3 * m:4 * m].reshape(b, c)
            d2 = buf[4 * m:5 * m].reshape(b, c)
            np.subtract(px, sx, out=d[0])
            np.subtract(py, sy, out=d[1])
            np.subtract(pz, sz, out=d[2])
            np.multiply(d[0], d[0], out=d2)
            np.multiply(d[1], d[1], out=t)
            d2 += t
            np.multiply(d[2], d[2], out=t)
            d2 += t                                     # |d|^2
            np.sqrt(d2, out=t)                          # |d|
            near = t < half[s:s + c]
            if near.any():
                i, j = np.argwhere(near)[0]
                raise ProximityError(
                    f"evaluation point {p[i]} is {t[i, j]:.3g} from a source node "
                    f"(minimum {half[s + j]:.3g})")
            np.multiply(d2, t, out=t)
            np.divide(1.0, t, out=t)                    # |d|^-3
            d *= t
            acc += d.reshape(3 * b, c) @ G[s:s + c]
        P = acc.view(complex).reshape(3, b, 3)          # P[a, :, c] = sum d_a k g_c
        v = out[lo:lo + b]
        v[:, 0] = P[1, :, 2] - P[2, :, 1]
        v[:, 1] = P[2, :, 0] - P[0, :, 2]
        v[:, 2] = P[0, :, 1] - P[1, :, 0]
        v /= -4.0 * np.pi
    return out


############################################
# Circulation at infinity


def sphere_points(angular, R):
    """Cartesian points of an angular grid placed on the sphere |x| = R."""
    T, P = np.meshgrid(angular.theta, angular.phi, indexing="ij")
    return sph_to_cart_points(np.full_like(T, float(R)), T, P).reshape(-1, 3)


def circulation_diagnostic(v_sphere, angular, R, field):
    """
    Both sides of the circulation identity on the sphere |x| = R.

    Parameters
    ----------
    v_sphere: (n_theta, n_phi, 3) or (n_theta * n_phi, 3) complex array
        Cartesian field values on the sphere_points of `angular` at
        radius R (typically from biot_savart_eval)
    angular: AngularGrid
    R: float
        sphere radius, beyond the outer grid radius of the source
    field: SampledField
        the source f

    Returns
    -------
    (surface, volume): pair of Cartesian complex 3-vectors
        surface = integral of n x v over the sphere, volume = integral
        of f over the shell.  When v is the Biot-Savart field of f the
        surface side is exactly two thirds of the volume side for every
        enclosing R (and both vanish for zero-mean sources); the caller
        compares them.
    """
    v = np.asarray(v_sphere, dtype=complex).reshape(angular.n_theta, angular.n_phi, 3)
    integrand = np.cross(sphere_points(angular, 1.0).reshape(v.shape), v)
    w = angular.w_ct[:, None] * angular.w_phi
    surface = R ** 2 * np.einsum("tp,tpc->c", w, integrand)

    _, fc, wv, _ = map(np.concatenate, zip(*_source_chunks(field)))
    volume = wv @ fc
    return surface, volume
