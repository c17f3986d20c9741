"""
Direct Biot-Savart-Laplace evaluation and the circulation diagnostic.

`biot_savart_eval` computes

    v(x) = -(1/4 pi) * integral over the shell of (x - y) x f(y) / |x - y|^3

by applying the tensor-product quadrature of the sampled source field,
with f extended by zero inside the sphere and beyond its support.  It is
deliberately independent of the spherical-harmonic machinery, which makes
it a cross-check for the spectral exterior solver: for compatible data
the two must produce the same field.

The sum is direct and exact: no multipole expansion, no truncation.
Only source nodes where f is exactly zero are left out of it, since
they contribute exactly zero; the proximity check still covers them.
The source is converted a few radial shells at a time, and its data kept
for the live (nonzero) nodes only; the other nodes are checked and dropped.
The points are summed in fixed blocks of _POINT_BLOCK, cut at the same
offsets for every thread count, and with `threads` > 1 each worker sums
whole blocks.  A GEMM row is thus always rounded inside a block of the
same size, and the result is bitwise identical for any thread count.

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

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .frames import finite_points, sph_to_cart_points, spherical_frame

__all__ = ["biot_savart_eval", "circulation_diagnostic", "sphere_points",
           "ProximityError"]


class ProximityError(ValueError):
    """An evaluation point sits too close to a source quadrature node."""


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


def _mark_dead_hits(pts, dead, first, hit):
    """Lower hit[i] to first + j where pts[i] is exactly on dead[:, j] (|d|^2 == 0)."""
    buf = np.empty(_POINT_BLOCK * min(_SOURCE_CHUNK, dead.shape[1]))
    for lo in range(0, len(pts), _POINT_BLOCK):
        px, py, pz = (pts[lo:lo + _POINT_BLOCK, a, None] for a in range(3))
        for s in range(0, dead.shape[1], _SOURCE_CHUNK):
            sx, sy, sz = dead[:, s:s + _SOURCE_CHUNK]
            t = buf[:px.size * sx.size].reshape(px.size, sx.size)
            # |d|^2 == 0 needs every squared difference to underflow, so
            # test x first
            np.subtract(px, sx, out=t)
            np.multiply(t, t, out=t)
            if (t == 0.0).any():
                t += (py - sy) ** 2
                t += (pz - sz) ** 2
                i, j = np.nonzero(t == 0.0)
                np.minimum.at(hit, lo + i, first + s + j)


############################################
# Direct sum

# evaluation points per block.  A worker thread always sums whole blocks,
# and blocks are cut at fixed offsets, so every GEMM row is rounded inside
# a block of the same size whatever the thread count
_POINT_BLOCK = 64
# source nodes per block; temporaries are (_POINT_BLOCK, _SOURCE_CHUNK)
_SOURCE_CHUNK = 512
# source nodes converted to Cartesian at a time, in whole radial shells
_SHELL_NODES = 1 << 13
# hit of a point on no node where f vanishes
_NO_HIT = np.iinfo(np.intp).max


def biot_savart_eval(field, pts, threads=1):
    """
    Evaluate the Biot-Savart-Laplace integral of a sampled source field.

    The sum is exact over every source node that carries a nonzero value
    (the others contribute exactly zero and are skipped).  The source is
    converted _SHELL_NODES nodes at a time, in whole radial shells, and
    only the live nodes' positions, weights, spacings and values are kept,
    so besides the field the call holds O(live nodes); points exactly on a
    dead node are found chunk by chunk.  For a block of _POINT_BLOCK points
    and a chunk of _SOURCE_CHUNK live nodes it forms the real differences
    d_a = x_a - y_a and k = |x - y|^-3, and accumulates the three real
    products (d_a k) @ G against the (chunk, 6) float view G of the
    weighted complex source w f; the cross product is assembled once per
    block from those 3 x 6 partial sums.  Temporaries are (_POINT_BLOCK,
    _SOURCE_CHUNK) whatever the number of points.

    Parameters
    ----------
    field: SampledField
        source f in spherical-frame components on the tensor grid; its
        values must be finite
    pts: (N, 3) array
        finite Cartesian evaluation points; each must keep a distance of
        at least half the local grid spacing from every source node that
        carries a nonzero value (nodes where f vanishes contribute
        nothing, so only strict separation is required there), and lie
        strictly outside the inner sphere
    threads: int
        worker threads over fixed blocks of _POINT_BLOCK points; a block
        is summed whole by one worker, so the result is bitwise identical
        for every thread count

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
    r0 = field.radial.r0
    rr = np.linalg.norm(pts, axis=1)
    if np.any(rr <= r0):
        bad = pts[rr <= r0][0]
        raise ProximityError(
            f"evaluation point {bad} lies inside the sphere r0 = {r0:g}")
    n = pts.shape[0]
    # only live nodes are kept; hit[i] is the first dead node point i is on
    src, G, half, seen = [], [], [], 0
    hit = np.full(n, _NO_HIT)
    for y, fc, w, spacing in _source_chunks(field):
        live = (fc != 0.0).any(axis=1)
        src.append(y[live].T)
        G.append(w[live, None] * fc[live])
        half.append(spacing[live])
        dead = y[~live].T.copy()
        _mark_dead_hits(pts, dead, seen, hit)
        seen += dead.shape[1]
    del y, fc, w, spacing, dead
    src = np.concatenate(src, axis=1)                   # (3, n_live)
    G = np.concatenate(G).view(float)                   # (n_live, 6)
    # clamped to the least positive double so that `|d| < half` also
    # catches a point exactly on a live node
    half = np.maximum(0.5 * np.concatenate(half), np.nextafter(0.0, 1.0))
    chunk = max(1, min(_SOURCE_CHUNK, src.shape[1]))
    out = np.empty((n, 3), dtype=complex)

    def too_close(x, dist, lim):
        return ProximityError(
            f"evaluation point {x} is {dist:.3g} from a source node "
            f"(minimum {lim:.3g})")

    def block_sum(lo):
        p = pts[lo:lo + _POINT_BLOCK]
        b = p.shape[0]
        # a point on a node where f vanishes fails first: in the block, the
        # one whose first such node lies in the earliest chunk of nodes
        i = int(np.argmin(hit[lo:lo + b] // _SOURCE_CHUNK))
        if hit[lo + i] != _NO_HIT:
            raise too_close(p[i], 0.0, 0.0)
        px, py, pz = (p[:, a, None] for a in range(3))
        buf = np.empty(5 * b * chunk)
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
                raise too_close(p[i], t[i, j], half[s + j])
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

    starts = range(0, n, _POINT_BLOCK)
    threads = max(1, int(threads))
    if threads == 1 or len(starts) < 2:
        for lo in starts:
            block_sum(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block_sum, starts))
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
