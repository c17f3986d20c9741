"""
Text file formats for sampled fields, spectral coefficients, evaluation
points, and planar scalar data.

All formats are UTF-8 text with full double precision (%.17g), so files
round-trip bit-for-bit and diff cleanly.  Readers rebuild the grids from
the header plus the recorded nodes: the radial nodes are recognized as
composite Gauss-Legendre panels (the panel layout is recovered by fitting
affine images of the standard nodes), so any panel structure a writer
used survives the trip through a file.

Formats
-------
.vfld   sampled vector field on the (r, theta, phi) tensor grid::

            vfld 1
            r0 <v>
            rmax <v>
            nr <n>
            ntheta <n>
            nphi <n>
            r theta phi vr_re vr_im vt_re vt_im vp_re vp_im      (one row
            per node, lexicographic in (r, theta, phi))

.vshc   spectral coefficients::

            vshc 1
            r0 <v>
            rmax <v>
            nr <n>
            lmax <L>
            <nr radial nodes on one line>
            <l> <m> <channel> re_1 im_1 ... re_nr im_nr          (channel
            in {r, psi, phi}; l ascending, m ascending, channels in that
            order)

points  one evaluation point per row: ``x y z`` (blank lines ignored).

.pfld   planar scalar samples on a polar tensor grid::

            pfld 1
            kind <disk|exterior|annulus>
            r0 <v>
            r1 <v>           (annulus only)
            rsup <v>         (exterior only)
            nrho <n>
            nphi <n>
            rho phi re im                                        (one row
            per node, lexicographic in (rho, phi))

Malformed input, NaN and infinities included, raises FileFormatError whose
message carries the path and 1-based line number of the offending line.

Files are streamed.  Readers parse the header line by line, then the body
in bulk by numpy.loadtxt reading the open file; only if that fails is the
body read again line by line, to name the first bad line.  Writers format
about _BLOCK fields per `%` operation and write each block as it is made.
"""

import contextlib
import io
import itertools
import math

import numpy as np

from .grids import AngularGrid, RadialGrid, SampledField
from .planar import PlanarGeometry, PolarGrid
from .transform import SpectralField

__all__ = ["FileFormatError", "read_vfld", "write_vfld", "read_vshc",
           "write_vshc", "read_points", "write_points",
           "read_polar", "write_polar", "write_eval_table"]

CHANNELS = ("r", "psi", "phi")

_BLOCK = 1 << 15         # fields per `%` operation; bounds a writer's buffers


class FileFormatError(ValueError):
    """A data file violates its format; the message names path and line."""


@contextlib.contextmanager
def _output(out):
    """A text file opened for writing at a path, or an open file object."""
    if hasattr(out, "write"):
        yield out
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh


def _dump(text, out):
    """Write text to a path or to an already-open file object."""
    with _output(out) as fh:
        fh.write(text)


def _fail(path, lineno, message):
    raise FileFormatError("%s: line %d: %s" % (path, lineno, message))


def _write_rows(fh, n, width, block, head=""):
    """
    Write n rows of `head` (%s fields) and then width numbers at %.17g.
    block(lo, hi) returns the fields of rows lo..hi-1 as a 2-D array; it
    is called for about _BLOCK fields at a time, each block formatted by
    one `%`.
    """
    fmt = head + " ".join(["%.17g"] * width) + "\n"
    step = max(1, _BLOCK // fmt.count("%"))
    for lo in range(0, n, step):
        b = block(lo, min(lo + step, n))
        fh.write((fmt * len(b)) % tuple(b.ravel().tolist()))


def _grid_rows(axes, values):
    """
    block(lo, hi) for _write_rows over the nodes of the tensor grid of axes
    in lexicographic order: the text of each node's coordinates, each axis
    value formatted once, then the node's row of values.
    """
    text = [np.array(["%.17g" % x for x in a], dtype=object) for a in axes]
    shape = [len(a) for a in axes]

    def block(lo, hi):
        at = np.unravel_index(np.arange(lo, hi), shape)
        return np.column_stack([t[i] for t, i in zip(text, at)]
                               + [values[lo:hi]])

    return block


def _check_nodes(path, lineno, rows, axes, tol):
    """Fail at the first row whose leading numbers are not its grid node."""
    grid = rows.reshape([len(a) for a in axes] + [-1])
    err = np.zeros(grid.shape[:-1])
    for d, a in enumerate(axes):
        a = a.reshape([-1 if e == d else 1 for e in range(len(axes))])
        np.maximum(err, np.abs(grid[..., d] - a), out=err)
    bad = int(np.argmax(err))
    if err.flat[bad] > tol:
        _fail(path, lineno(bad), "node coordinates do not match the grid "
              "declared by the header")


class _Lines:
    """Sequential reader over the lines of a text file, numbering them."""

    def __init__(self, path):
        self.path, self.fh = path, open(path, "r", encoding="utf-8")
        if not self.fh.seekable():
            # a pipe is read once: keep its bytes, so that a failed bulk
            # parse can still go back and name the bad line
            with self.fh:
                data = self.fh.buffer.read()
            self.fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        self.lineno = self.count = 0         # physical / nonblank lines read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def next(self, what=None):
        """
        The next nonblank line as (line number, tokens).  At the end of the
        file, None if what is None, else an error saying what was expected.
        """
        for text in self.fh:
            self.lineno += 1
            toks = text.split()
            if toks:
                self.count += 1
                return self.lineno, toks
        if what is not None:
            _fail(self.path, self.count + 1,
                  "unexpected end of file, expected %s" % what)

    def done(self):
        at = self.count
        row = self.next()
        if row is not None:
            _fail(self.path, row[0], "trailing data past the expected %d rows"
                  % at)

    def keyword(self, key):
        """Consume a `key value` line and return the value token."""
        lineno, toks = self.next("'%s <value>'" % key)
        if len(toks) != 2 or toks[0] != key:
            _fail(self.path, lineno, "expected '%s <value>', got %r"
                  % (key, " ".join(toks)))
        return lineno, toks[1]

    def keyfloat(self, key):
        lineno, tok = self.keyword(key)
        try:
            value = float(tok)
        except ValueError:
            _fail(self.path, lineno, "%s is not a number: %r" % (key, tok))
        if not math.isfinite(value):
            _fail(self.path, lineno, "%s is not finite: %r" % (key, tok))
        return value

    def keyint(self, key):
        lineno, tok = self.keyword(key)
        try:
            return int(tok)
        except ValueError:
            _fail(self.path, lineno, "%s is not an integer: %r" % (key, tok))

    def numbers(self, lineno, toks, what):
        """The tokens of one line as finite floats."""
        try:
            vals = [float(t) for t in toks]
        except ValueError:
            _fail(self.path, lineno, "non-numeric entry in %s" % what)
        if not all(map(math.isfinite, vals)):
            _fail(self.path, lineno, "non-finite entry in %s" % what)
        return vals

    def floats(self, count, what, row=None):
        """The next line (or the given row) as exactly count finite floats."""
        lineno, toks = self.next(what) if row is None else row
        if len(toks) != count:
            _fail(self.path, lineno, "expected %d numbers (%s), got %d"
                  % (count, what, len(toks)))
        return lineno, self.numbers(lineno, toks, what + " row")

    def bulk(self, mark, source, count, n=None):
        """
        Parse the lines source yields, the rest of the body read from mark
        (lineno, count), with numpy.loadtxt as n rows (n None: all) of count
        finite numbers.  Returns the array, or None, back at mark, if that
        fails.
        """
        try:
            table = np.loadtxt(source, comments=None, ndmin=2)
            if (table.shape[1] == count and n in (None, len(table))
                    and np.isfinite(table).all()):
                self.count = mark[1] + len(table)
                return table
        except ValueError:
            pass
        self.rewind(mark)

    def rewind(self, mark, rows=0):
        """
        Go back to where (lineno, count) was mark, then read on past `rows`
        nonblank lines; returns the line number reached.
        """
        self.fh.seek(0)
        for _ in range(mark[0]):
            self.fh.readline()
        self.lineno, self.count = mark
        for _ in range(rows):
            self.next()
        return self.lineno

    def table(self, count, what, n=None):
        """
        The next n rows (n None: all) of count finite numbers, as an array,
        and a function from row index to line number.  The first row is
        read here, so that its line number is known without a second read.
        """
        mark = self.lineno, self.count
        first = self.next(None if n is None else what)
        if first is None:
            return np.empty((0, count)), None
        rows = self.bulk(mark, itertools.chain([" ".join(first[1])], self.fh),
                         count, n)
        if rows is not None:
            return rows, lambda k: self.rewind(mark, k + 1) if k else first[0]
        linenos, rows = [], []
        while n is None or len(rows) < n:
            row = self.next(None if n is None else what)
            if row is None:
                break
            lineno, vals = self.floats(count, what, row)
            linenos.append(lineno)
            rows.append(vals)
        return np.array(rows).reshape(len(rows), count), linenos.__getitem__


def _magic(lines, tag):
    lineno, toks = lines.next("'%s 1' header" % tag)
    if toks != [tag, "1"]:
        _fail(lines.path, lineno, "expected '%s 1' header, got %r"
              % (tag, " ".join(toks)))


############################################
# Radial panel recognition


def radial_from_nodes(r0, rmax, nodes, path="<nodes>", lineno=0):
    """
    Rebuild the RadialGrid whose nodes are the given array.

    The nodes of a composite Gauss-Legendre rule are affine images of the
    standard nodes, one block per panel.  For each divisor p of the node
    count (largest first, so the coarsest consistent panel layout wins)
    the array is cut into blocks of p, an affine map is fitted to every
    block from its end nodes, and the fit is accepted when all p nodes
    match and the implied panels tile [r0, rmax] exactly.

    Raises FileFormatError when no panel layout reproduces the nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    scale = max(abs(r0), abs(rmax), 1.0)
    tol = 1e-9 * scale
    for p in range(n, 1, -1):
        if n % p:
            continue
        xi = np.polynomial.legendre.leggauss(p)[0]
        blocks = nodes.reshape(n // p, p)
        half = (blocks[:, -1] - blocks[:, 0]) / (xi[-1] - xi[0])
        mid = 0.5 * (blocks[:, 0] + blocks[:, -1])
        fitted = mid[:, None] + half[:, None] * xi[None, :]
        if np.abs(fitted - blocks).max() > tol:
            continue
        lo, hi = mid - half, mid + half
        if abs(lo[0] - r0) > tol or abs(hi[-1] - rmax) > tol:
            continue
        if n // p > 1 and np.abs(hi[:-1] - lo[1:]).max() > tol:
            continue
        breakpoints = np.concatenate([[r0], 0.5 * (hi[:-1] + lo[1:]), [rmax]])
        grid = RadialGrid(breakpoints, p)
        if np.abs(grid.r - nodes).max() <= tol:
            return grid
    _fail(path, lineno, "radial nodes are not a recognizable composite "
          "Gauss-Legendre rule on [%g, %g]" % (r0, rmax))


############################################
# Sampled vector fields (.vfld)


def write_vfld(path, field):
    """
    Write a SampledField to a .vfld text file.

    Rows hold the spherical-frame components at every (r, theta, phi)
    node in lexicographic order, real and imaginary parts separately.
    """
    rad, ang = field.radial, field.angular
    rows = field.values.reshape(-1, 3).view(float)
    with _output(path) as fh:
        fh.write("vfld 1\nr0 %.17g\nrmax %.17g\nnr %d\nntheta %d\nnphi %d\n"
                 % (rad.r0, rad.rmax, rad.n_r, ang.n_theta, ang.n_phi))
        _write_rows(fh, len(rows), 6,
                    _grid_rows((rad.r, ang.theta, ang.phi), rows), "%s %s %s ")


def read_vfld(path):
    """
    Read a .vfld file back into a SampledField.

    The radial grid (panel layout included) is reconstructed from the
    recorded nodes; the angular grid follows from (ntheta, nphi).  Node
    coordinates in the rows are checked against the rebuilt grids, so a
    file edited out of shape fails with a pointed diagnostic.
    """
    with _Lines(path) as lines:
        _magic(lines, "vfld")
        r0 = lines.keyfloat("r0")
        rmax = lines.keyfloat("rmax")
        n_r = lines.keyint("nr")
        n_theta = lines.keyint("ntheta")
        n_phi = lines.keyint("nphi")
        if n_r < 1 or n_theta < 1 or n_phi < 1:
            _fail(path, lines.lineno, "grid sizes must be positive")
        rows, lineno = lines.table(9, "field", n_r * n_theta * n_phi)
        lines.done()
        radial = radial_from_nodes(r0, rmax, rows[::n_theta * n_phi, 0],
                                   path, lineno(0))
        angular = AngularGrid(n_theta, n_phi)
        _check_nodes(path, lineno, rows,
                     (radial.r, angular.theta, angular.phi),
                     1e-9 * max(rmax, 1.0))
    v = np.ascontiguousarray(rows[:, 3:]).view(complex)
    return SampledField(radial, angular, v.reshape(n_r, n_theta, n_phi, 3))


############################################
# Spectral coefficients (.vshc)


def write_vshc(path, S):
    """
    Write a SpectralField to a .vshc text file.

    One line per (l, m, channel) in deterministic order: l ascending,
    m ascending within l, channels r / psi / phi.
    """
    rad, n_r = S.radial, S.radial.n_r
    rows = S.coeffs.reshape(-1, n_r)            # flat mode order = file order
    heads = ["%d %d %s" % (l, m, c) for l, m in zip(S.ells, S.ems)
             for c in CHANNELS]

    def block(lo, hi):
        out = np.empty((hi - lo, 1 + 2 * n_r), dtype=object)
        out[:, 0], out[:, 1:] = heads[lo:hi], rows[lo:hi].view(float)
        return out

    with _output(path) as fh:
        fh.write("vshc 1\nr0 %.17g\nrmax %.17g\nnr %d\nlmax %d\n"
                 % (rad.r0, rad.rmax, n_r, S.L_max))
        _write_rows(fh, 1, n_r, lambda lo, hi: rad.r[None])
        _write_rows(fh, len(rows), 2 * n_r, block, "%s ")


def _numbers_after(lines, heads):
    """
    The numbers of each next line of lines, after its leading tokens; a
    line whose leading tokens are not the next of heads raises ValueError.
    """
    for head in heads:
        parts = lines.fh.readline().split(None, 3)
        lines.lineno += 1
        if len(parts) < 4 or parts[:3] != head:
            raise ValueError("not a '%s' row" % " ".join(head))
        yield parts[3]


def read_vshc(path):
    """
    Read a .vshc file back into a SpectralField.

    Enforces the declared ordering, the |m| <= l index structure, and the
    l = 0 convention (psi and phi channels identically zero).
    """
    with _Lines(path) as lines:
        _magic(lines, "vshc")
        r0 = lines.keyfloat("r0")
        rmax = lines.keyfloat("rmax")
        n_r = lines.keyint("nr")
        L_max = lines.keyint("lmax")
        if n_r < 1 or L_max < 0:
            _fail(path, lines.lineno,
                  "nr must be positive and lmax nonnegative")
        node_lineno, nodes = lines.floats(n_r, "radial nodes")
        radial = radial_from_nodes(r0, rmax, nodes, path, node_lineno)
        heads = [[str(l), str(m), c] for l in range(L_max + 1)
                 for m in range(-l, l + 1) for c in CHANNELS]
        mark = lines.lineno, lines.count
        vals = lines.bulk(mark, _numbers_after(lines, heads), 2 * n_r,
                          len(heads))
        if vals is None or vals[1:3].any():          # l = 0: r data only
            lines.rewind(mark)
            vals = np.empty((len(heads), 2 * n_r))
            for i, (l, m, c) in enumerate(heads):
                what = "coefficients for mode (%s, %s) channel %s" % (l, m, c)
                lineno, toks = lines.next(what)
                if len(toks) != 3 + 2 * n_r or toks[:3] != heads[i]:
                    _fail(path, lineno, "expected '%s %s %s' plus %d numbers"
                          % (l, m, c, 2 * n_r))
                vals[i] = lines.numbers(lineno, toks[3:], what)
                if l == "0" and c != "r" and vals[i].any():
                    _fail(path, lineno, "l = 0 has no %s channel; the "
                          "profile must be zero" % c)
        lines.done()
    return SpectralField(radial, L_max, vals.view(complex).reshape(-1, 3, n_r))


############################################
# Evaluation points and tables


def read_points(path):
    """Read a text file of `x y z` rows into an (n, 3) float array."""
    with _Lines(path) as lines:
        return lines.table(3, "point")[0]


def write_points(path, pts):
    """Write an (n, 3) array as `x y z` rows."""
    pts = np.asarray(pts, dtype=float)
    with _output(path) as fh:
        _write_rows(fh, len(pts), pts.shape[1], lambda lo, hi: pts[lo:hi])


def write_eval_table(path, pts, values):
    """
    Write point evaluations as rows `x y z vx_re vx_im vy_re vy_im
    vz_re vz_im`.
    """
    pts = np.asarray(pts, dtype=float)
    values = np.ascontiguousarray(values, dtype=complex)
    with _output(path) as fh:
        if not len(pts):
            fh.write("\n")                      # an empty table is one newline
        _write_rows(fh, len(pts), 9, lambda lo, hi: np.column_stack(
            [pts[lo:hi], values[lo:hi].view(float)]))


############################################
# Planar scalar samples (.pfld)


def write_polar(path, samples, grid, geom):
    """
    Write scalar samples on a PolarGrid, with the geometry, to a .pfld
    text file.  Rows run lexicographically in (rho, phi).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (grid.n_rho, grid.n_phi):
        raise ValueError("samples shape %r does not match the grid"
                         % (samples.shape,))
    rows = samples.reshape(-1, 1).view(float)
    head = "pfld 1\nkind %s\nr0 %.17g\n" % (geom.kind, geom.r0)
    if geom.kind == "annulus":
        head += "r1 %.17g\n" % geom.r1
    elif geom.kind == "exterior":
        head += "rsup %.17g\n" % geom.R_sup
    with _output(path) as fh:
        fh.write(head + "nrho %d\nnphi %d\n" % (grid.n_rho, grid.n_phi))
        _write_rows(fh, len(rows), 2, _grid_rows((grid.rho, grid.phi), rows),
                    "%s %s ")


def read_polar(path):
    """
    Read a .pfld file.

    Returns
    -------
    (samples, grid, geom)
        complex (n_rho, n_phi) samples, the rebuilt PolarGrid, and the
        PlanarGeometry from the header.
    """
    with _Lines(path) as lines:
        _magic(lines, "pfld")
        kind_lineno, kind = lines.keyword("kind")
        if kind not in ("disk", "exterior", "annulus"):
            _fail(path, kind_lineno, "kind must be disk, exterior, or annulus")
        r0 = lines.keyfloat("r0")
        if kind == "annulus":
            geom = PlanarGeometry(kind, r0, r1=lines.keyfloat("r1"))
        elif kind == "exterior":
            geom = PlanarGeometry(kind, r0, R_sup=lines.keyfloat("rsup"))
        else:
            geom = PlanarGeometry(kind, r0)
        n_rho = lines.keyint("nrho")
        n_phi = lines.keyint("nphi")
        if n_rho < 1 or n_phi < 1:
            _fail(path, lines.lineno, "grid sizes must be positive")
        rows, lineno = lines.table(4, "sample", n_rho * n_phi)
        lines.done()
        lo, hi = geom.domain()
        radial = radial_from_nodes(lo, hi, rows[::n_phi, 0], path, lineno(0))
        grid = PolarGrid(lo, hi, n_rho, n_phi, breakpoints=radial.breakpoints)
        _check_nodes(path, lineno, rows, (grid.rho, grid.phi),
                     1e-9 * max(hi, 1.0))
    samples = np.ascontiguousarray(rows[:, 2:]).view(complex)
    return samples.reshape(n_rho, n_phi), grid, geom
