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

Malformed input, NaN and infinities included, and a header declaring more
rows than can be allocated raise FileFormatError whose message carries the
path and 1-based line number of the offending line.

Files are streamed, and each line is read once, so a pipe reads like a
file.  One chunk size, _CHUNK = 9,216 numbers, bounds the text that
readers and writers hold.  Readers parse the header line by line, then
every body by _Lines.body: one numpy.loadtxt call per chunk, and a chunk
that fails parsed again line by line to name the first bad line.  .vfld
samples are read (open_vfld) and written (write_vfld_blocks) in blocks
of radial nodes, so a field can be projected or made as it streams.
"""

import contextlib
import itertools
import math
from types import SimpleNamespace

import numpy as np

from .frames import finite_points
from .grids import AngularGrid, RadialGrid, SampledField, node_tolerance
from .planar import PlanarGeometry, PolarGrid
from .transform import SpectralField

__all__ = ["FileFormatError", "open_vfld", "read_vfld", "write_vfld",
           "write_vfld_blocks", "read_vshc", "write_vshc", "read_points",
           "write_points", "read_polar", "write_polar", "write_eval_table"]

CHANNELS = ("r", "psi", "phi")

_CHUNK = 9 << 10    # numbers per `%` or numpy.loadtxt call; bounds the text buffers


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


@contextlib.contextmanager
def _sized(path, lineno, n, count):
    """A failed allocation of n rows of count numbers fails at lineno."""
    try:
        yield
    except (MemoryError, ValueError):        # ValueError: beyond numpy's sizes
        _fail(path, lineno, "the declared %d rows of %d numbers are too many "
              "to allocate" % (n, count))


def _write_rows(fh, n, width, block, head=""):
    """
    Write n rows of `head` (%s fields) and then width numbers at %.17g.
    block(lo, hi) returns the fields of rows lo..hi-1 as a 2-D array; it
    is called for about _CHUNK fields at a time, each block formatted by
    one `%`.
    """
    fmt = head + " ".join(["%.17g"] * width) + "\n"
    step = max(1, _CHUNK // fmt.count("%"))
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


def _farthest(worst, err, lines):
    """worst, or (err, -line) of the first row farthest from its node, if farther."""
    k = int(np.argmax(err))
    return max(worst, (float(err[k]), -int(lines[k])))


class _Lines:
    """
    Sequential reader over the lines of a text file, numbering them.  Each
    line is read once, so a pipe reads exactly like a file.
    """

    def __init__(self, path):
        self.path, self.fh = path, open(path, "r", encoding="utf-8")
        self.lineno = self.count = 0         # physical / nonblank lines read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def _numbered(self, text):
        """(line number, tokens) of each nonblank line of text, read next."""
        for line in text:
            self.lineno += 1
            toks = line.split()
            if toks:
                self.count += 1
                yield self.lineno, toks

    def next(self, what=None):
        """
        The next nonblank line as (line number, tokens).  At the end of the
        file, None if what is None, else an error saying what was expected.
        """
        for row in self._numbered(self.fh):
            return row
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

    def floats(self, count, what, row=None, head=None):
        """
        The next line (or the given row) as exactly count finite floats.
        With head, the line starts with those tokens and `what % head`
        names it.
        """
        lineno, toks = self.next(what) if row is None else row
        if head is None:
            if len(toks) != count:
                _fail(self.path, lineno, "expected %d numbers (%s), got %d"
                      % (count, what, len(toks)))
            what += " row"
        else:
            if len(toks) != len(head) + count or toks[:len(head)] != head:
                _fail(self.path, lineno, "expected '%s' plus %d numbers"
                      % (" ".join(head), count))
            toks, what = toks[len(head):], what % tuple(head)
        try:
            vals = [float(t) for t in toks]
        except ValueError:
            _fail(self.path, lineno, "non-numeric entry in %s" % what)
        if not all(map(math.isfinite, vals)):
            _fail(self.path, lineno, "non-finite entry in %s" % what)
        return vals

    def body(self, count, what, n=None, head=None):
        """
        Yield the next n rows (n None: all) of count finite numbers as
        (array, line numbers), in chunks of at most _CHUNK numbers;
        with head, row i starts with the tokens head(i) (see floats).
        Each chunk is one numpy.loadtxt call.  If that fails (or skips a
        blank line), floats parses the same text line by line, and the
        rows before the first bad line are yielded before it is named, so
        a caller's own checks of those rows still come first.
        """
        lo, step = 0, max(1, _CHUNK // count)
        while n is None or lo < n:
            first = self.next(None if n is None else what if head is None
                              else what % tuple(head(lo)))
            if first is None:
                return
            k = step if n is None else min(step, n - lo)
            text = [" ".join(first[1])] + list(itertools.islice(self.fh, k - 1))
            numbers = text if head is None else map(
                _after, text, map(head, range(lo, lo + len(text))))
            try:
                rows = np.loadtxt(numbers, comments=None, ndmin=2)
                ok = rows.shape == (len(text), count) and np.isfinite(rows).all()
            except ValueError:
                ok = False
            if ok:
                at = np.arange(first[0], first[0] + len(text))
                self.lineno += len(text) - 1
                self.count += len(text) - 1
            else:
                rows, at = [], []
                try:
                    for row in itertools.chain([first], self._numbered(text[1:])):
                        i = lo + len(rows)
                        rows.append(self.floats(count, what, row, head and head(i)))
                        at.append(row[0])
                except FileFormatError:
                    if rows:
                        yield np.array(rows), np.array(at)
                    raise
                rows, at = np.array(rows), np.array(at)
            lo += len(rows)
            yield rows, at
            del text, numbers               # before the next chunk's text is read

    def grid_blocks(self, shape, width, what, axes, step):
        """
        Yield the width complex values of the rows of a grid file's body, one
        row per node of the tensor grid of shape in lexicographic order after
        its len(shape) coordinates, step shells (first-axis nodes) at a time
        in one buffer.  The other coordinates are checked chunk by chunk
        against the nodes axes() returns once a whole shell is read, so a
        header alone cannot make it costly; radial() checks the first.
        """
        n, d, shell = math.prod(shape), len(shape), math.prod(shape[1:])
        with _sized(self.path, self.lineno, n, d + 2 * width):
            buf = np.empty((min(step, shape[0]) * shell, width), dtype=complex)
        # each shell's first coordinate; (shell, r, line) of the rows that
        # start a shell or sit off its first value
        self.nodes, self.off, self.worst = np.empty(shape[0]), [], (0.0, 0)
        held, nodes = [], None
        for a in range(0, n, len(buf)):
            lo = a
            for rows, at in self.body(d + 2 * width, what, min(len(buf), n - a)):
                i = np.arange(lo, lo + len(rows))
                s, head = i // shell, i % shell == 0
                self.nodes[s[head]] = rows[head, 0]
                off = head | (rows[:, 0] != self.nodes[s])
                self.off.append((s[off], rows[off, 0], at[off]))
                held.append((i, at, rows[:, 1:d].copy()))
                if i[-1] >= shell - 1:
                    nodes = axes() if nodes is None else nodes
                    for rows_i, lines, coords in held:
                        ix = np.unravel_index(rows_i, shape)[1:]
                        err = [np.abs(x - ax[j]) for x, ax, j in zip(coords.T, nodes, ix)]
                        self.worst = _farthest(self.worst, np.max(err, axis=0), lines)
                    held = []
                buf.view(float)[lo - a:lo - a + len(rows)] = rows[:, d:]
                lo += len(rows)
            yield buf[:lo - a]
        self.done()

    def radial(self, lo, hi):
        """
        After grid_blocks: the RadialGrid on [lo, hi] rebuilt from each shell's
        first coordinate; fails at the row farthest off its node, if too far.
        """
        s, r, at = map(np.concatenate, zip(*self.off))
        grid = radial_from_nodes(lo, hi, self.nodes, self.path, at[0])
        worst = _farthest(self.worst, np.abs(r - grid.r[s]), at)
        if worst[0] > node_tolerance(lo, hi):
            _fail(self.path, -worst[1], "node coordinates do not match the "
                  "grid declared by the header")
        return grid


def _after(line, head):
    """The text of line after its leading tokens, which must be head."""
    parts = line.split(None, len(head))
    if parts[:-1] != head:
        raise ValueError("not a '%s' row" % " ".join(head))
    return parts[-1]


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

    Raises FileFormatError when no panel layout reproduces the nodes, or
    when RadialGrid refuses the layout that does.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    tol = node_tolerance(r0, rmax)
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
        try:
            grid = RadialGrid(breakpoints, p)
        except ValueError as e:
            _fail(path, lineno, str(e))
        if np.abs(grid.r - nodes).max() <= tol:
            return grid
    _fail(path, lineno, "radial nodes are not a recognizable composite "
          "Gauss-Legendre rule on [%g, %g]" % (r0, rmax))


############################################
# Sampled vector fields (.vfld)


def write_vfld(path, field):
    """Write a SampledField to a .vfld text file, as one block."""
    write_vfld_blocks(path, field.radial, field.angular, [field.values])


def write_vfld_blocks(path, radial, angular, blocks):
    """
    Write a .vfld file from blocks (n, ntheta, nphi, 3) of consecutive radial
    nodes as they come: rows (r, theta, phi, Re and Im of each component).
    """
    with _output(path) as fh:
        fh.write("vfld 1\nr0 %.17g\nrmax %.17g\nnr %d\nntheta %d\nnphi %d\n"
                 % (radial.r0, radial.rmax, radial.n_r, angular.n_theta, angular.n_phi))
        a = 0
        for values in blocks:
            rows = values.reshape(-1, 3).view(float)
            axes = (radial.r[a:a + len(values)], angular.theta, angular.phi)
            _write_rows(fh, len(rows), 6, _grid_rows(axes, rows), "%s %s %s ")
            a += len(values)


class _Vfld:
    """A .vfld file whose header is read; see open_vfld."""

    def __init__(self, lines):
        _magic(lines, "vfld")
        r0, rmax = lines.keyfloat("r0"), lines.keyfloat("rmax")
        self.shape = tuple(lines.keyint(key) for key in ("nr", "ntheta", "nphi"))
        if min(self.shape) < 1:
            _fail(lines.path, lines.lineno, "grid sizes must be positive")
        self.lines, self.radial = lines, SimpleNamespace(r0=r0, rmax=rmax, n_r=self.shape[0])

    def blocks(self, step):
        def axes():
            self.angular = AngularGrid(*self.shape[1:])
            return self.angular.theta, self.angular.phi
        body = self.lines.grid_blocks(self.shape, 3, "field", axes, step)
        # from a generator expression, so no block is held past the last
        yield from (rows.reshape((-1,) + self.shape[1:] + (3,)) for rows in body)
        self.radial = self.lines.radial(self.radial.r0, self.radial.rmax)


@contextlib.contextmanager
def open_vfld(path):
    """
    Open a .vfld file and read its header: the object given has shape (nr,
    ntheta, nphi) and radial, the header's (r0, rmax, n_r).  blocks(step)
    yields the samples (n, ntheta, nphi, 3), step radial nodes at a time in
    one buffer, and sets angular once a whole shell is read.  After the last
    block, radial is the RadialGrid rebuilt from the recorded nodes (panel
    layout included), and every row's node coordinates have been checked.
    """
    with _Lines(path) as lines:
        yield _Vfld(lines)


def read_vfld(path):
    """Read a .vfld file into a SampledField: open_vfld's one-block case."""
    with open_vfld(path) as f:
        values, = f.blocks(f.shape[0])
    return SampledField(f.radial, f.angular, values)


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


def _vshc_head(i):
    """The `l m channel` tokens that start row i of a .vshc body."""
    k, c = divmod(i, 3)
    l = math.isqrt(k)
    return [str(l), str(k - l * l - l), CHANNELS[c]]


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
        n, lo, head = 3 * (L_max + 1) ** 2, 0, lines.lineno
        nodes = lines.floats(n_r, "radial nodes")
        radial = radial_from_nodes(r0, rmax, nodes, path, lines.lineno)
        with _sized(path, head, n, 2 * n_r):
            out = SpectralField(radial, L_max)      # filled in place, not copied
        vals = out.coeffs.reshape(n, n_r).view(float)
        for rows, at in lines.body(2 * n_r, "coefficients for mode (%s, %s) "
                                   "channel %s", n, _vshc_head):
            vals[lo:lo + len(rows)] = rows
            for i in range(max(lo, 1), min(lo + len(rows), 3)):   # l = 0
                if rows[i - lo].any():
                    _fail(path, at[i - lo], "l = 0 has no %s channel; the "
                          "profile must be zero" % CHANNELS[i])
            lo += len(rows)
        lines.done()
    out.coeffs[0, 1:] = 0.0                         # a -0.0 row reads as +0.0
    return out


############################################
# Evaluation points and tables


def read_points(path):
    """Read a text file of `x y z` rows into an (n, 3) float array."""
    with _Lines(path) as lines:
        return np.concatenate([np.empty((0, 3))]
                              + [rows for rows, _ in lines.body(3, "point")])


def write_points(path, pts):
    """Write (n, 3) finite points, or one (3,) point, as `x y z` rows."""
    pts = finite_points(pts)
    with _output(path) as fh:
        _write_rows(fh, len(pts), 3, lambda lo, hi: pts[lo:hi])


def write_eval_table(path, pts, values):
    """
    Write point evaluations as rows `x y z vx_re vx_im vy_re vy_im
    vz_re vz_im`; pts as for write_points.
    """
    pts = finite_points(pts)
    values = np.ascontiguousarray(values, dtype=complex)
    with _output(path) as fh:
        if not len(pts):
            fh.write("\n")                      # an empty table is one newline
        _write_rows(fh, len(pts), 9, lambda lo, hi: np.column_stack(
            [pts[lo:hi], values[lo:hi].view(float)]))


############################################
# Planar scalar samples (.pfld)


def write_polar(path, samples, grid):
    """
    Write scalar samples on a PolarGrid, with its geometry, to a .pfld
    text file.  Rows run lexicographically in (rho, phi).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (grid.n_rho, grid.n_phi):
        raise ValueError("samples shape %r does not match the grid"
                         % (samples.shape,))
    rows = samples.reshape(-1, 1).view(float)
    geom = grid.geom
    head = "pfld 1\nkind %s\nr0 %.17g\n" % (geom.kind, geom.r0) + "".join(
        "%s %.17g\n" % (key, getattr(geom, name)) for name, key in geom.OUTER[geom.kind].items())
    with _output(path) as fh:
        fh.write(head + "nrho %d\nnphi %d\n" % (grid.n_rho, grid.n_phi))
        _write_rows(fh, len(rows), 2, _grid_rows((grid.rho, grid.phi), rows),
                    "%s %s ")


def read_polar(path):
    """
    Read a .pfld file.

    Returns
    -------
    (samples, grid)
        complex (n_rho, n_phi) samples and the PolarGrid rebuilt on the
        PlanarGeometry the header names.
    """
    with _Lines(path) as lines:
        _magic(lines, "pfld")
        kind_lineno, kind = lines.keyword("kind")
        if kind not in PlanarGeometry.KINDS:
            _fail(path, kind_lineno, "kind must be disk, exterior, or annulus")
        r0 = lines.keyfloat("r0")
        outer = {name: lines.keyfloat(key) for name, key in PlanarGeometry.OUTER[kind].items()}
        try:
            geom = PlanarGeometry(kind, r0, **outer)
        except ValueError as e:     # named at the last radius line read
            _fail(path, lines.lineno, str(e))
        n_rho = lines.keyint("nrho")
        n_phi = lines.keyint("nphi")
        if n_rho < 1 or n_phi < 1:
            _fail(path, lines.lineno, "grid sizes must be positive")
        samples, = lines.grid_blocks(
            (n_rho, n_phi), 1, "sample",
            lambda: (2.0 * np.pi * np.arange(n_phi) / n_phi,), n_rho)   # PolarGrid.phi
        grid = PolarGrid(geom, n_rho, n_phi, breakpoints=lines.radial(*geom.domain()).breakpoints)
    return samples.reshape(n_rho, n_phi), grid
