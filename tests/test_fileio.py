"""
Text formats: sampled fields, spectral coefficients, points, planar data.
"""

import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import divcurl
from divcurl import fileio
from divcurl.fileio import (FileFormatError, radial_from_nodes, read_points,
                            read_polar, read_vfld, read_vshc, write_eval_table,
                            write_points, write_polar, write_vfld, write_vshc)
from divcurl.grids import AngularGrid, SampledField, make_grids
from divcurl.planar import PlanarGeometry, PolarGrid
from divcurl.transform import SpectralField, synthesize
from fixtures import traced_peak

# doubles whose %.17g text is easy to get wrong
SPECIAL = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1e-300)


def _random_spectral(radial, L_max, seed):
    """Band-limited coefficients with smooth radial profiles."""
    rng = np.random.default_rng(seed)
    S = SpectralField(radial, L_max)
    bump = np.exp(-((radial.r - 3.0) / 0.9) ** 2)
    for l in range(L_max + 1):
        for m in range(-l, l + 1):
            amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            if l == 0:
                amps[1:] = 0.0
            for c in range(3):
                if l == 0 and c > 0:
                    continue
                S.set_mode(l, m, c, amps[c] * bump)
    return S


############################################
# Round trips


def test_vfld_round_trip_preserves_panel_layout(tmp_path):
    ang, rad = make_grids(1.0, 5.0, 48, 4,
                          breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
    field = synthesize(_random_spectral(rad, 3, 0), ang)
    path = tmp_path / "field.vfld"
    write_vfld(path, field)
    back = read_vfld(path)
    assert np.array_equal(back.values, field.values)
    assert np.allclose(back.radial.breakpoints, rad.breakpoints,
                       rtol=0.0, atol=1e-12)
    assert back.radial.nodes_per_panel == rad.nodes_per_panel
    assert back.angular.n_theta == ang.n_theta
    assert back.angular.n_phi == ang.n_phi


def test_vshc_round_trip_exact(tmp_path):
    _, rad = make_grids(1.0, 5.0, 32, 5)
    S = _random_spectral(rad, 5, 1)
    path = tmp_path / "coeffs.vshc"
    write_vshc(path, S)
    back = read_vshc(path)
    assert back.L_max == S.L_max
    assert np.array_equal(back.coeffs, S.coeffs)
    assert np.allclose(back.radial.r, rad.r, rtol=0.0, atol=1e-12)


def test_round_trips_keep_the_panels_at_any_unit(tmp_path):
    # node tolerances follow the grid's scale, so at a small unit the nodes
    # of a coarser layout no longer pass for the file's (2 panels of 32, or
    # a refused panel of 64, from 2^-28 down with a tolerance of 1e-9)
    rng = np.random.default_rng(5)
    for k in range(-40, 1):
        lam = 2.0 ** k
        for bp in (None, lam * np.linspace(1.0, 5.0, 5)):
            ang, rad = make_grids(lam, 5.0 * lam, 64, 2, breakpoints=bp)
            S = SpectralField(rad, 2)
            S.coeffs[1:] = rng.standard_normal(S.coeffs[1:].shape)
            S.coeffs[0, 0] = rng.standard_normal(rad.n_r)
            values = rng.standard_normal((rad.n_r, ang.n_theta, ang.n_phi, 3))
            write_vshc(tmp_path / "f.vshc", S)
            write_vfld(tmp_path / "f.vfld", SampledField(rad, ang, values))
            for back in (read_vshc(tmp_path / "f.vshc").radial,
                         read_vfld(tmp_path / "f.vfld").radial):
                assert back.n_panels == rad.n_panels == 4, k
                gap = np.abs(back.breakpoints - rad.breakpoints) / rad.breakpoints
                assert gap.max() <= 1e-14, k


def test_points_round_trip(tmp_path):
    pts = np.array([[1.5, -0.25, 3.0], [0.1, 0.2, 0.3], [-4.0, 0.0, 1e-7]])
    path = tmp_path / "pts.txt"
    write_points(path, pts)
    assert np.array_equal(read_points(path), pts)


@pytest.mark.parametrize("write, pts, match", [
    (write_points, np.ones((4, 2)), r"pts must be \(N, 3\), got \(4, 2\)"),
    (write_points, [[1.0, 2.0, 3.0], [np.nan, 0.0, 0.0]], "evaluation points must be finite"),
    (write_eval_table, np.ones((4, 2)), r"pts must be \(N, 3\), got \(4, 2\)"),
    (write_eval_table, [[np.inf, 0.0, 0.0]], "evaluation points must be finite"),
    (write_points, np.array([[1.0 + 2.0j, 0.0, 0.0]]), r"got a complex \(1, 3\) array"),
    (write_eval_table, [[1.0, 2.0j, 0.0]], r"got a complex \(1, 3\) array"),
])
def test_points_writers_refuse_what_read_points_refuses(tmp_path, write, pts, match):
    args = () if write is write_points else (np.zeros((len(pts), 3)),)
    with pytest.raises(ValueError, match=match):
        write(tmp_path / "pts.txt", pts, *args)


def test_write_points_takes_one_point(tmp_path):
    path = tmp_path / "pts.txt"
    write_points(path, [1, 2, 3])
    assert np.array_equal(read_points(path), [[1.0, 2.0, 3.0]])


def test_points_skip_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1 2 3\n\n\n4 5 6\n")
    assert np.array_equal(read_points(path), [[1, 2, 3], [4, 5, 6]])


def test_polar_round_trip(tmp_path):
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 24, 9,
                  breakpoints=[1.0, 1.25, 1.75, 2.0])
    rng = np.random.default_rng(2)
    samples = (rng.standard_normal((24, 9))
               + 1j * rng.standard_normal((24, 9)))
    path = tmp_path / "scalar.pfld"
    write_polar(path, samples, g)
    back, g2 = read_polar(path)
    assert np.array_equal(back, samples)
    assert g2.geom.kind == "annulus" and g2.geom.r1 == 2.0
    assert np.allclose(g2.rho, g.rho, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match=r"samples shape \(9, 24\) does not match"):
        write_polar(path, samples.T, g)


def test_writes_are_byte_identical(tmp_path):
    _, rad = make_grids(1.0, 5.0, 16, 3)
    S = _random_spectral(rad, 3, 4)
    a, b = tmp_path / "a.vshc", tmp_path / "b.vshc"
    write_vshc(a, S)
    write_vshc(b, S)
    assert a.read_bytes() == b.read_bytes()


def test_eval_table_layout(tmp_path):
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    vals = np.array([[1 + 2j, 3 + 4j, 5 + 6j], [0j, 1j, -1 + 0j]])
    path = tmp_path / "table.txt"
    write_eval_table(path, pts, vals)
    rows = np.loadtxt(path)
    assert rows.shape == (2, 9)
    assert np.array_equal(rows[:, :3], pts)
    assert rows[0, 3] == 1.0 and rows[0, 4] == 2.0 and rows[1, 8] == 0.0


############################################
# Radial panel recognition


def test_radial_reconstruction_prefers_coarsest_layout():
    _, rad = make_grids(1.0, 5.0, 32, 3)
    rebuilt = radial_from_nodes(1.0, 5.0, rad.r)
    assert rebuilt.nodes_per_panel == rad.nodes_per_panel
    assert len(rebuilt.breakpoints) == len(rad.breakpoints)


def test_radial_reconstruction_rejects_garbage():
    nodes = np.linspace(1.0, 5.0, 16)       # equispaced, not Gauss-Legendre
    with pytest.raises(FileFormatError, match="not a recognizable"):
        radial_from_nodes(1.0, 5.0, nodes, "junk.vshc", 6)
    # Gauss panels on [1, 2] and [4, 5]: each block fits, but they leave a gap
    xi = np.polynomial.legendre.leggauss(4)[0]
    gap = np.concatenate([1.5 + 0.5 * xi, 4.5 + 0.5 * xi])
    with pytest.raises(FileFormatError, match="not a recognizable"):
        radial_from_nodes(1.0, 5.0, gap)


############################################
# Malformed files carry path and line number


def test_truncated_node_line_is_diagnosed(tmp_path):
    _, rad = make_grids(1.0, 5.0, 64, 2)
    S = SpectralField(rad, 2)
    path = tmp_path / "trunc.vshc"
    write_vshc(path, S)
    lines = path.read_text().split("\n")
    lines[5] = " ".join(lines[5].split()[:15])    # cut the node row short
    path.write_text("\n".join(lines))
    with pytest.raises(FileFormatError) as err:
        read_vshc(path)
    assert "trunc.vshc: line 6: expected 64 numbers (radial nodes), got 15" \
        in str(err.value)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.vfld"
    path.write_text("vfld 2\n")
    with pytest.raises(FileFormatError, match=r"line 1.*expected 'vfld 1'"):
        read_vfld(path)


def test_vshc_mode_header_mismatch(tmp_path):
    _, rad = make_grids(1.0, 5.0, 16, 1)
    path = tmp_path / "modes.vshc"
    write_vshc(path, SpectralField(rad, 1))
    text = path.read_text().split("\n")
    text[6] = text[6].replace("0 0 r", "1 0 r", 1)
    path.write_text("\n".join(text))
    with pytest.raises(FileFormatError, match="line 7"):
        read_vshc(path)


def test_vshc_rejects_l0_tangential_data(tmp_path):
    _, rad = make_grids(1.0, 5.0, 16, 1)
    path = tmp_path / "l0.vshc"
    write_vshc(path, SpectralField(rad, 1))
    text = path.read_text().split("\n")
    toks = text[7].split()                       # the `0 0 psi` row
    toks[3] = "1"
    text[7] = " ".join(toks)
    path.write_text("\n".join(text))
    with pytest.raises(FileFormatError, match="l = 0 has no psi channel"):
        read_vshc(path)


def test_vfld_node_mismatch_names_the_row(tmp_path):
    ang, rad = make_grids(1.0, 5.0, 16, 2)
    field = synthesize(_random_spectral(rad, 2, 5), ang)
    path = tmp_path / "warped.vfld"
    write_vfld(path, field)
    text = path.read_text().split("\n")
    toks = text[10].split()
    toks[1] = "%.17g" % (float(toks[1]) + 0.01)  # bend one theta coordinate
    text[10] = " ".join(toks)
    path.write_text("\n".join(text))
    with pytest.raises(FileFormatError, match="line 11.*do not match"):
        read_vfld(path)


def test_trailing_rows_are_rejected(tmp_path):
    pts = np.array([[1.0, 2.0, 3.0]])
    _, rad = make_grids(1.0, 5.0, 16, 1)
    path = tmp_path / "extra.vshc"
    write_vshc(path, SpectralField(rad, 1))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("9 9 r " + " ".join(["0"] * 32) + "\n")
    with pytest.raises(FileFormatError, match="trailing data"):
        read_vshc(path)
    path2 = tmp_path / "short.txt"
    write_points(path2, pts)
    with open(path2, "a", encoding="utf-8") as fh:
        fh.write("4 5\n")
    with pytest.raises(FileFormatError, match="expected 3 numbers"):
        read_points(path2)


def test_nonnumeric_entry(tmp_path):
    path = tmp_path / "nan.vfld"
    path.write_text("vfld 1\nr0 one\n")
    with pytest.raises(FileFormatError, match="r0 is not a number"):
        read_vfld(path)


def test_format_error_is_a_value_error():
    assert issubclass(FileFormatError, ValueError)


############################################
# Writers against the per-number %.17g loops they replaced


def _g(x):
    return "%.17g" % x


def _oracle_vfld(field):
    rad, ang, v = field.radial, field.angular, field.values
    out = ["vfld 1", "r0 " + _g(rad.r0), "rmax " + _g(rad.rmax),
           "nr %d" % rad.n_r, "ntheta %d" % ang.n_theta, "nphi %d" % ang.n_phi]
    for i in range(rad.n_r):
        for j in range(ang.n_theta):
            for k in range(ang.n_phi):
                row = [_g(rad.r[i]), _g(ang.theta[j]), _g(ang.phi[k])]
                for z in v[i, j, k]:
                    row += [_g(z.real), _g(z.imag)]
                out.append(" ".join(row))
    return "\n".join(out) + "\n"


def _oracle_vshc(S):
    rad = S.radial
    out = ["vshc 1", "r0 " + _g(rad.r0), "rmax " + _g(rad.rmax),
           "nr %d" % rad.n_r, "lmax %d" % S.L_max,
           " ".join(_g(x) for x in rad.r)]
    for l in range(S.L_max + 1):
        for m in range(-l, l + 1):
            for c, name in enumerate(("r", "psi", "phi")):
                row = ["%d %d %s" % (l, m, name)]
                row += ["%s %s" % (_g(z.real), _g(z.imag))
                        for z in S.mode(l, m)[c]]
                out.append(" ".join(row))
    return "\n".join(out) + "\n"


def _oracle_points(pts):
    return "".join(" ".join(_g(x) for x in p) + "\n" for p in pts)


def _oracle_eval_table(pts, values):
    out = []
    for p, v in zip(pts, values):
        row = [_g(x) for x in p]
        for z in v:
            row += [_g(z.real), _g(z.imag)]
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def _oracle_polar(samples, grid):
    geom = grid.geom
    out = ["pfld 1", "kind " + geom.kind, "r0 " + _g(geom.r0)]
    if geom.kind == "annulus":
        out.append("r1 " + _g(geom.r1))
    elif geom.kind == "exterior":
        out.append("rsup " + _g(geom.R_sup))
    out += ["nrho %d" % grid.n_rho, "nphi %d" % grid.n_phi]
    for i in range(grid.n_rho):
        for k in range(grid.n_phi):
            z = samples[i, k]
            out.append(" ".join((_g(grid.rho[i]), _g(grid.phi[k]),
                                 _g(z.real), _g(z.imag))))
    return "\n".join(out) + "\n"


def _complex_with_specials(rng, shape):
    """Random complex data, negative imaginary parts included, with SPECIAL
    planted as real and as imaginary parts."""
    z = rng.standard_normal(shape) - 1j * rng.standard_normal(shape)
    flat = z.reshape(-1)
    flat.real[:len(SPECIAL)] = SPECIAL
    flat.imag[len(SPECIAL):2 * len(SPECIAL)] = SPECIAL
    return z


def _written(write, *args):
    out = io.StringIO()
    write(out, *args)
    return out.getvalue()


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("n_phi", [9, 8])
def test_writers_match_per_number_loops(monkeypatch, block, n_phi):
    # block 50 forces many blocks, most of them cut inside a row's fields
    if block is not None:
        monkeypatch.setattr(fileio, "_CHUNK", block)
    rng = np.random.default_rng(n_phi)
    _, rad = make_grids(1.0, 5.0, 16, 3, breakpoints=[1.0, 2.0, 5.0])
    ang = AngularGrid(5, n_phi)
    field = SampledField(rad, ang, _complex_with_specials(
        rng, (rad.n_r, ang.n_theta, ang.n_phi, 3)))
    assert _written(write_vfld, field) == _oracle_vfld(field)

    S = SpectralField(rad, 3, _complex_with_specials(rng, (16, 3, rad.n_r)))
    assert _written(write_vshc, S) == _oracle_vshc(S)

    pts = rng.standard_normal((2 * n_phi + 1, 3))
    pts.reshape(-1)[:len(SPECIAL)] = SPECIAL
    values = _complex_with_specials(rng, pts.shape)
    assert _written(write_points, pts) == _oracle_points(pts)
    assert _written(write_eval_table, pts, values) \
        == _oracle_eval_table(pts, values)
    assert _written(write_eval_table, pts[:0], values[:0]) == "\n"

    grid = PolarGrid(PlanarGeometry("exterior", 1.0, R_sup=3.0), 16, n_phi)
    samples = _complex_with_specials(rng, (16, n_phi))
    assert _written(write_polar, samples, grid) == _oracle_polar(samples, grid)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_round_trips_are_bit_exact(tmp_path):
    # -0.0 in real and imaginary parts, subnormals and the largest double
    # come back with every bit
    rng = np.random.default_rng(11)
    ang, rad = make_grids(1.0, 5.0, 16, 2)
    field = SampledField(rad, ang, _complex_with_specials(
        rng, (rad.n_r, ang.n_theta, ang.n_phi, 3)))
    write_vfld(tmp_path / "f.vfld", field)
    assert np.array_equal(_bits(read_vfld(tmp_path / "f.vfld").values),
                          _bits(field.values))

    coeffs = _complex_with_specials(rng, (9, 3, rad.n_r))
    coeffs[0, 1:] = -0.0                         # l = 0 tangential rows
    S = SpectralField(rad, 2, coeffs)
    write_vshc(tmp_path / "c.vshc", S)
    assert np.array_equal(_bits(read_vshc(tmp_path / "c.vshc").coeffs),
                          _bits(S.coeffs))

    pts = rng.standard_normal((7, 3))
    pts.reshape(-1)[:len(SPECIAL)] = SPECIAL
    write_points(tmp_path / "p.txt", pts)
    assert np.array_equal(_bits(read_points(tmp_path / "p.txt")), _bits(pts))

    grid = PolarGrid(PlanarGeometry("disk", 2.0), 16, 5)
    samples = _complex_with_specials(rng, (16, 5))
    write_polar(tmp_path / "s.pfld", samples, grid)
    assert np.array_equal(_bits(read_polar(tmp_path / "s.pfld")[0]),
                          _bits(samples))


############################################
# Diagnostics of the line-by-line pass


def _small_vfld(tmp_path):
    """A .vfld path and its 54 lines: the header is lines 1-6, rows 7-54."""
    ang, rad = make_grids(1.0, 5.0, 8, 1)
    path = tmp_path / "body.vfld"
    write_vfld(path, synthesize(_random_spectral(rad, 1, 8), ang))
    text = path.read_text().split("\n")[:-1]
    assert len(text) == 54
    return path, text


def _with_token(line, k, tok):
    toks = line.split()
    toks[k] = tok
    return " ".join(toks)


# each message is the one the per-line reader gave before bulk parsing
@pytest.mark.parametrize("edit, message", [
    (lambda t: t[:10] + [" ".join(t[10].split()[:8])] + t[11:],
     "line 11: expected 9 numbers (field), got 8"),
    (lambda t: t[:8] + [_with_token(t[8], 4, "0x1")] + t[9:],
     "line 9: non-numeric entry in field row"),
    (lambda t: t[:9] + ["# a comment"] + t[9:],
     "line 10: expected 9 numbers (field), got 3"),
    (lambda t: t[:9] + ["", "  "] + [_with_token(t[9], 0, "r")] + t[10:],
     "line 12: non-numeric entry in field row"),
    (lambda t: t[:-1],
     "line 54: unexpected end of file, expected field"),
    (lambda t: t + [t[-1]],
     "line 55: trailing data past the expected 54 rows"),
])
def test_vfld_body_errors_name_their_line(tmp_path, edit, message):
    path, text = _small_vfld(tmp_path)
    path.write_text("\n".join(edit(text)) + "\n")
    with pytest.raises(FileFormatError) as err:
        read_vfld(path)
    assert str(err.value) == "%s: %s" % (path, message)


def test_blank_lines_in_a_body_are_skipped(tmp_path):
    path, text = _small_vfld(tmp_path)
    field = read_vfld(path)
    path.write_text("\n".join(text[:20] + ["", " \t"] + text[20:]) + "\n\n")
    assert np.array_equal(read_vfld(path).values, field.values)
    path.write_text("\n".join(text[:20] + [""] + text[20:30]
                              + [_with_token(text[30], 2, "7")] + text[31:]))
    with pytest.raises(FileFormatError, match="line 32.*do not match"):
        read_vfld(path)


############################################
# Non-finite numbers


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e999"])
def test_readers_reject_non_finite_numbers(tmp_path, bad):
    path, text = _small_vfld(tmp_path)
    toks = text[9].split()
    toks[5] = bad
    path.write_text("\n".join(text[:9] + [" ".join(toks)] + text[10:]) + "\n")
    with pytest.raises(FileFormatError,
                       match=r"line 10: non-finite entry in field row"):
        read_vfld(path)

    path.write_text("\n".join([text[0], "r0 " + bad] + text[2:]) + "\n")
    with pytest.raises(FileFormatError, match=r"line 2: r0 is not finite"):
        read_vfld(path)

    _, rad = make_grids(1.0, 5.0, 16, 1)
    path = tmp_path / "c.vshc"
    write_vshc(path, _random_spectral(rad, 1, 9))
    text = path.read_text().split("\n")
    toks = text[9].split()                       # the `1 -1 r` row
    toks[4] = bad
    text[9] = " ".join(toks)
    path.write_text("\n".join(text))
    with pytest.raises(FileFormatError, match=r"line 10: non-finite entry in "
                       r"coefficients for mode \(1, -1\) channel r"):
        read_vshc(path)

    path = tmp_path / "p.txt"
    path.write_text("1 2 3\n4 %s 6\n" % bad)
    with pytest.raises(FileFormatError,
                       match=r"line 2: non-finite entry in point row"):
        read_points(path)

    path = tmp_path / "s.pfld"
    write_polar(path, np.ones((8, 3)), PolarGrid(PlanarGeometry("disk", 1.0), 8, 3))
    text = path.read_text().split("\n")
    text[8] = " ".join(text[8].split()[:3] + [bad])
    path.write_text("\n".join(text))
    with pytest.raises(FileFormatError,
                       match=r"line 9: non-finite entry in sample row"):
        read_polar(path)


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_vfld_chunks_keep_every_bit_and_line(monkeypatch, tmp_path, rows):
    # the body is parsed _CHUNK numbers (rows of 9) at a time: the
    # values and every diagnostic are those of one whole-body parse
    ang, rad = make_grids(1.0, 5.0, 16, 3, breakpoints=[1.0, 2.0, 5.0])
    field = synthesize(_random_spectral(rad, 3, 4), ang)
    path = tmp_path / "f.vfld"
    write_vfld(path, field)
    default = read_vfld(path).values
    monkeypatch.setattr(fileio, "_CHUNK", 9 * rows)
    assert read_vfld(path).values.tobytes() == default.tobytes()

    text = path.read_text().split("\n")          # 6 header lines, then rows
    n = len(text) - 7
    second, last = rows + rows // 2, n - 1          # rows in chunk 2 and the last
    for row, edit, message in (
            (second, lambda t: t[:4] + ["x"] + t[5:], "non-numeric entry in field row"),
            (last, lambda t: t[:-1], "expected 9 numbers \\(field\\), got 8"),
            (second, lambda t: [t[0], repr(float(t[1]) + 0.1)] + t[2:],
             "node coordinates do not match")):
        bad = list(text)
        bad[6 + row] = " ".join(edit(bad[6 + row].split()))
        path.write_text("\n".join(bad))
        with pytest.raises(FileFormatError,
                           match=r"f\.vfld: line %d: %s" % (7 + row, message)):
            read_vfld(path)


def test_vfld_angular_grid_waits_for_a_whole_shell(monkeypatch, tmp_path):
    # theta and phi are checked chunk by chunk against an angular grid that
    # is built only once a whole shell of rows is read: a short file whose
    # header declares a huge shell fails at its end, without building it
    path = tmp_path / "short.vfld"
    path.write_text("vfld 1\nr0 1\nrmax 5\nnr 1\nntheta 50000\nnphi 1\n"
                    + "3 0.5 0 0 0 0 0 0 0\n" * 2)

    def refuse(*size):
        raise AssertionError("angular grid built for %r" % (size,))

    monkeypatch.setattr(fileio, "AngularGrid", refuse)
    with pytest.raises(FileFormatError, match=r"line 9: unexpected end of file"):
        read_vfld(path)


def _vshc_mode_line(text, line, k, tok):
    # text with token k of the 1-based line replaced
    return text[:line - 1] + [_with_token(text[line - 1], k, tok)] + text[line:]


# the messages and lines of the whole-body parse the chunks replaced; the
# body rows are lines 7-33: (0, 0) r psi phi, (1, -1) r psi phi, ... (2, 2)
@pytest.mark.parametrize("edit, message", [
    (lambda t: _vshc_mode_line(t, 12, 1, "0"),
     "line 12: expected '1 -1 phi' plus 32 numbers"),
    (lambda t: _vshc_mode_line(t, 20, 7, "x"),
     "line 20: non-numeric entry in coefficients for mode (2, -2) channel psi"),
    (lambda t: _vshc_mode_line(t, 25, 34, "inf"),
     "line 25: non-finite entry in coefficients for mode (2, 0) channel r"),
    (lambda t: t[:29] + [t[29].rsplit(" ", 1)[0]] + t[30:],
     "line 30: expected '2 1 phi' plus 32 numbers"),
    (lambda t: _vshc_mode_line(t, 8, 3, "1"),
     "line 8: l = 0 has no psi channel; the profile must be zero"),
    (lambda t: t[:-1],
     "line 33: unexpected end of file, expected coefficients for mode (2, 2) "
     "channel phi"),
    (lambda t: t + [t[-1]],
     "line 34: trailing data past the expected 33 rows"),
    # two faults: the first in file order is named
    (lambda t: _vshc_mode_line(_vshc_mode_line(t, 8, 3, "1"), 9, 3, "x"),
     "line 8: l = 0 has no psi channel; the profile must be zero"),
    (lambda t: _vshc_mode_line(_vshc_mode_line(t, 9, 5, "2"), 30, 3, "x"),
     "line 9: l = 0 has no phi channel; the profile must be zero"),
    (lambda t: _vshc_mode_line(_vshc_mode_line(t, 9, 5, "2"), 8, 3, "x"),
     "line 8: non-numeric entry in coefficients for mode (0, 0) channel psi"),
    (lambda t: _vshc_mode_line(_vshc_mode_line(t, 8, 3, "1"), 7, 0, "1"),
     "line 7: expected '0 0 r' plus 32 numbers"),
])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_vshc_chunks_keep_every_bit_and_line(monkeypatch, tmp_path, rows,
                                             edit, message):
    # the body is parsed _CHUNK numbers (rows of 32) at a time, the
    # default being one chunk: the coefficients and every diagnostic are
    # those of one whole-body parse, blank lines skipped
    _, rad = make_grids(1.0, 5.0, 16, 2)
    S = _random_spectral(rad, 2, 6)
    path = tmp_path / "c.vshc"
    write_vshc(path, S)
    if rows is not None:
        monkeypatch.setattr(fileio, "_CHUNK", 32 * rows)
    assert read_vshc(path).coeffs.tobytes() == S.coeffs.tobytes()
    text = path.read_text().split("\n")[:-1]
    assert len(text) == 33
    path.write_text("\n".join(text[:10] + ["", " "] + text[10:]) + "\n\n")
    assert read_vshc(path).coeffs.tobytes() == S.coeffs.tobytes()

    path.write_text("\n".join(edit(text)) + "\n")
    with pytest.raises(FileFormatError) as err:
        read_vshc(path)
    assert str(err.value) == "%s: %s" % (path, message)


@pytest.mark.parametrize("header, line, message", [
    (["kind annulus", "r0 1", "r1 0.5"], 4, "annulus needs r1 > r0"),
    (["kind exterior", "r0 2", "rsup 2"], 4,
     "exterior needs a support radius R_sup > r0"),
    (["kind disk", "r0 -1"], 3, "r0 must be positive, got -1.0"),
    (["kind square", "r0 1"], 2, "kind must be disk, exterior, or annulus"),
])
def test_pfld_geometry_refused_at_its_header_line(tmp_path, header, line,
                                                  message):
    path = tmp_path / "g.pfld"
    path.write_text("\n".join(["pfld 1"] + header + ["nrho 8", "nphi 3"]))
    with pytest.raises(FileFormatError) as err:
        read_polar(path)
    assert str(err.value) == "%s: line %d: %s" % (path, line, message)


@pytest.mark.parametrize("name, text, message", [
    ("key.vfld", "vfld 1\nr0 1\nrmax 5\nnr 4\nnphi 3\n",
     "line 5: expected 'ntheta <value>', got 'nphi 3'"),
    ("int.vfld", "vfld 1\nr0 1\nrmax 5\nnr 4.5\n", "line 4: nr is not an integer: '4.5'"),
    ("size.vfld", "vfld 1\nr0 1\nrmax 5\nnr 4\nntheta 0\nnphi 3\n",
     "line 6: grid sizes must be positive"),
    ("size.pfld", "pfld 1\nkind disk\nr0 1\nnrho 8\nnphi -1\n",
     "line 5: grid sizes must be positive"),
    ("nr.vshc", "vshc 1\nr0 1\nrmax 5\nnr 0\nlmax 2\n",
     "line 5: nr must be positive and lmax nonnegative"),
    ("lmax.vshc", "vshc 1\nr0 1\nrmax 5\nnr 4\nlmax -1\n",
     "line 5: nr must be positive and lmax nonnegative"),
])
def test_header_errors_name_their_line(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    read = {"vfld": read_vfld, "vshc": read_vshc, "pfld": read_polar}[path.suffix[1:]]
    with pytest.raises(FileFormatError) as err:
        read(path)
    assert str(err.value) == "%s: %s" % (path, message)


def test_vshc_grid_refused_at_its_node_line(tmp_path):
    # the nodes are a Gauss-Legendre rule on [-1, 1], which RadialGrid
    # refuses
    nodes = np.polynomial.legendre.leggauss(4)[0]
    path = tmp_path / "neg.vshc"
    path.write_text("vshc 1\nr0 -1\nrmax 1\nnr 4\nlmax 0\n%s\n"
                    % " ".join(map(str, nodes.tolist())))
    with pytest.raises(FileFormatError) as err:
        read_vshc(path)
    assert str(err.value) == ("%s: line 6: inner radius must be nonnegative"
                              % path)


def _header_too_large(tmp_path, ext, size):
    """A file whose header declares a size that cannot be allocated."""
    if ext == "vshc":
        nodes = 3.0 + 2.0 * np.polynomial.legendre.leggauss(4)[0]
        text = ("vshc 1\nr0 1\nrmax 5\nnr 4\nlmax %d\n%s\n"
                % (size, " ".join(map(repr, nodes.tolist()))))
        line, n, count = 5, 3 * (size + 1) ** 2, 8
    elif ext == "vfld":
        text = ("vfld 1\nr0 1\nrmax 5\nnr 1\nntheta 100000\nnphi %d\n"
                "1 0 0 0 0 0 0 0 0\n" % size)
        line, n, count = 6, 100000 * size, 9
    else:
        text = "pfld 1\nkind disk\nr0 1\nnrho %d\nnphi %d\n" % (size, size)
        line, n, count = 5, size * size, 4
    path = tmp_path / ("big." + ext)
    path.write_text(text)
    return path, "%s: line %d: the declared %d rows of %d numbers are too " \
        "many to allocate" % (path, line, n, count)


# sizes past the address space (MemoryError) and past numpy's (ValueError)
@pytest.mark.parametrize("ext, size", [("vshc", 1000000), ("vshc", 10 ** 12),
                                       ("vfld", 4000000000), ("pfld", 10 ** 10)])
def test_header_too_large_to_allocate_names_its_line(tmp_path, ext, size):
    path, message = _header_too_large(tmp_path, ext, size)
    read = {"vshc": read_vshc, "vfld": read_vfld, "pfld": read_polar}[ext]
    with pytest.raises(FileFormatError) as err:
        read(path)
    assert str(err.value) == message


############################################
# Memory


def test_vfld_io_memory_is_bounded_by_the_field(tmp_path):
    # streamed text parsed in chunks straight into the field: no whole-file
    # string, token list or second table of the values, and of the node
    # coordinates only r (a sixth of the field); the read peaks at 1.54
    ang, rad = make_grids(1.0, 5.0, 64, 16)
    field = synthesize(_random_spectral(rad, 16, 12), ang)
    path = tmp_path / "big.vfld"
    write_peak = traced_peak(lambda: write_vfld(path, field))[1]
    back, read_peak = traced_peak(lambda: read_vfld(path))
    size = field.values.nbytes
    assert write_peak <= 2.0 * size
    assert read_peak <= 1.6 * size
    assert np.array_equal(back.values, field.values)


def test_vfld_read_from_a_pipe_holds_what_a_file_read_holds(tmp_path):
    # each line is read once, so a pipe is not copied into memory first
    ang, rad = make_grids(1.0, 5.0, 64, 8)
    path = tmp_path / "f.vfld"
    write_vfld(path, synthesize(_random_spectral(rad, 8, 13), ang))
    code = ("import sys, tracemalloc\n"
            "from divcurl.fileio import read_vfld\n"
            "tracemalloc.start()\n"
            "read_vfld(sys.argv[1])\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)

    def peak(arg, stdin):
        proc = subprocess.run([sys.executable, "-c", code, arg], input=stdin,
                              capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert peak("/dev/stdin", path.read_bytes()) <= 1.1 * peak(str(path), None)
