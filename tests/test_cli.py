"""
Command-line drive of the full pipeline through in-process main() calls.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import divcurl

from divcurl.biotsavart import biot_savart_eval
from divcurl.cli import main
from divcurl.fileio import (read_vfld, read_vshc, write_polar, write_points,
                            write_vfld, write_vshc)
from divcurl.grids import SampledField, make_grids
from divcurl.planar import PlanarGeometry, planar_moments
from divcurl.transform import SpectralField, mode_index, spectral_curl

SQRT_4PI_3 = 2.046653415892977


def _zhat_field(n_r=16, L=4):
    """Constant z-directed unit field sampled in the spherical frame."""
    ang, rad = make_grids(1.0, 5.0, n_r, L)
    v = np.zeros((n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    v[:, :, :, 0] = np.cos(ang.theta)[None, :, None]
    v[:, :, :, 1] = -np.sin(ang.theta)[None, :, None]
    return SampledField(rad, ang, v)


def _manufactured_source(L=4):
    """Compatible source f = curl(curl A) plus its exact solution curl A."""
    _, rad = make_grids(1.0, 5.0, 64, L, breakpoints=[1, 2, 3, 4, 5])
    bump = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    rng = np.random.default_rng(7)
    A = SpectralField(rad, L)
    amp = (1.0 / 3.0) ** A.ells
    scal = amp[:, None] * (rng.standard_normal((A.n_modes, 3))
                           + 1j * rng.standard_normal((A.n_modes, 3)))
    A.coeffs[:] = scal[:, :, None] * bump[None, None, :]
    A.coeffs[0, 1:] = 0.0
    V = spectral_curl(A)
    return spectral_curl(V), V


############################################
# analyze / synthesize


def test_analyze_constant_z_field(tmp_path, capsys):
    src = tmp_path / "z.vfld"
    out = tmp_path / "z.vshc"
    write_vfld(src, _zhat_field())
    assert main(["analyze", str(src), "--lmax", "4", "--out", str(out)]) == 0
    S = read_vshc(out)
    prof = S.mode(1, 0)
    assert np.allclose(prof[0], SQRT_4PI_3, rtol=0.0, atol=1e-12)
    assert np.allclose(prof[1], SQRT_4PI_3, rtol=0.0, atol=1e-12)
    assert np.abs(prof[2]).max() < 1e-12
    rest = S.coeffs.copy()
    rest[mode_index(1, 0)] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_analyze_zero_field_gives_zero_coeffs(tmp_path):
    ang, rad = make_grids(1.0, 5.0, 8, 2)
    src = tmp_path / "zero.vfld"
    write_vfld(src, SampledField(rad, ang,
                                 np.zeros((8, ang.n_theta, ang.n_phi, 3))))
    out = tmp_path / "zero.vshc"
    assert main(["analyze", str(src), "--out", str(out)]) == 0
    assert np.abs(read_vshc(out).coeffs).max() == 0.0


def test_analyze_negative_lmax_exits_1(tmp_path, capsys):
    src = tmp_path / "z.vfld"
    write_vfld(src, _zhat_field(8, 2))
    assert main(["analyze", str(src), "--lmax", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: L_max must be >= 0") and "Traceback" not in err


def test_truncated_input_exits_2(tmp_path, capsys):
    src = tmp_path / "cut.vfld"
    write_vfld(src, _zhat_field(8, 2))
    text = src.read_text().split("\n")
    src.write_text("\n".join(text[:20]))
    assert main(["analyze", str(src)]) == 2
    err = capsys.readouterr().err
    assert "cut.vfld" in err and "line" in err


def test_header_the_grids_refuse_exits_2(tmp_path, capsys):
    src = tmp_path / "g.pfld"
    src.write_text("pfld 1\nkind annulus\nr0 1\nr1 0.5\nnrho 8\nnphi 3\n")
    assert main(["moments2d", str(src)]) == 2
    assert "g.pfld: line 4: annulus needs r1 > r0" in capsys.readouterr().err
    src = tmp_path / "neg.vshc"
    nodes = np.polynomial.legendre.leggauss(4)[0]     # fit [-1, 1]
    src.write_text("vshc 1\nr0 -1\nrmax 1\nnr 4\nlmax 0\n%s\n"
                   % " ".join(map(str, nodes.tolist())))
    assert main(["check", str(src)]) == 2
    assert ("neg.vshc: line 6: inner radius must be nonnegative"
            in capsys.readouterr().err)


@pytest.mark.parametrize("ext, command", [("vshc", "check"),
                                          ("vfld", "analyze"),
                                          ("pfld", "moments2d")])
def test_header_too_large_to_allocate_exits_2(tmp_path, capsys, ext, command):
    from test_fileio import _header_too_large
    src, message = _header_too_large(tmp_path, ext, 1000000 if ext == "vshc"
                                     else 4000000000)
    assert main([command, str(src)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s\n" % message


def test_synthesize_round(tmp_path):
    src = tmp_path / "z.vfld"
    mid = tmp_path / "z.vshc"
    back = tmp_path / "back.vfld"
    write_vfld(src, _zhat_field())
    assert main(["analyze", str(src), "--lmax", "3", "--out", str(mid)]) == 0
    assert main(["synthesize", str(mid), "--out", str(back)]) == 0
    field = read_vfld(back)
    want = np.zeros_like(field.values)
    want[:, :, :, 0] = np.cos(field.angular.theta)[None, :, None]
    want[:, :, :, 1] = -np.sin(field.angular.theta)[None, :, None]
    assert np.abs(field.values - want).max() < 1e-12


############################################
# check / solve


def test_check_table_on_stdout_and_file(tmp_path, capsys):
    f, _ = _manufactured_source()
    src = tmp_path / "f.vshc"
    write_vshc(src, f)
    out = tmp_path / "report.tsv"
    assert main(["check", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text()
    header = stdout.split("\n", 1)[0].split("\t")
    assert header[:2] == ["l", "m"] and "moment_re" in header


def test_solve_compatible_source(tmp_path, capsys):
    f, V = _manufactured_source()
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, f)
    assert main(["solve", str(src), "--out", str(sol)]) == 0
    err = capsys.readouterr().err
    assert "boundary trace at r0:" in err
    got = read_vshc(sol)
    scale = np.abs(V.coeffs).max()
    assert np.abs(got.coeffs - V.coeffs).max() < 1e-8 * scale


def test_solve_is_byte_identical_across_runs(tmp_path):
    f, _ = _manufactured_source()
    src = tmp_path / "f.vshc"
    write_vshc(src, f)
    a, b = tmp_path / "a.vshc", tmp_path / "b.vshc"
    assert main(["solve", str(src), "--out", str(a)]) == 0
    assert main(["solve", str(src), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_incompatible_exits_1_with_mode(tmp_path, capsys):
    _, rad = make_grids(1.0, 5.0, 48, 4, breakpoints=[1, 2, 3, 4, 5])
    g1 = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    F = SpectralField(rad, 4)
    F.set_mode(2, 1, 2, g1)                 # lone bump: nonzero moment
    src = tmp_path / "bad.vshc"
    write_vshc(src, F)
    assert main(["solve", str(src)]) == 1
    err = capsys.readouterr().err
    assert "incompatible data" in err
    assert "moment" in err and "(l=2, m=1)" in err
    assert "--partial-slip" in err


def test_solve_non_finite_source_exits_1(tmp_path, capsys, monkeypatch):
    # the readers reject NaN, so hand the solver one through the reader
    f, _ = _manufactured_source()
    f.coeffs[mode_index(2, 1), 2, 30] = np.nan
    monkeypatch.setattr("divcurl.cli.read_vshc", lambda path: f)
    out = tmp_path / "never.vshc"
    assert main(["solve", "any.vshc", "--out", str(out)]) == 1
    assert "incompatible data" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_solve_with_invalid_tol_exits_1(tmp_path, capsys, tol):
    f, _ = _manufactured_source()
    src, out = tmp_path / "f.vshc", tmp_path / "never.vshc"
    write_vshc(src, f)
    assert main(["solve", str(src), "--tol", tol, "--out", str(out)]) == 1
    assert "tol must be a nonnegative number" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_input_on_a_pipe_exits_2(tmp_path):
    # a pipe is read once, line by line, and the bad line is still named
    src = tmp_path / "z.vfld"
    write_vfld(src, _zhat_field(8, 2))
    text = src.read_bytes()
    cli = [sys.executable, "-m", "divcurl.cli", "analyze", "/dev/stdin"]
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    lines = text.splitlines(keepends=True)
    cut = b"".join(lines[:20])
    lines[14] = b"0.5 " + lines[14]                     # ten numbers
    for body, line in ((cut, "line 21"), (b"".join(lines), "line 15")):
        proc = subprocess.run(cli, input=body, capture_output=True,
                              timeout=120, env=env)
        assert proc.returncode == 2, proc.stderr
        assert b"/dev/stdin: " + line.encode() in proc.stderr
    proc = subprocess.run(cli, input=text, capture_output=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == subprocess.run(
        cli[:-1] + [str(src)], capture_output=True, timeout=120,
        env=env).stdout

    # a .vshc reads through the same chunked body
    src = tmp_path / "f.vshc"
    write_vshc(src, _manufactured_source(2)[0])
    text = src.read_bytes()
    cli[-2] = "check"
    lines = text.splitlines(keepends=True)
    lines[12] = lines[12].replace(b" ", b" x ", 1)      # a stray token
    proc = subprocess.run(cli, input=b"".join(lines), capture_output=True,
                          timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert b"/dev/stdin: line 13: " in proc.stderr
    proc = subprocess.run(cli, input=text, capture_output=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == subprocess.run(
        cli[:-1] + [str(src)], capture_output=True, timeout=120,
        env=env).stdout


def test_partial_slip_recovers_solvability(tmp_path, capsys):
    _, rad = make_grids(1.0, 5.0, 48, 4, breakpoints=[1, 2, 3, 4, 5])
    g1 = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    F = SpectralField(rad, 4)
    F.set_mode(2, 1, 2, g1)
    src = tmp_path / "bad.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, F)
    assert main(["solve", str(src), "--partial-slip", "4",
                 "--out", str(sol)]) == 0
    capsys.readouterr()
    assert read_vshc(sol).coeffs.shape == (25, 3, 48)


def test_negative_partial_slip_exits_1(tmp_path, capsys):
    f, _ = _manufactured_source(2)
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, f)
    assert main(["solve", str(src), "--partial-slip", "-3",
                 "--out", str(sol)]) == 1
    assert "outside [0, L_max" in capsys.readouterr().err
    assert not sol.exists()


def test_solve_with_uniform_far_flow(tmp_path, capsys):
    _, rad = make_grids(1.0, 5.0, 48, 2, breakpoints=[1, 2, 3, 4, 5])
    r = rad.r
    g1 = np.clip((r - 2.0) * (3.0 - r), 0.0, None) ** 3
    g2 = np.clip((r - 3.0) * (4.0 - r), 0.0, None) ** 3
    mat = np.array([[rad.integrate(g1), rad.integrate(g2)],
                    [rad.integrate(r ** 3 * g1), rad.integrate(r ** 3 * g2)]])
    ab = np.linalg.solve(mat, [1.5 * SQRT_4PI_3, 0.0])
    F = SpectralField(rad, 2)
    F.set_mode(1, 0, 2, ab[0] * g1 + ab[1] * g2)
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, F)
    assert main(["solve", str(src), "--vinf", "0,0,1",
                 "--out", str(sol)]) == 0
    err = capsys.readouterr().err
    trace = float(err.split("boundary trace at r0:")[1].split()[0])
    assert trace < 1e-10
    prof = read_vshc(sol).mode(1, 0)
    assert abs(prof[0, -1] - SQRT_4PI_3) < 1e-10


def test_bad_vinf_exits_1(tmp_path, capsys):
    f, _ = _manufactured_source(2)
    src = tmp_path / "f.vshc"
    write_vshc(src, f)
    assert main(["solve", str(src), "--vinf", "1,2"]) == 1
    assert "--vinf" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["check", "no-such-file.vshc"]) == 1
    assert "error:" in capsys.readouterr().err


############################################
# phf / verify


def test_phf_then_verify(tmp_path, capsys):
    out = tmp_path / "phf.vshc"
    assert main(["phf", "--l", "2", "--m", "1", "--nr", "64",
                 "--lmax", "6", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "curl-curl residual" in err
    assert main(["verify", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = dict(s.split(" ", 1) for s in stdout.strip().split("\n"))
    assert float(lines["residual"]) < 1e-8
    assert float(lines["curl_norm"]) > 1e-3
    assert lines["degenerate"] == "no"


@pytest.mark.filterwarnings("error")
def test_phf_with_infinite_rmax_exits_1(tmp_path, capsys):
    out = tmp_path / "phf.vshc"
    assert main(["phf", "--l", "1", "--m", "0", "--rmax", "inf",
                 "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_flags_gradient_input(tmp_path, capsys):
    from divcurl.transform import ScalarSpectral, spectral_grad
    _, rad = make_grids(1.0, 5.0, 32, 3)
    s = ScalarSpectral(rad, 3)
    s.coeffs[mode_index(2, 1)] = rad.r ** 2
    src = tmp_path / "grad.vshc"
    write_vshc(src, spectral_grad(s))       # curl-free input
    assert main(["verify", str(src)]) == 0
    stdout = capsys.readouterr().out
    assert "degenerate yes" in stdout


############################################
# biot


def test_biot_matches_library_and_threads(tmp_path):
    ang, rad = make_grids(1.0, 5.0, 12, 4, breakpoints=[1.0, 1.5, 3.5, 5.0])
    v = np.zeros((12, ang.n_theta, ang.n_phi, 3), dtype=complex)
    chi = ((rad.r >= 1.5) & (rad.r <= 3.5)).astype(float)
    v[:, :, :, 0] = chi[:, None, None] * np.cos(ang.theta)[None, :, None]
    v[:, :, :, 1] = -chi[:, None, None] * np.sin(ang.theta)[None, :, None]
    field = SampledField(rad, ang, v)
    pts = np.array([[0.0, 0.0, 6.0], [0.0, 6.0, 0.0], [4.2, -4.2, 0.1]])

    src = tmp_path / "f.vfld"
    ptsfile = tmp_path / "pts.txt"
    out1 = tmp_path / "serial.txt"
    out3 = tmp_path / "threads.txt"
    write_vfld(src, field)
    write_points(ptsfile, pts)
    assert main(["biot", str(src), "--points", str(ptsfile),
                 "--out", str(out1)]) == 0
    assert main(["biot", str(src), "--points", str(ptsfile),
                 "--threads", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()

    rows = np.loadtxt(out1)
    direct = biot_savart_eval(field, pts)
    assert np.array_equal(rows[:, 3::2] + 1j * rows[:, 4::2], direct)


def test_biot_point_on_source_node_exits_1(tmp_path, capsys):
    ang, rad = make_grids(1.0, 5.0, 12, 2, breakpoints=[1.0, 1.5, 3.5, 5.0])
    v = np.ones((12, ang.n_theta, ang.n_phi, 3), dtype=complex)
    src = tmp_path / "f.vfld"
    ptsfile = tmp_path / "pts.txt"
    write_vfld(src, SampledField(rad, ang, v))
    from divcurl.frames import sph_to_cart_points
    node = sph_to_cart_points(rad.r[3], ang.theta[1], ang.phi[2])
    write_points(ptsfile, [node])
    assert main(["biot", str(src), "--points", str(ptsfile)]) == 1
    assert "error:" in capsys.readouterr().err


############################################
# moments2d


def test_moments2d_table(tmp_path, capsys):
    geom = PlanarGeometry("disk", 2.0)
    g = geom.grid(16, 9)
    samples = (g.rho[:, None] ** 2 * np.exp(2j * g.phi[None, :]))
    src = tmp_path / "f.pfld"
    write_polar(src, samples, g, geom)
    assert main(["moments2d", str(src), "--kmax", "3",
                 "--geometry", "disk"]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().split("\n")
    assert lines[0] == "k\tre\tim"
    table = planar_moments(samples, g, geom, 3)
    got = {int(s.split("\t")[0]):
           float(s.split("\t")[1]) + 1j * float(s.split("\t")[2])
           for s in lines[1:]}
    assert sorted(got) == [0, 1, 2, 3]
    for k in got:
        assert got[k] == table[k]


def test_moments2d_geometry_mismatch_exits_1(tmp_path, capsys):
    geom = PlanarGeometry("disk", 2.0)
    g = geom.grid(16, 9)
    src = tmp_path / "f.pfld"
    write_polar(src, np.ones((16, 9)), g, geom)
    assert main(["moments2d", str(src), "--kmax", "2",
                 "--geometry", "annulus"]) == 1
    assert "geometry mismatch" in capsys.readouterr().err


############################################
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout


def test_selftest_writes_its_table_to_out(tmp_path, capsys):
    code = main(["selftest"])
    table = capsys.readouterr().out
    out = tmp_path / "selftest.txt"
    assert main(["selftest", "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == table


def test_cli_processes_never_import_scipy():
    # scipy's import alone costs a CLI process about 0.3 s of start-up
    code = ("import sys, divcurl.cli\n"
            "from divcurl.grids import make_grids\n"
            "from divcurl.transform import SpectralField, synthesize\n"
            "seen = [m for m in sys.modules if m.startswith('scipy')]\n"
            "ang, rad = make_grids(1.0, 5.0, 8, 2)\n"
            "synthesize(SpectralField(rad, 2), ang)\n"
            "print(seen + [m for m in sys.modules if m.startswith('scipy')])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
