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
from divcurl.fileio import (FileFormatError, read_vfld, read_vshc, write_polar,
                            write_points, write_vfld, write_vfld_blocks,
                            write_vshc)
from divcurl.grids import AngularGrid, RadialGrid, SampledField, make_grids
from divcurl.planar import PlanarGeometry, PolarGrid, planar_moments
from divcurl.pseudoharmonic import curl_curl_source, matched_flow_source, two_bump_source
from divcurl.transform import (SpectralField, analyze, block_nodes, mode_index,
                               synthesize, synthesize_blocks)
from fixtures import SQRT_4PI_3, support_grids, traced_peak


def _zhat_field(n_r=16, L=4):
    """Constant z-directed unit field sampled in the spherical frame."""
    ang, rad = make_grids(1.0, 5.0, n_r, L)
    v = np.zeros((n_r, ang.n_theta, ang.n_phi, 3), dtype=complex)
    v[:, :, :, 0] = np.cos(ang.theta)[None, :, None]
    v[:, :, :, 1] = -np.sin(ang.theta)[None, :, None]
    return SampledField(rad, ang, v)


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


def test_analyze_lmax_beyond_the_grid_exits_1_before_allocating(tmp_path):
    # the band limit is checked before the 3.5 TiB of coefficients that
    # --lmax 100000 asks for; a 1 GiB address-space cap makes the child
    # fail, not the host, if the check came after the allocation
    src = tmp_path / "z.vfld"
    write_vfld(src, _zhat_field(8, 2))
    code = ("import resource, sys\n"
            "from divcurl.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, "analyze", str(src),
                           "--lmax", "100000"], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src_dir))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: angular grid (3 x 5) cannot resolve")
    assert "Traceback" not in proc.stderr


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


def _tail_block_field(tmp_path, ang=None):
    """
    Random samples on 5 panels x 8 = 40 radial nodes at L = 4, so the CLI
    works in blocks of 16 + 16 + 8 nodes; ang defaults to the (5, 9) grid.
    Writes and returns the path of the .vfld file.
    """
    default, rad = make_grids(1.0, 5.0, 40, 4, breakpoints=np.linspace(1.0, 5.0, 6))
    ang = ang or default
    assert block_nodes(rad.n_r, 4, default.n_theta, default.n_phi) == 16
    shape = (rad.n_r, ang.n_theta, ang.n_phi, 3)
    rng = np.random.default_rng(41)
    path = tmp_path / "tail.vfld"
    write_vfld(path, SampledField(rad, ang, rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape)))
    return path


@pytest.mark.parametrize("wide", [False, True])
def test_blocks_keep_the_bits_of_the_whole_field(tmp_path, wide):
    # the CLI reads, projects, makes and writes 16 + 16 + 8 radial nodes at
    # a time; its files equal the library's whole-field round trip byte for
    # byte.  On a grid wider than 2L + 1 the phi bins of no order must read
    # zero in every synthesized block, not what the last block left there
    src = _tail_block_field(tmp_path, AngularGrid(7, 13) if wide else None)
    coeffs, back = tmp_path / "tail.vshc", tmp_path / "back.vfld"
    assert main(["analyze", str(src), "--lmax", "4", "--out", str(coeffs)]) == 0
    assert main(["synthesize", str(coeffs), "--out", str(back)]) == 0
    write_vshc(tmp_path / "lib.vshc", analyze(read_vfld(src), 4))
    S = read_vshc(tmp_path / "lib.vshc")         # the grid that synthesize sees
    write_vfld(tmp_path / "lib.vfld", synthesize(S, AngularGrid(5, 9)))
    assert coeffs.read_bytes() == (tmp_path / "lib.vshc").read_bytes()
    assert back.read_bytes() == (tmp_path / "lib.vfld").read_bytes()
    ang = AngularGrid(7, 13) if wide else AngularGrid(5, 9)
    write_vfld_blocks(tmp_path / "blocks.vfld", S.radial, ang, synthesize_blocks(S, ang, 16))
    write_vfld(tmp_path / "whole.vfld", synthesize(S, ang))
    assert ((tmp_path / "blocks.vfld").read_bytes()
            == (tmp_path / "whole.vfld").read_bytes())


def test_streamed_analyze_keeps_the_readers_failure_contract(tmp_path):
    # a bad row in the last radial block is found after two blocks were
    # projected: analyze through a pipe still exits 2 with read_vfld's
    # path: line N: message, and writes no output
    src = _tail_block_field(tmp_path)
    lines = src.read_text().splitlines(keepends=True)
    row = 6 + 36 * 5 * 9 + 7                        # shell 36: the last block
    lines[row] = lines[row].replace(" ", " x ", 1)
    bad = tmp_path / "bad.vfld"
    bad.write_text("".join(lines))
    with pytest.raises(FileFormatError) as err:
        read_vfld(bad)
    assert ": line %d: " % (row + 1) in str(err.value)
    out = tmp_path / "never.vshc"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    proc = subprocess.run([sys.executable, "-m", "divcurl.cli", "analyze", "/dev/stdin",
                           "--out", str(out)], input=bad.read_bytes(), capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src_dir))
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: %s\n" % str(err.value).replace(
        str(bad), "/dev/stdin")
    assert not out.exists()


def test_phf_lmax_beyond_memory_exits_1_naming_the_grid():
    # leggauss's (lmax + 1)^2 companion matrix is 74.5 GiB here; under a
    # 1 GiB address-space cap the child gets an error line, not a traceback
    code = ("import resource, sys\n"
            "from divcurl.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, "phf", "--l", "2", "--m", "1",
                           "--lmax", "100000"], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src_dir))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: angular grid (100001 x 200001) is too large\n"


############################################
# check / solve


def test_check_table_on_stdout_and_file(tmp_path, capsys):
    f, _ = curl_curl_source(support_grids(4)[1], 4, np.random.default_rng(7))
    src = tmp_path / "f.vshc"
    write_vshc(src, f)
    out = tmp_path / "report.tsv"
    assert main(["check", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text()
    header = stdout.split("\n", 1)[0].split("\t")
    assert header[:2] == ["l", "m"] and "moment_re" in header


def test_solve_compatible_source(tmp_path, capsys):
    f, V = curl_curl_source(support_grids(4)[1], 4, np.random.default_rng(7))
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
    f, _ = curl_curl_source(support_grids(4)[1], 4, np.random.default_rng(7))
    src = tmp_path / "f.vshc"
    write_vshc(src, f)
    a, b = tmp_path / "a.vshc", tmp_path / "b.vshc"
    assert main(["solve", str(src), "--out", str(a)]) == 0
    assert main(["solve", str(src), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_incompatible_exits_1_with_mode(tmp_path, capsys):
    _, rad = support_grids(4, 48)
    g1 = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
    F = SpectralField(rad, 4)
    F.set_mode(2, 1, 2, g1)                 # lone bump: nonzero moment
    src = tmp_path / "bad.vshc"
    write_vshc(src, F)
    assert main(["solve", str(src)]) == 1
    err = capsys.readouterr().err
    assert "incompatible data" in err
    assert err.startswith("incompatible data: moment residual ")
    assert err.endswith(" at mode (l=2, m=1); rerun with --partial-slip to project it out\n")


def test_solve_non_finite_source_exits_1(tmp_path, capsys, monkeypatch):
    # the readers reject NaN, so hand the solver one through the reader
    f, _ = curl_curl_source(support_grids(4)[1], 4, np.random.default_rng(7))
    f.coeffs[mode_index(2, 1), 2, 30] = np.nan
    monkeypatch.setattr("divcurl.cli.read_vshc", lambda path: f)
    out = tmp_path / "never.vshc"
    assert main(["solve", "any.vshc", "--out", str(out)]) == 1
    assert "incompatible data" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_solve_with_invalid_tol_exits_1(tmp_path, capsys, tol):
    f, _ = curl_curl_source(support_grids(4)[1], 4, np.random.default_rng(7))
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
    write_vshc(src, curl_curl_source(support_grids(2)[1], 2, np.random.default_rng(7))[0])
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
    _, rad = support_grids(4, 48)
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


def _solve_stderr(tmp_path, capsys, F, *options):
    """Exit code and stderr of `divcurl solve` on F with options."""
    src = tmp_path / "f.vshc"
    write_vshc(src, F)
    code = main(["solve", str(src), *options, "--out", str(tmp_path / "V.vshc")])
    return code, capsys.readouterr().err


def test_refusal_above_the_projected_degree_names_it(tmp_path, capsys):
    _, rad = support_grids(4, 48)
    F = SpectralField(rad, 4)
    F.set_mode(3, 1, 2, np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3)
    code, err = _solve_stderr(tmp_path, capsys, F, "--partial-slip", "2")
    assert code == 1
    assert err.endswith(" at mode (l=3, m=1); rerun with --partial-slip 3 to project it out\n")
    assert _solve_stderr(tmp_path, capsys, F, "--partial-slip", "3")[0] == 0


@pytest.mark.parametrize("options", [(), ("--partial-slip", "4")])
def test_refusal_the_projection_cannot_mend_says_so(tmp_path, capsys, options):
    # f_r at the wall: the projection touches only the Phi-channel moments
    _, rad = support_grids(4, 48)
    F = SpectralField(rad, 4)
    F.set_mode(2, 0, 0, np.clip(4.0 - rad.r, 0.0, None) ** 3)
    code, err = _solve_stderr(tmp_path, capsys, F, *options)
    assert code == 1
    assert err.startswith("incompatible data: ") and "moment residual" not in err
    assert err.endswith(" at mode (l=2, m=0); --partial-slip projects only moments "
                        "and cannot remove it\n")


def test_partial_slip_under_a_uniform_flow(tmp_path, capsys):
    # the projection meets the moments the uniform flow needs, so the
    # solution sticks to the wall (the benchmark's 8 panels of 16 nodes)
    _, rad = make_grids(1.0, 5.0, 128, 3, breakpoints=np.linspace(1.0, 5.0, 9))
    F = SpectralField(rad, 3)
    F.set_mode(2, 1, 2, np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3)
    code, err = _solve_stderr(tmp_path, capsys, F, "--vinf", "1,2,0", "--partial-slip", "3")
    assert code == 0, err
    trace = float(err.split("boundary trace at r0: ")[1])
    assert trace <= 1e-12 * np.sqrt(5.0)


@pytest.mark.filterwarnings("error")
def test_unrepresentable_solution_exits_1_before_the_gate(tmp_path, capsys):
    # at 2^-66 length units the moments from l = 16 read nan: check reports
    # them without a warning, and solve names the degree and the grid
    # instead of advising a projection
    rad = RadialGrid(2.0 ** -66 * np.linspace(1.0, 5.0, 5), 32)
    F, _ = curl_curl_source(rad, 24, np.random.default_rng(7))
    write_vshc(tmp_path / "f.vshc", F)
    assert main(["check", str(tmp_path / "f.vshc")]) == 0
    assert capsys.readouterr().err == ""
    code, err = _solve_stderr(tmp_path, capsys, F)
    assert code == 1
    assert err == ("error: the moment of degree l = 16 is not finite on RadialGrid([1.35525e-20, "
                   "6.77626e-20], 4 panels x 32 nodes); the solution cannot be represented\n")
    assert "--partial-slip" not in err
    assert not (tmp_path / "V.vshc").exists()


def test_solution_whose_powers_of_r_overflow_exits_0(tmp_path, capsys):
    # at 1e40 length units r^(l+2) leaves the float range at l = 6; the solve
    # forms only ratios of radii and writes a finite solution
    lam = 1e40
    _, rad = make_grids(lam, 5.0 * lam, 64, 6, breakpoints=lam * np.linspace(1, 5, 5))
    F = SpectralField(rad, 6)
    F.set_mode(6, 0, 2, np.clip((rad.r / lam - 2.0) * (4.0 - rad.r / lam), 0.0, None) ** 3)
    code, err = _solve_stderr(tmp_path, capsys, F)
    assert code == 0, err
    assert np.isfinite(read_vshc(tmp_path / "V.vshc").coeffs).all()


def test_negative_partial_slip_exits_1(tmp_path, capsys):
    f, _ = curl_curl_source(support_grids(2)[1], 2, np.random.default_rng(7))
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, f)
    assert main(["solve", str(src), "--partial-slip", "-3",
                 "--out", str(sol)]) == 1
    assert "outside [0, L_max" in capsys.readouterr().err
    assert not sol.exists()


def test_solve_with_uniform_far_flow(tmp_path, capsys):
    _, rad = support_grids(2, 48)
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, matched_flow_source(rad, 2, (0.0, 0.0, 1.0)))
    assert main(["solve", str(src), "--vinf", "0,0,1",
                 "--out", str(sol)]) == 0
    err = capsys.readouterr().err
    trace = float(err.split("boundary trace at r0:")[1].split()[0])
    assert trace < 1e-10
    prof = read_vshc(sol).mode(1, 0)
    assert abs(prof[0, -1] - SQRT_4PI_3) < 1e-10


def test_solve_vinf_at_lmax_0_exits_1(tmp_path, capsys):
    # an L_max = 0 file has no l = 1 mode to carry the uniform flow
    _, rad = make_grids(1.0, 5.0, 16, 1)
    src = tmp_path / "f.vshc"
    sol = tmp_path / "sol.vshc"
    write_vshc(src, SpectralField(rad, 0))
    assert main(["solve", str(src), "--vinf", "1,0,0", "--out", str(sol)]) == 1
    assert "need L_max >= 1 to hold an l = 1 field" in capsys.readouterr().err
    assert not sol.exists()


def test_bad_vinf_exits_1(tmp_path, capsys):
    f, _ = curl_curl_source(support_grids(2)[1], 2, np.random.default_rng(7))
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
    table = tmp_path / "verify.txt"
    assert main(["verify", str(out), "--out", str(table)]) == 0
    stdout = capsys.readouterr().out
    assert table.read_text() == stdout          # --out gets the same lines
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r0, rmax", [("1e-40", "5e-40"), ("1e40", "5e40")])
def test_phf_member_beyond_the_normal_floats_exits_1(tmp_path, capsys, r0, rmax):
    # r^-9 overflows to inf, or underflows to 0: no file, and no numpy warning
    out = tmp_path / "p.vshc"
    assert main(["phf", "--l", "8", "--m", "0", "--r0", r0, "--rmax", rmax,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: r^-(l+1) at l = 8 is not a normal float on "
        "RadialGrid([%g, %g], 4 panels x 16 nodes)\n" % (float(r0), float(rmax)))
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


def test_biot_matches_library(tmp_path):
    ang, rad = make_grids(1.0, 5.0, 12, 4, breakpoints=[1.0, 1.5, 3.5, 5.0])
    v = np.zeros((12, ang.n_theta, ang.n_phi, 3), dtype=complex)
    chi = ((rad.r >= 1.5) & (rad.r <= 3.5)).astype(float)
    v[:, :, :, 0] = chi[:, None, None] * np.cos(ang.theta)[None, :, None]
    v[:, :, :, 1] = -chi[:, None, None] * np.sin(ang.theta)[None, :, None]
    field = SampledField(rad, ang, v)
    pts = np.array([[0.0, 0.0, 6.0], [0.0, 6.0, 0.0], [4.2, -4.2, 0.1]])

    src = tmp_path / "f.vfld"
    ptsfile = tmp_path / "pts.txt"
    out = tmp_path / "v.txt"
    write_vfld(src, field)
    write_points(ptsfile, pts)
    assert main(["biot", str(src), "--points", str(ptsfile),
                 "--out", str(out)]) == 0

    rows = np.loadtxt(out)
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


def test_biot_in_the_cavity_of_compatible_data(tmp_path):
    # points inside r0, the origin included, are summed like any other, and
    # compatible data leaves them field-free (5e-15 of the exterior field)
    f = two_bump_source(RadialGrid(np.linspace(1.0, 5.0, 9), 4), 4, 1.5, 2.0, 2.5,
                        np.random.default_rng(1))
    write_vfld(tmp_path / "f.vfld", synthesize(f, AngularGrid(16, 33)))
    pts = np.random.default_rng(2).standard_normal((16, 3))
    pts *= np.repeat([0.4, 4.4], 8)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    write_points(tmp_path / "p.txt", np.vstack([np.zeros(3), pts]))
    assert main(["biot", str(tmp_path / "f.vfld"), "--points", str(tmp_path / "p.txt"),
                 "--out", str(tmp_path / "v.txt")]) == 0
    v = np.abs(np.loadtxt(tmp_path / "v.txt")[:, 3:])
    assert v[:9].max() <= 1e-12 * v[9:].max()


def _reduced_pipeline_inputs(tmp_path):
    """
    A cli_pipeline-like source at (L, n_r) = (12, 128), Phi channels on
    [1.5, 2.5] between panel breakpoints, and 64 points beyond it.  Writes
    f.vfld and p.txt; returns the bytes of the field and of its
    coefficients, and the live (nonzero) node count, so that no array of
    them outlives the call.
    """
    ang, rad = make_grids(1.0, 5.0, 128, 12, breakpoints=np.linspace(1.0, 5.0, 9))
    rng = np.random.default_rng(24)
    S = SpectralField(rad, 12)
    bump = np.clip((rad.r - 1.5) * (2.5 - rad.r), 0.0, None) ** 3
    S.coeffs[1:, 2] = (rng.standard_normal(S.n_modes - 1) / 3.0 ** S.ells[1:])[:, None] * bump
    F = synthesize(S, ang)
    write_vfld(tmp_path / "f.vfld", F)
    pts = rng.standard_normal((64, 3))
    write_points(tmp_path / "p.txt", 4.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True))
    return F.values.nbytes, S.coeffs.nbytes, int((F.values != 0.0).any(axis=-1).sum())


def test_analyze_and_biot_hold_the_field_and_one_chunk(tmp_path):
    # each command holds its field and what it returns (the coefficients,
    # or the live sources at 80 bytes a node), plus one chunk: the text
    # of a write, or analyze's FFT buffer (a quarter of the coefficients).
    # Measured above field + output: 0.72 MB for analyze, 0.70 for biot;
    # 1.36 and 1.72 with an FFT buffer as large as the coefficients and
    # the sources joined from per-chunk lists while the field was held
    field, coeffs, live = _reduced_pipeline_inputs(tmp_path)
    f, p = str(tmp_path / "f.vfld"), str(tmp_path / "p.txt")
    commands = (["analyze", f, "--out", str(tmp_path / "f.vshc")],
                ["biot", f, "--points", p, "--out", str(tmp_path / "b.txt")])
    for args in commands:                   # lazy imports and caches first
        assert main(args) == 0
    codes, peaks = zip(*(traced_peak(lambda: main(args)) for args in commands))
    assert codes == (0, 0)
    assert peaks[0] <= field + coeffs + 1e6
    assert peaks[1] <= field + 80 * live + 1e6


def test_analyze_and_synthesize_hold_the_coefficients_and_a_block(tmp_path):
    # neither command holds a whole field beside the coefficients: analyze
    # projects the file as it reads it, 16 radial nodes at a time (a read
    # buffer and an FFT buffer of 0.25 MB each), and synthesize formats
    # each 16-node block as it is made.  Measured 2.23 and 2.02 MB against
    # bounds of 2.54 and 2.29; holding the 2.0 MB field too, 3.74 and 3.71
    field, coeffs, _ = _reduced_pipeline_inputs(tmp_path)
    block = field * 16 // 128
    f, c = str(tmp_path / "f.vfld"), str(tmp_path / "f.vshc")
    commands = (["analyze", f, "--out", c],
                ["synthesize", c, "--out", str(tmp_path / "back.vfld")])
    peaks = []
    for args in commands:
        assert main(args) == 0              # lazy imports and caches first
        code, peak = traced_peak(lambda: main(args))
        assert code == 0
        peaks.append(peak)
    assert peaks[0] <= coeffs + 2 * block + 1e6
    assert peaks[1] <= coeffs + block + 1e6


############################################
# moments2d


def test_moments2d_table(tmp_path, capsys):
    g = PolarGrid(PlanarGeometry("disk", 2.0), 16, 9)
    samples = (g.rho[:, None] ** 2 * np.exp(2j * g.phi[None, :]))
    src = tmp_path / "f.pfld"
    write_polar(src, samples, g)
    assert main(["moments2d", str(src), "--kmax", "3"]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().split("\n")
    assert lines[0] == "k\tre\tim"
    table = planar_moments(samples, g, 3)
    got = {int(s.split("\t")[0]):
           float(s.split("\t")[1]) + 1j * float(s.split("\t")[2])
           for s in lines[1:]}
    assert sorted(got) == [0, 1, 2, 3]
    for k in got:
        assert got[k] == table[k]


def test_moments2d_takes_its_geometry_from_the_file(tmp_path, capsys):
    # the .pfld header names the kind; there is no option to repeat it
    g = PolarGrid(PlanarGeometry("annulus", 1.0, r1=2.0), 16, 9)
    src = tmp_path / "f.pfld"
    write_polar(src, np.ones((16, 9)), g)
    assert main(["moments2d", str(src), "--kmax", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4     # k = -1, 0, 1
    with pytest.raises(SystemExit):
        main(["moments2d", str(src), "--geometry", "annulus"])


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
    # scipy's import alone costs a CLI process about 0.3 s of start-up, and
    # concurrent.futures (which nothing here uses) 5 to 7 ms
    code = ("import sys, divcurl.cli\n"
            "from divcurl.grids import make_grids\n"
            "from divcurl.transform import SpectralField, synthesize\n"
            "banned = ('scipy', 'concurrent')\n"
            "seen = [m for m in sys.modules if m.split('.')[0] in banned]\n"
            "ang, rad = make_grids(1.0, 5.0, 8, 2)\n"
            "synthesize(SpectralField(rad, 2), ang)\n"
            "print(seen + [m for m in sys.modules if m.split('.')[0] in banned])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(divcurl.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
