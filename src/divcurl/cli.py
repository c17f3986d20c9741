"""
Command-line front-end: scriptable subcommands over the text formats.

    divcurl analyze    IN.vfld  [--lmax L] [--out OUT.vshc]
    divcurl synthesize IN.vshc  [--out OUT.vfld]
    divcurl check      IN.vshc  [--out FILE]
    divcurl solve      IN.vshc  [--vinf x,y,z] [--tol t]
                                [--partial-slip L] [--out OUT.vshc]
    divcurl phf        --l L --m M [--r0 --rmax --nr --lmax] [--out]
    divcurl verify     IN.vshc  [--out FILE]
    divcurl biot       IN.vfld  --points FILE [--out FILE]
    divcurl moments2d  IN.pfld  [--kmax K] [--out FILE]
    divcurl selftest   [--out FILE]

Data goes to --out when given, else to stdout; `check` and `verify`
print to stdout and also write --out.  Diagnostics (boundary traces,
solver warnings) go to stderr so piped output stays clean.  All numbers
are printed at full double precision, `%.17g`, and every listing is
ordered deterministically (l ascending, m ascending, channels r, psi,
phi), so repeated runs with the same inputs are byte-identical.

Exit codes: 0 success, 1 operational failure (incompatible data, a biot point
too near a live source node, missing file), 2 malformed input file.
"""

import argparse
import sys

import numpy as np

from .biotsavart import ProximityError, biot_savart_eval
from .fileio import (FileFormatError, _dump, open_vfld, read_points,
                     read_polar, read_vfld, read_vshc, write_eval_table,
                     write_vfld_blocks, write_vshc)
from .grids import AngularGrid, make_grids
from .planar import PlanarGeometry, PolarGrid, laplacian_ridge, planar_moments
from .pseudoharmonic import (curl_curl_source, matched_flow_source, phf_field,
                             verify_pseudoharmonic)
from .solver import (DEFAULT_TOL, IncompatibilityError, boundary_trace,
                     check_compatibility, partial_slip_project, solve_exterior)
from .transform import (SpectralField, analyze, block_nodes, mode_index, spectral_curl,
                        spectral_div, synthesize, synthesize_blocks)

__all__ = ["main", "build_parser"]


def _parse_vinf(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--vinf wants three comma-separated numbers, "
                         "e.g. 0,0,1")
    return np.array([float(p) for p in parts])


def _out_or_stdout(args):
    return args.out if args.out is not None else sys.stdout


############################################
# Subcommands


def cmd_analyze(args):
    with open_vfld(args.input) as field:
        _, n_theta, n_phi = field.shape
        L = (args.lmax if args.lmax is not None
             else min(n_theta - 1, (n_phi - 1) // 2))
        S = analyze(field, L)
    write_vshc(_out_or_stdout(args), S)


def cmd_synthesize(args):
    S = read_vshc(args.input)
    angular = AngularGrid(S.L_max + 1, 2 * S.L_max + 1)
    step = block_nodes(S.radial.n_r, S.L_max, angular.n_theta, angular.n_phi)
    write_vfld_blocks(_out_or_stdout(args), S.radial, angular,
                      synthesize_blocks(S, angular, step))


def cmd_check(args):
    table = check_compatibility(read_vshc(args.input)).as_table()
    sys.stdout.write(table)
    if args.out is not None:
        _dump(table, args.out)


def cmd_solve(args):
    f = read_vshc(args.input)
    far = None if args.vinf is None else _parse_vinf(args.vinf)
    if args.partial_slip is not None:
        f = partial_slip_project(f, args.partial_slip, far)
    try:
        V = solve_exterior(f, far, tol=args.tol)
    except IncompatibilityError as e:
        if e.residual_name != "moment":
            advice = "--partial-slip projects only moments and cannot remove it"
        elif args.partial_slip is None:
            advice = "rerun with --partial-slip to project it out"
        else:
            advice = "rerun with --partial-slip %d to project it out" % e.mode[0]
        print("incompatible data: %s residual %.17g at mode (l=%d, m=%d); %s"
              % (e.residual_name, e.scaled_residual, *e.mode, advice),
              file=sys.stderr)
        return 1
    trace = boundary_trace(V)
    print("boundary trace at r0: %.17g" % trace.aggregate, file=sys.stderr)
    write_vshc(_out_or_stdout(args), V)


def cmd_phf(args):
    _, radial = make_grids(args.r0, args.rmax, args.nr, args.lmax)
    S = phf_field(args.l, args.m, radial, args.lmax)
    rep = verify_pseudoharmonic(S)
    print("curl-curl residual %.17g (curl norm %.17g)"
          % (rep.residual, rep.curl_norm), file=sys.stderr)
    write_vshc(_out_or_stdout(args), S)


def cmd_verify(args):
    rep = verify_pseudoharmonic(read_vshc(args.input))
    lines = ["residual %.17g" % rep.residual,
             "curl_norm %.17g" % rep.curl_norm,
             "degenerate %s" % ("yes" if rep.degenerate else "no")]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _dump(text, args.out)


def cmd_biot(args):
    # the call takes the only reference, so the field goes once the sources are built
    field = [read_vfld(args.input)]
    pts = read_points(args.points)
    values = biot_savart_eval(field.pop(), pts)
    write_eval_table(_out_or_stdout(args), pts, values)


def cmd_moments2d(args):
    samples, grid = read_polar(args.input)
    table = planar_moments(samples, grid, args.kmax)
    lines = ["k\tre\tim"]
    lines += ["%d\t%.17g\t%.17g" % (k, table[k].real, table[k].imag)
              for k in sorted(table)]
    _dump("\n".join(lines) + "\n", _out_or_stdout(args))


############################################
# Self test


def _selftest_checks():
    """Yield (name, value, bound) for the core invariants at small scale."""
    rng = np.random.default_rng(0)
    ang, rad = make_grids(1.0, 5.0, 64, 6)

    # transform round trip
    shape = (49, 3, rad.n_r)
    S = SpectralField(rad, 6, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    R = analyze(synthesize(S, ang), 6)
    yield ("transform round trip",
           np.abs(R.coeffs - S.coeffs).max() / np.abs(S.coeffs).max(), 1e-12)

    # discrete div(curl) on smooth data
    bump = np.clip((rad.r - 1.5) * (3.5 - rad.r), 0.0, None) ** 3
    T = SpectralField(rad, 6, S.coeffs * bump)
    dc = spectral_div(spectral_curl(T))
    yield "div of curl", np.abs(dc.coeffs).max(), 1e-9

    # pseudo-harmonic family on the wide two-panel layout
    _, rad2 = make_grids(1.0, 5.0, 64, 6,
                         breakpoints=[1.0, np.sqrt(5.0), 5.0])
    worst = 0.0
    for l in range(1, 5):
        for m in range(-l, l + 1):
            rep = verify_pseudoharmonic(phf_field(l, m, rad2, 6))
            worst = max(worst, rep.residual)
    yield "pseudo-harmonic curl-curl", worst, 1e-9

    # manufactured recovery, the bump's support edges on panel breakpoints
    _, rad3 = make_grids(1.0, 5.0, 64, 6, breakpoints=[1, 2, 3, 4, 5])
    f, V = curl_curl_source(rad3, 6, rng)
    W = solve_exterior(f)
    yield ("manufactured recovery",
           np.abs(W.coeffs - V.coeffs).max() / np.abs(V.coeffs).max(), 1e-8)
    yield "solution divergence", np.abs(spectral_div(W).coeffs).max(), 1e-13

    # uniform flow: the solution sticks to the wall and is zhat beyond the support
    zhat = np.array([0.0, 0.0, 1.0])
    U = solve_exterior(matched_flow_source(rad3, 6, zhat), zhat)
    far_r = U.coeffs[mode_index(1, 0), 0, -1] / np.sqrt(4.0 * np.pi / 3.0)
    yield "uniform-flow wall trace", boundary_trace(U).aggregate, 1e-11
    yield "uniform-flow far value", abs(far_r - 1.0), 1e-13

    # planar moments of a Laplacian
    g = PolarGrid(PlanarGeometry("disk", 2.0), 64, 33, breakpoints=[0.0, 0.4, 1.0, 1.6, 2.0])
    mom = planar_moments(laplacian_ridge(g, 0.4, 1.2, 2), g, 8)
    yield "planar Laplacian moments", max(abs(v) for v in mom.values()), 1e-11


def cmd_selftest(args):
    rows = []
    failed = False
    for name, value, bound in _selftest_checks():
        ok = np.isfinite(value) and value <= bound
        failed = failed or not ok
        rows.append((name, value, bound, "PASS" if ok else "FAIL"))
    width = max(len(r[0]) for r in rows)
    _dump("".join("%-*s  %12.5e  (bound %8.1e)  %s\n" % (width, *row)
                  for row in rows), _out_or_stdout(args))
    return 1 if failed else 0


############################################
# Parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="divcurl",
        description="Exterior divergence-curl problems outside a sphere: "
                    "transforms, solvability checks, the explicit solver, "
                    "and independent cross-checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, with_input=True):
        q = sub.add_parser(name, help=help_text)
        q.set_defaults(func=func)
        if with_input:
            q.add_argument("input", help="input file")
        q.add_argument("--out", default=None, help="output path (default: stdout)")
        return q

    q = add("analyze", "vector field file to spectral coefficients", cmd_analyze)
    q.add_argument("--lmax", type=int, default=None,
                   help="band limit (default: what the grid supports)")

    add("synthesize", "spectral coefficients to a sampled field", cmd_synthesize)
    add("check", "solvability residual table for a source field", cmd_check)

    q = add("solve", "solve curl v = f, div v = 0 outside the sphere", cmd_solve)
    q.add_argument("--vinf", default=None, metavar="X,Y,Z",
                   help="uniform flow at infinity (default: decay to zero)")
    q.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="warning threshold for solvability residuals")
    q.add_argument("--partial-slip", type=int, default=None, metavar="L",
                   help="project the moment obstruction out of degrees <= L")

    q = add("phf", "generate a pseudo-harmonic family member", cmd_phf, with_input=False)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r0", type=float, default=1.0)
    q.add_argument("--rmax", type=float, default=5.0)
    q.add_argument("--nr", type=int, default=64)
    q.add_argument("--lmax", type=int, default=8)

    add("verify", "pseudo-harmonicity report for a coefficient file", cmd_verify)
    q = add("biot", "direct Biot-Savart evaluation at listed points", cmd_biot)
    q.add_argument("--points", required=True, help="text file of x y z rows")

    q = add("moments2d", "planar moment table of a polar scalar file", cmd_moments2d)
    q.add_argument("--kmax", type=int, default=8)
    add("selftest", "run the built-in invariant suite", cmd_selftest, with_input=False)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except FileFormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ProximityError, IncompatibilityError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
