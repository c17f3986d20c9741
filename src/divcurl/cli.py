"""
Command-line front-end: scriptable subcommands over the text formats.

    divcurl analyze    IN.vfld  [--lmax L] [--out OUT.vshc]
    divcurl synthesize IN.vshc  [--out OUT.vfld]
    divcurl check      IN.vshc  [--out FILE]
    divcurl solve      IN.vshc  [--vinf x,y,z] [--tol t]
                                [--partial-slip L] [--out OUT.vshc]
    divcurl phf        --l L --m M [--r0 --rmax --nr --lmax] [--out]
    divcurl verify     IN.vshc  [--out FILE]
    divcurl biot       IN.vfld  --points FILE [--threads n] [--out FILE]
    divcurl moments2d  IN.pfld  [--geometry KIND] [--kmax K] [--out FILE]
    divcurl selftest   [--out FILE]

Data goes to --out when given, else to stdout; `check` and `verify`
print to stdout and also write --out.  Diagnostics (boundary traces,
solver warnings) go to stderr so piped output stays clean.  All numbers
are printed at full double precision, `%.17g`, and every listing is
ordered deterministically (l ascending, m ascending, channels r, psi,
phi), so repeated runs with the same inputs are byte-identical.

Exit codes: 0 success, 1 operational failure (incompatible data, point
too close to a source node, missing file), 2 malformed input file.
`--threads` (default 1) fans the Biot-Savart sum out over worker
threads.  The points are cut into fixed blocks of 64 at the same offsets
for every thread count, and each block is summed whole by one worker, so
the output is byte-identical for any `--threads`.
"""

import argparse
import sys

import numpy as np

from .biotsavart import ProximityError, biot_savart_eval
from .fileio import (FileFormatError, _dump, read_points, read_polar,
                     read_vfld, read_vshc, write_eval_table, write_vfld,
                     write_vshc)
from .grids import AngularGrid, make_grids
from .planar import planar_moments
from .pseudoharmonic import phf_field, verify_pseudoharmonic
from .solver import (DEFAULT_TOL, IncompatibilityError, boundary_trace,
                     check_compatibility, partial_slip_project, solve_exterior)
from .transform import analyze, synthesize

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
    field = read_vfld(args.input)
    ang = field.angular
    L = (args.lmax if args.lmax is not None
         else min(ang.n_theta - 1, (ang.n_phi - 1) // 2))
    write_vshc(_out_or_stdout(args), analyze(field, L))


def cmd_synthesize(args):
    S = read_vshc(args.input)
    angular = AngularGrid(S.L_max + 1, 2 * S.L_max + 1)
    write_vfld(_out_or_stdout(args), synthesize(S, angular))


def cmd_check(args):
    table = check_compatibility(read_vshc(args.input)).as_table()
    sys.stdout.write(table)
    if args.out is not None:
        _dump(table, args.out)


def cmd_solve(args):
    f = read_vshc(args.input)
    if args.partial_slip is not None:
        f = partial_slip_project(f, args.partial_slip)
    far = None if args.vinf is None else _parse_vinf(args.vinf)
    try:
        V = solve_exterior(f, far, tol=args.tol)
    except IncompatibilityError as e:
        print("incompatible data: %s residual %.17g at mode (l=%d, m=%d); "
              "rerun with --partial-slip to project it out"
              % (e.residual_name, e.scaled_residual, *e.mode),
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
    field = read_vfld(args.input)
    pts = read_points(args.points)
    values = biot_savart_eval(field, pts, threads=args.threads)
    write_eval_table(_out_or_stdout(args), pts, values)


def cmd_moments2d(args):
    samples, grid, geom = read_polar(args.input)
    if args.geometry is not None and args.geometry != geom.kind:
        raise ValueError("geometry mismatch: file holds %r data, --geometry "
                         "says %r" % (geom.kind, args.geometry))
    table = planar_moments(samples, grid, geom, args.kmax)
    lines = ["k\tre\tim"]
    lines += ["%d\t%.17g\t%.17g" % (k, table[k].real, table[k].imag)
              for k in sorted(table)]
    _dump("\n".join(lines) + "\n", _out_or_stdout(args))


############################################
# Self test


def _selftest_checks():
    """Yield (name, value, bound) for the core invariants at small scale."""
    from .transform import (SpectralField, mode_index, spectral_curl,
                            spectral_div)

    rng = np.random.default_rng(0)
    ang, rad = make_grids(1.0, 5.0, 64, 6)

    # transform round trip
    S = SpectralField(rad, 6)
    S.coeffs[:] = (rng.standard_normal(S.coeffs.shape)
                   + 1j * rng.standard_normal(S.coeffs.shape))
    S.coeffs[0, 1:] = 0.0
    R = analyze(synthesize(S, ang), 6)
    yield ("transform round trip",
           np.abs(R.coeffs - S.coeffs).max() / np.abs(S.coeffs).max(), 1e-11)

    # discrete div(curl) on smooth data
    r = rad.r
    bump = np.clip((r - 1.5) * (3.5 - r), 0.0, None) ** 3
    T = SpectralField(rad, 6)
    T.coeffs[:] = S.coeffs * bump
    T.coeffs[0, 1:] = 0.0
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

    # manufactured recovery: random per-mode amplitudes on a fixed smooth
    # bump whose support edges sit on panel breakpoints, so the discrete
    # moments of curl(curl A) vanish to rounding
    _, rad3 = make_grids(1.0, 5.0, 64, 6, breakpoints=[1, 2, 3, 4, 5])
    r3 = rad3.r
    bump3 = np.clip((r3 - 2.0) * (4.0 - r3), 0.0, None) ** 3
    A = SpectralField(rad3, 6)
    amp = (1.0 / 3.0) ** A.ells
    scal = amp[:, None] * (rng.standard_normal((A.n_modes, 3))
                           + 1j * rng.standard_normal((A.n_modes, 3)))
    A.coeffs[:] = scal[:, :, None] * bump3[None, None, :]
    A.coeffs[0, 1:] = 0.0
    V = spectral_curl(A)
    W = solve_exterior(spectral_curl(V))
    yield ("manufactured recovery",
           np.abs(W.coeffs - V.coeffs).max() / np.abs(V.coeffs).max(), 1e-8)
    yield "solution divergence", np.abs(spectral_div(W).coeffs).max(), 1e-9

    # uniform flow: two radial bumps in the (1,0) Phi channel tuned so the
    # moment equals the no-slip requirement and the interior multipole
    # vanishes; the solution then sticks to the wall and is exactly the
    # uniform flow beyond the support
    c10 = np.sqrt(4.0 * np.pi / 3.0)
    g1 = np.clip((r3 - 2.0) * (3.0 - r3), 0.0, None) ** 3
    g2 = np.clip((r3 - 3.0) * (4.0 - r3), 0.0, None) ** 3
    mat = np.array([[rad3.integrate(g1), rad3.integrate(g2)],
                    [rad3.integrate(r3 ** 3 * g1), rad3.integrate(r3 ** 3 * g2)]])
    ab = np.linalg.solve(mat, [1.5 * c10, 0.0])
    F = SpectralField(rad3, 6)
    F.coeffs[mode_index(1, 0), 2] = ab[0] * g1 + ab[1] * g2
    U = solve_exterior(F, np.array([0.0, 0.0, 1.0]))
    far_r = U.coeffs[mode_index(1, 0), 0, -1] / c10
    yield "uniform-flow wall trace", boundary_trace(U).aggregate, 1e-10
    yield "uniform-flow far value", abs(far_r - 1.0), 1e-3

    # planar moments of a Laplacian
    from .planar import PlanarGeometry
    geom = PlanarGeometry("disk", 2.0)
    g = geom.grid(64, 33, breakpoints=[0.0, 0.4, 1.0, 1.6, 2.0])
    rho = g.rho
    inside = (rho > 0.4) & (rho < 1.6)
    u = (rho[inside] - 0.4) / 1.2
    s = 4.0 * u * (1.0 - u)
    ds = 4.0 * (1.0 - 2.0 * u) / 1.2
    d2s = -8.0 / 1.2 ** 2
    p = np.zeros_like(rho)
    dp = np.zeros_like(rho)
    d2p = np.zeros_like(rho)
    p[inside] = s ** 4
    dp[inside] = 4.0 * s ** 3 * ds
    d2p[inside] = 12.0 * s ** 2 * ds ** 2 + 4.0 * s ** 3 * d2s
    lap = ((d2p + dp / rho - 4.0 * p / rho ** 2)[:, None]
           * np.cos(2.0 * g.phi)[None, :]).astype(complex)
    mom = planar_moments(lap, g, geom, 8)
    yield "planar Laplacian moments", max(abs(v) for v in mom.values()), 1e-10


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

    def add(name, help_text, with_input=True):
        q = sub.add_parser(name, help=help_text)
        if with_input:
            q.add_argument("input", help="input file")
        q.add_argument("--out", default=None, help="output path (default: stdout)")
        return q

    q = add("analyze", "vector field file to spectral coefficients")
    q.add_argument("--lmax", type=int, default=None,
                   help="band limit (default: what the grid supports)")
    q.set_defaults(func=cmd_analyze)

    q = add("synthesize", "spectral coefficients to a sampled field")
    q.set_defaults(func=cmd_synthesize)

    q = add("check", "solvability residual table for a source field")
    q.set_defaults(func=cmd_check)

    q = add("solve", "solve curl v = f, div v = 0 outside the sphere")
    q.add_argument("--vinf", default=None, metavar="X,Y,Z",
                   help="uniform flow at infinity (default: decay to zero)")
    q.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="warning threshold for solvability residuals")
    q.add_argument("--partial-slip", type=int, default=None, metavar="L",
                   help="project the moment obstruction out of degrees <= L")
    q.set_defaults(func=cmd_solve)

    q = add("phf", "generate a pseudo-harmonic family member", with_input=False)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r0", type=float, default=1.0)
    q.add_argument("--rmax", type=float, default=5.0)
    q.add_argument("--nr", type=int, default=64)
    q.add_argument("--lmax", type=int, default=8)
    q.set_defaults(func=cmd_phf)

    q = add("verify", "pseudo-harmonicity report for a coefficient file")
    q.set_defaults(func=cmd_verify)

    q = add("biot", "direct Biot-Savart evaluation at listed points")
    q.add_argument("--points", required=True, help="text file of x y z rows")
    q.add_argument("--threads", type=int, default=1,
                   help="worker threads over blocks of points (default 1)")
    q.set_defaults(func=cmd_biot)

    q = add("moments2d", "planar moment table of a polar scalar file")
    q.add_argument("--geometry", choices=("disk", "exterior", "annulus"),
                   default=None, help="required geometry kind (consistency check)")
    q.add_argument("--kmax", type=int, default=8)
    q.set_defaults(func=cmd_moments2d)

    q = add("selftest", "run the built-in invariant suite", with_input=False)
    q.set_defaults(func=cmd_selftest)
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
