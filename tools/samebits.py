"""
Same-bits check: sha256 digests of divcurl's outputs on fixed seeded
inputs, and a comparison of two trees by them.

    python tools/samebits.py [--root DIR] [--groups G,...] [--seeds 7,3] [--out FILE]
    python tools/samebits.py --compare REV [--groups G,...] [--seeds 7,3]

The first form runs the divcurl of DIR (default: this checkout; its
`src/` and `demos/`) and writes a sorted JSON object {name: sha256} to
FILE (default: stdout).  The inputs are built by the workloads in this
checkout's `perfbench/`, so two trees see the same workload code.  Groups
(default: all):

    cli_pipeline     per seed, the benchmark's CLI flow: its input and
                     output files and each command's stdout, stderr and
                     exit code
    commands         check, verify, phf and selftest, solve clean,
                     refused, --vinf 1,2,0, --vinf 1,nan,0,
                     --partial-slip 3 and --vinf 1,2,0 --partial-slip 3,
                     and biot, on each seed's
                     cli_pipeline inputs; biot at one point exactly on
                     the last node of source.vfld where f vanishes (a
                     node of its last shell, beyond the support), which
                     adds no term to the sum; biot at 8 seeded cavity
                     points, 0.2 r0 <= |x| <= 0.9 r0, written here as
                     %.17g text; per seed, analyze and
                     synthesize across block boundaries: 40 radial nodes
                     (blocks of 16 + 16 + 8) at L = 4, on the (5, 9) grid
                     and on a wider (7, 13) one; per seed, moments2d
                     --kmax 3 of one seeded .pfld per kind (disk, annulus,
                     exterior), each file written here as %.17g text
                     rather than by write_polar, so every tree reads the
                     same bytes; per seed, check, solve and solve
                     --partial-slip 3 at the unit edges: curl_curl_source
                     data at L = 24 on 2^-66 (1 ... 5) and at L = 6 on
                     2^-100 (1 ... 5), 4 panels of 32 nodes
    solve_sweep      per seed and case: the decisions, the CompatReport
                     arrays, as_table(), worst(), the solutions W and W2
                     and the boundary trace
    transform_large  per seed, F, R, D and P of each pooled field, and
                     synthesize_at of R at 30 points near the poles
                     (colatitude 10^-k and pi - 10^-k, k = 1 ... 15) and
                     at 200 random shell points off the radial nodes
    solver           per seed, at (L, n_r) = (48, 256), many mode blocks,
                     and (2, 32), one block: a compatible source f = curl
                     curl A, its CompatReport arrays, the solution V
                     without and with a small uniform flow (which warns),
                     the projection of f plus a moment bump and its
                     solution, and the boundary traces
    demos            demos 01 to 07: each one's stdout, stderr and exit code
    demo08           demos/08_cli_pipeline.py: its files, its stdout without
                     the line naming its temporary directory, its stderr
                     and exit code
    grids            per seed and radial layout (cli_pipeline's, each
                     solve_sweep case's, and solve_sweep's at r0 = 2^-30
                     and 2^30): integrate, differentiate, at_r0 and
                     slope_at_r0 of a seeded complex stack, and
                     eval_matrix of each panel at its ends and four random
                     points, so that a changed digest names the operator;
                     a layout RadialGrid refuses records its message

`--compare REV` extracts `git archive REV` to a temporary directory, writes
the manifest of that tree and of this checkout, each in a fresh process,
and lists every name whose digest differs or that one side lacks; it exits
1 if there is any.  Digests depend on the host (BLAS kernels, numpy's SIMD
paths), so compare manifests made on one machine; none is committed.
BLAS runs one thread.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
HERE = Path(__file__).resolve().parent.parent
GROUPS = ("cli_pipeline", "commands", "solve_sweep", "transform_large", "solver",
          "demos", "demo08", "grids")

# run a demo with its temporary directory kept, so its files can be read
KEEP_TMP = """\
import runpy, sys, tempfile
class Kept:
    def __init__(self, **kw):
        self.name = tempfile.mkdtemp(**kw)
    def cleanup(self):
        pass
tempfile.TemporaryDirectory = Kept
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def sha(obj):
    """Digest of bytes, text, or an array with its dtype and shape."""
    import numpy as np              # after main has set the BLAS threads
    if isinstance(obj, str):
        obj = obj.encode()
    if not isinstance(obj, bytes):
        a = np.ascontiguousarray(obj)
        obj = repr((a.dtype.str, a.shape)).encode() + a.tobytes()
    return hashlib.sha256(obj).hexdigest()


class Manifest:
    def __init__(self, root, work):
        self.root, self.work, self.digests = root, work, {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS)

    def add(self, name, obj):
        self.digests[name] = sha(obj)

    def process(self, name, argv, cwd, env=None):
        """Run argv; record its stdout, stderr and exit code."""
        proc = subprocess.run(argv, cwd=cwd, env=env or self.env,
                              capture_output=True, timeout=600)
        self.add(name + ".stdout", proc.stdout)
        self.add(name + ".stderr", proc.stderr)
        self.add(name + ".code", str(proc.returncode))
        return proc

    def cli(self, name, args, cwd):
        return self.process(name, [sys.executable, "-m", "divcurl.cli"] + args, cwd)


def cli_inputs(m, workloads, seed, groups):
    """The cli_pipeline inputs of seed, its flow if asked, and the commands."""
    work = m.work / ("cli_%d" % seed)
    work.mkdir()
    pipeline = workloads.CliPipeline(m.root)
    pipeline.setup(seed, work)
    for name in ("source.vfld", "incompatible.vshc", "points.txt"):
        m.add("cli_pipeline/%d/input/%s" % (seed, name), (work / name).read_bytes())
    if "cli_pipeline" in groups:
        for name, args in pipeline.commands():
            m.cli("cli_pipeline/%d/%s" % (seed, name), args, work)
        for name in pipeline.OUTPUTS:
            m.add("cli_pipeline/%d/%s" % (seed, name), (work / name).read_bytes())
    if "commands" not in groups:
        return
    if not (work / "source.vshc").exists():
        m.cli("commands/%d/analyze" % seed, pipeline.commands()[0][1], work)
    dead_node(work)
    cavity_points(work, seed)
    for name in ("dead_node.txt", "cavity.txt"):
        m.add("commands/%d/%s" % (seed, name), (work / name).read_bytes())
    for name, args in (
            ("check", ["check", "source.vshc"]),
            ("verify", ["verify", "source.vshc"]),
            ("solve", ["solve", "source.vshc"]),
            ("solve_refused", ["solve", "incompatible.vshc"]),
            ("solve_vinf", ["solve", "source.vshc", "--vinf", "1,2,0"]),
            ("solve_vinf_nan", ["solve", "source.vshc", "--vinf", "1,nan,0"]),
            ("solve_partial_slip", ["solve", "incompatible.vshc", "--partial-slip", "3"]),
            ("solve_vinf_partial_slip", ["solve", "source.vshc", "--vinf", "1,2,0",
                                         "--partial-slip", "3"]),
            ("biot", ["biot", "source.vfld", "--points", "points.txt"]),
            ("biot_dead_node", ["biot", "source.vfld", "--points", "dead_node.txt"]),
            ("biot_cavity", ["biot", "source.vfld", "--points", "cavity.txt"])):
        m.cli("commands/%d/%s" % (seed, name), args, work)


def cavity_points(work, seed):
    """Write cavity.txt: 8 seeded points with 0.2 <= |x| / r0 <= 0.9, as %.17g text."""
    import numpy as np

    rng = np.random.default_rng([seed, 11])
    pts = rng.standard_normal((8, 3))
    pts *= rng.uniform(0.2, 0.9, (8, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    (work / "cavity.txt").write_text("".join("%.17g %.17g %.17g\n" % tuple(p) for p in pts))


def dead_node(work):
    """Write dead_node.txt: the last node of source.vfld where f is zero, as biot places it."""
    import numpy as np
    from divcurl import fileio, frames

    field = fileio.read_vfld(work / "source.vfld")
    i, t, p = np.argwhere((field.values == 0.0).all(axis=-1))[-1]
    T, P = np.meshgrid(field.angular.theta, field.angular.phi, indexing="ij")
    frame = np.stack(frames.spherical_frame(T, P), axis=-2)
    fileio.write_points(work / "dead_node.txt", field.radial.r[i] * frame[t, p, 0])


def block_commands(m, seed):
    """analyze and synthesize of random samples whose radial blocks end in a short one."""
    import numpy as np
    from divcurl import fileio, grids

    work = m.work / ("blocks_%d" % seed)
    work.mkdir()
    _, rad = grids.make_grids(1.0, 5.0, 40, 4, breakpoints=np.linspace(1.0, 5.0, 6))
    rng = np.random.default_rng([seed, 6])
    for name, ang in (("tail", grids.AngularGrid(5, 9)), ("wide", grids.AngularGrid(7, 13))):
        shape = (rad.n_r, ang.n_theta, ang.n_phi, 3)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fileio.write_vfld(work / (name + ".vfld"), grids.SampledField(rad, ang, values))
        key = "commands/%d/%s/" % (seed, name)
        m.cli(key + "analyze", ["analyze", name + ".vfld", "--lmax", "4",
                                "--out", name + ".vshc"], work)
        m.cli(key + "synthesize", ["synthesize", name + ".vshc",
                                   "--out", name + "_back.vfld"], work)
        for f in (name + ".vfld", name + ".vshc", name + "_back.vfld"):
            m.add(key + f, (work / f).read_bytes())


def planar_commands(m, seed):
    """moments2d of one .pfld per kind: 2 panels of 8 RadialGrid nodes by 9 angles."""
    import numpy as np
    from divcurl import grids

    work = m.work / ("planar_%d" % seed)
    work.mkdir()
    rng = np.random.default_rng([seed, 10])
    n_phi = 9
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    for kind, radii in (("disk", [("r0", 2.0)]), ("annulus", [("r0", 1.0), ("r1", 2.0)]),
                        ("exterior", [("r0", 1.0), ("rsup", 3.0)])):
        lo = 0.0 if kind == "disk" else radii[0][1]
        rad = grids.RadialGrid(np.linspace(lo, radii[-1][1], 3), 8)
        R, P = np.meshgrid(rad.r, phi, indexing="ij")
        rows = np.column_stack([R.ravel(), P.ravel(), rng.standard_normal((R.size, 2))])
        head = ["pfld 1", "kind " + kind] + ["%s %.17g" % kv for kv in radii] + [
            "nrho %d" % rad.n_r, "nphi %d" % n_phi]
        text = "\n".join(head + ["%.17g %.17g %.17g %.17g" % tuple(row) for row in rows])
        (work / (kind + ".pfld")).write_text(text + "\n")
        key = "commands/%d/moments2d_%s" % (seed, kind)
        m.add(key + "/" + kind + ".pfld", (work / (kind + ".pfld")).read_bytes())
        m.cli(key, ["moments2d", kind + ".pfld", "--kmax", "3"], work)


def unit_edge_commands(m, seed):
    """check, solve and solve --partial-slip 3 where powers of r leave the float range."""
    import numpy as np
    from divcurl import fileio, grids, pseudoharmonic

    work = m.work / ("unit_edge_%d" % seed)
    work.mkdir()
    for L, k in ((24, -66), (6, -100)):
        name = "L%d_2^%d" % (L, k)
        rad = grids.RadialGrid(2.0 ** k * np.linspace(1.0, 5.0, 5), 32)
        f, _ = pseudoharmonic.curl_curl_source(rad, L, np.random.default_rng(seed))
        vshc = name + ".vshc"
        fileio.write_vshc(work / vshc, f)
        key = "commands/%d/unit_edge/%s/" % (seed, name)
        m.add(key + vshc, (work / vshc).read_bytes())
        for cmd, args in (("check", ["check", vshc]), ("solve", ["solve", vshc]),
                          ("solve_partial_slip", ["solve", vshc, "--partial-slip", "3"])):
            m.cli(key + cmd, args, work)


def seedless_commands(m):
    """selftest, phf to stdout and to a file, and verify of that member."""
    work = m.work / "commands"
    work.mkdir()
    m.cli("commands/selftest", ["selftest"], work)
    phf = ["phf", "--l", "2", "--m", "1", "--nr", "64", "--lmax", "6"]
    m.cli("commands/phf", phf, work)
    m.cli("commands/phf_out", phf + ["--out", "phf.vshc"], work)
    m.add("commands/phf_out/phf.vshc", (work / "phf.vshc").read_bytes())
    m.cli("commands/verify_member", ["verify", "phf.vshc"], work)


def solve_sweep(m, workloads, seed):
    sweep = workloads.SolveSweep(m.root)
    sweep.setup(seed, None)
    for case, result in zip(sweep.cases, sweep.job(0)):
        report, W, good, bad, W2, projected, trace = result
        key = "solve_sweep/%d/L%d_r0=%g/" % (seed, case["L"], case["r0"])
        m.add(key + "decisions", repr((good, bad, projected)))
        for name in ("normal_trace", "solenoid", "boundary_deriv", "moment",
                     "field_norm"):
            m.add(key + "report." + name, getattr(report, name))
        m.add(key + "as_table", report.as_table())
        m.add(key + "worst", repr(report.worst()))
        m.add(key + "W", "None" if W is None else W.coeffs)
        m.add(key + "W2", "None" if W2 is None else W2.coeffs)
        m.add(key + "trace", "None" if trace is None else trace.values)
        m.add(key + "trace.aggregate", "None" if trace is None else repr(trace.aggregate))


def transform_large(m, workloads, seed):
    import numpy as np
    from divcurl import frames, transform

    wl = workloads.TransformLarge(m.root)
    wl.setup(seed, None)
    rng = np.random.default_rng([seed, 9])
    # colatitudes 10^-k and pi - 10^-k, k = 1 ... 15, and points off the nodes
    polar = np.concatenate([10.0 ** -np.arange(1, 16), np.pi - 10.0 ** -np.arange(1, 16)])
    n = 200
    near_pole = frames.sph_to_cart_points(rng.uniform(1.0, 5.0, polar.size), polar,
                                          rng.uniform(0.0, 2.0 * np.pi, polar.size))
    off_node = frames.sph_to_cart_points(rng.uniform(1.0, 5.0, n),
                                         np.arccos(rng.uniform(-1.0, 1.0, n)),
                                         rng.uniform(0.0, 2.0 * np.pi, n))
    for k in range(wl.POOL):
        F, R, D, P = wl.job(k)
        for name, a in (("F", F.values), ("R", R.coeffs), ("D", D.coeffs), ("P", P),
                        ("P_near_pole", transform.synthesize_at(R, near_pole)),
                        ("P_off_node", transform.synthesize_at(R, off_node))):
            m.add("transform_large/%d/%d/%s" % (seed, k, name), a)
        del F, R, D, P              # hold one job's arrays at a time


def solver_passes(m, seed):
    import warnings
    import numpy as np
    from divcurl import grids, solver, transform

    rng = np.random.default_rng([seed, 5])
    for L, n_r in ((48, 256), (2, 32)):
        key = "solver/%d/L%d_nr%d/" % (seed, L, n_r)
        rad = grids.RadialGrid(np.linspace(1.0, 5.0, 5), n_r // 4)
        A = transform.SpectralField(rad, L)
        z = rng.standard_normal((A.n_modes, 3)) + 1j * rng.standard_normal((A.n_modes, 3))
        bump = np.clip((rad.r - 2.0) * (4.0 - rad.r), 0.0, None) ** 3
        A.coeffs[:] = (0.9 ** A.ells[:, None] * z)[:, :, None] * bump
        f = transform.spectral_curl(transform.spectral_curl(A))
        report = solver.check_compatibility(f)
        m.add(key + "f", f.coeffs)
        for name in ("normal_trace", "solenoid", "boundary_deriv", "moment", "field_norm"):
            m.add(key + "report." + name, getattr(report, name))
        bad = f.copy()
        bad.coeffs[1:, 2] += 1e-3 * report.field_norm * np.exp(-(rad.r - 2.5) ** 2)
        projected = solver.partial_slip_project(bad, min(L, 24))
        m.add(key + "projected", projected.coeffs)
        vinf = 1e-7 * report.field_norm * np.array([1.0, 2.0, 0.0])     # warns
        for name, g, far in (("V", f, None), ("V_vinf", f, vinf),
                             ("V_projected", projected, None)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                V = solver.solve_exterior(g, far)
            m.add(key + name, V.coeffs)
            m.add(key + name + ".warnings", repr([str(w.message) for w in caught]))
            trace = solver.boundary_trace(V)
            m.add(key + name + ".trace", trace.values)
            m.add(key + name + ".trace.aggregate", repr(trace.aggregate))


def grid_operators(m, workloads, seed):
    import numpy as np
    from divcurl import grids

    cli, sweep = workloads.CliPipeline, workloads.SolveSweep
    radii = [("%g" % r0, r0) for r0 in sweep.RADII] + [("2^-30", 2.0 ** -30),
                                                        ("2^30", 2.0 ** 30)]
    layouts = [("cli_pipeline", cli.BREAKS, cli.N_R // (len(cli.BREAKS) - 1))] + [
        ("solve_sweep_r0=" + name, np.linspace(r0, 5.0 * r0, 5), sweep.N_R // 4)
        for name, r0 in radii]
    rng = np.random.default_rng([seed, 8])
    for name, bp, n in layouts:
        key = "grids/%d/%s/" % (seed, name)
        shape = (3, n * (len(bp) - 1))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t = np.concatenate([[0.0, 1.0], rng.random(4)])
        try:
            rad = grids.RadialGrid(bp, n)
        except ValueError as e:             # weights out of range: the refusal is the output
            m.add(key + "refused", str(e))
            continue
        for op in ("integrate", "differentiate", "at_r0", "slope_at_r0"):
            m.add(key + op, getattr(rad, op)(g))
        with np.errstate(all="ignore"):     # unscaled weights overflow rows at 2^-30
            rows = [rad.eval_matrix(p, bp[p] + t * (bp[p + 1] - bp[p]))
                    for p in range(rad.n_panels)]
        m.add(key + "eval_matrix", np.stack(rows))


def demos(m):
    tmp = m.work / "demos"
    tmp.mkdir()
    for path in sorted((m.root / "demos").glob("0[1-7]_*.py")):
        m.process("demos/" + path.stem, [sys.executable, str(path)], tmp,
                  dict(m.env, TMPDIR=str(tmp)))


def demo08(m):
    tmp = m.work / "demo08"
    tmp.mkdir()
    proc = m.process("demo08/run", [sys.executable, "-c", KEEP_TMP,
                                    str(m.root / "demos" / "08_cli_pipeline.py")],
                     tmp, dict(m.env, TMPDIR=str(tmp)))
    # replaces the raw stdout: the temporary directory is new on every run
    lines = proc.stdout.decode().splitlines(keepends=True)
    m.add("demo08/run.stdout", "".join(l for l in lines
                                       if not l.startswith("working directory:")))
    for path in sorted(tmp.glob("divcurl_demo_*/*")):
        m.add("demo08/" + path.name, path.read_bytes())


def manifest(root, groups, seeds):
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    import workloads
    with tempfile.TemporaryDirectory(prefix="samebits_") as work:
        m = Manifest(root, Path(work))
        for seed in seeds:
            if {"cli_pipeline", "commands"} & groups:
                cli_inputs(m, workloads, seed, groups)
            if "commands" in groups:
                block_commands(m, seed)
                planar_commands(m, seed)
                unit_edge_commands(m, seed)
            if "solve_sweep" in groups:
                solve_sweep(m, workloads, seed)
            if "transform_large" in groups:
                transform_large(m, workloads, seed)
            if "solver" in groups:
                solver_passes(m, seed)
            if "grids" in groups:
                grid_operators(m, workloads, seed)
        if "commands" in groups:
            seedless_commands(m)
        if "demos" in groups:
            demos(m)
        if "demo08" in groups:
            demo08(m)
    return dict(sorted(m.digests.items()))


def compare(rev, rest):
    """Manifests of `git archive rev` and of this checkout; the names that differ."""
    with tempfile.TemporaryDirectory(prefix="samebits_") as tmp:
        tree = Path(tmp) / "tree"
        tar = subprocess.run(["git", "-C", str(HERE), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as t:
            t.extractall(tree, filter="data")
        sides = []
        for root in (tree, HERE):
            out = Path(tmp) / "manifest.json"
            subprocess.run([sys.executable, __file__, "--root", str(root),
                            "--out", str(out)] + rest, check=True)
            sides.append(json.loads(out.read_text()))
    base, this = sides
    names = sorted(set(base) | set(this))
    diff = [n for n in names if base.get(n) != this.get(n)]
    for n in diff:
        print("%s: %s" % (n, "only in %s" % rev if n not in this else
                          "only here" if n not in base else "differs"))
    print("%d names, %d differ (%s against this checkout)" % (len(names), len(diff), rev))
    return 1 if diff else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=HERE, help="tree whose divcurl runs")
    p.add_argument("--groups", default=",".join(GROUPS))
    p.add_argument("--seeds", default="7,3")
    p.add_argument("--out", default=None, help="manifest path (default: stdout)")
    p.add_argument("--compare", metavar="REV", default=None)
    args = p.parse_args(argv)
    groups = set(args.groups.split(","))
    if groups - set(GROUPS):
        p.error("unknown groups: %s" % ", ".join(sorted(groups - set(GROUPS))))
    if args.compare is not None:
        return compare(args.compare, ["--groups", args.groups, "--seeds", args.seeds])
    seeds = [int(s) for s in args.seeds.split(",")]
    text = json.dumps(manifest(args.root.resolve(), groups, seeds), indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    os.environ.update(THREADS)      # before numpy is imported
    sys.exit(main())
