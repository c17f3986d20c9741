"""
The three benchmark workloads.  Each one builds its inputs from the seed
in `setup`, runs one job per `run` call (the timed part, closed loop,
one client) and judges the job's outputs in `check`, outside the timed
region.  `check` returns failure messages; an empty list is a pass.

A job fails on an exception outside the documented outcomes, an
unexpected CLI exit code, an accuracy check over its bound, or an output
that is not byte-identical to the first output for the same input.  The
bounds are the ones tier-1 and `divcurl selftest` assert for the same
quantities.

Jobs call divcurl through module attributes (`transform.analyze`), so a
traced run, which swaps those attributes, sees the job's own calls too.
"""

import contextlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import divcurl.fileio as fileio
import divcurl.frames as frames
import divcurl.grids as grids
import divcurl.solver as solver
import divcurl.transform as transform
import probe

HERE = Path(__file__).resolve().parent


def _bump(r, a, b):
    return np.clip((r - a) * (b - r), 0.0, None) ** 3


def _random_coeffs(rng, S, decay):
    """Complex Gaussian amplitudes per (mode, channel), scaled by decay^l."""
    amp = decay ** S.ells
    return amp[:, None] * (rng.standard_normal((S.n_modes, 3))
                           + 1j * rng.standard_normal((S.n_modes, 3)))


class _Reference:
    """
    The first outputs for each input, and the verdict of their full check.
    A later job for the same input must match them byte for byte, and then
    gets the same verdict without repeating the check.
    """

    def __init__(self):
        self.first = {}

    def check(self, key, arrays, verify):
        blob = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        if key not in self.first:
            self.first[key] = (blob, verify())
        ref, verdict = self.first[key]
        if blob != ref:
            return verdict + ["output for input %s differs from its first job"
                              % (key,)]
        return verdict


############################################
# cli_pipeline


class CliPipeline:
    """
    The demo-08 flow through the console entry point, one fresh process
    per subcommand: analyze -> check -> solve -> synthesize -> biot on a
    compatible source, then solve on an incompatible one (exit 1, no
    output).  (L, n_r) = (16, 128), 8 equal panels on [1, 5]; the source
    lives on [1.5, 2.5], its edges and middle on panel breakpoints.
    """

    L, N_R, N_POINTS = 16, 128, 64
    BREAKS = np.linspace(1.0, 5.0, 9)
    OUTPUTS = ("source.vshc", "check.tsv", "solution.vshc", "solution.vfld",
               "biot.txt")
    EXPECTED = {"analyze": 0, "check": 0, "solve": 0, "synthesize": 0,
                "biot": 0, "solve_refused": 1}

    def __init__(self, root):
        self.root = root
        self.reference = _Reference()

    def setup(self, seed, work):
        """Write source.vfld, incompatible.vshc and points.txt into work."""
        self.work = work
        rng = np.random.default_rng([seed, 1])
        ang, rad = grids.make_grids(1.0, 5.0, self.N_R, self.L,
                                    breakpoints=self.BREAKS)
        f = self._two_bump_source(rng, rad)
        fileio.write_vfld(work / "source.vfld", transform.synthesize(f, ang))

        # one extra Phi-channel bump with a nonzero moment: refused data
        bad = f.copy()
        g = _bump(rad.r, 1.5, 2.0)
        bad.coeffs[transform.mode_index(2, 0), 2] += \
            0.1 * np.abs(f.coeffs).max() * g / g.max()
        fileio.write_vshc(work / "incompatible.vshc", bad)

        # beyond the support (r <= 2.5) and inside rmax = 5
        pts = rng.standard_normal((self.N_POINTS, 3))
        pts *= rng.uniform(4.3, 4.9, (self.N_POINTS, 1)) \
            / np.linalg.norm(pts, axis=1, keepdims=True)
        fileio.write_points(work / "points.txt", pts)
        self.points = pts

    def _two_bump_source(self, rng, rad):
        """
        Real compatible source in the Phi channels: per degree two adjacent
        bumps mixed so the solvability moment of s^(1-l) f2 vanishes while
        the exterior multipole stays nonzero, so the solution is visible
        beyond the support.
        """
        r = rad.r
        g1, g2 = _bump(r, 1.5, 2.0), _bump(r, 2.0, 2.5)
        f = transform.SpectralField(rad, self.L)
        for l in range(1, self.L + 1):
            beta = (-rad.integrate(r ** (1.0 - l) * g1)
                    / rad.integrate(r ** (1.0 - l) * g2))
            prof = g1 + beta * g2
            for m in range(l + 1):
                c = rng.standard_normal() + (1j * rng.standard_normal()
                                             if m else 0.0)
                c = c * (1.0 / 3.0) ** l
                f.coeffs[transform.mode_index(l, m), 2] = c * prof
                f.coeffs[transform.mode_index(l, -m), 2] = \
                    (-1) ** m * np.conj(c) * prof
        return f

    def commands(self):
        w = self.work
        return (
            ("analyze", ["analyze", "source.vfld", "--lmax", str(self.L),
                         "--out", "source.vshc"]),
            ("check", ["check", "source.vshc", "--out", "check.tsv"]),
            ("solve", ["solve", "source.vshc", "--out", "solution.vshc"]),
            ("synthesize", ["synthesize", "solution.vshc",
                            "--out", "solution.vfld"]),
            ("biot", ["biot", "source.vfld", "--points", "points.txt",
                      "--out", "biot.txt"]),
            ("solve_refused", ["solve", "incompatible.vshc",
                                    "--out", str(w / "refused.vshc")]),
        )

    def run(self, k, mode, rec=None):
        """
        Run the six commands in order.  mode "plain" runs
        `python -m divcurl.cli`; "trace", "memory" and "memory-calls" run
        child.py in that mode.  Returns (exit codes, memory report), the
        report taking the largest peak over the processes.
        """
        for name in self.OUTPUTS + ("refused.vshc",):
            (self.work / name).unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        report = self.work / "child.json"
        codes, memory = {}, {"peak": 0, "calls": {}}
        for name, args in self.commands():
            if mode == "plain":
                argv = [sys.executable, "-m", "divcurl.cli"] + args
            else:
                argv = [sys.executable, str(HERE / "child.py"), mode,
                        str(report), "--"] + args
            span = (rec.span("cli.process." + name) if mode == "trace"
                    else contextlib.nullcontext())
            with span as sid:
                proc = subprocess.run(argv, cwd=self.work, env=env,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=170)
            codes[name] = (proc.returncode, proc.stderr.decode()[-2000:])
            if mode == "plain":
                continue
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
            if mode == "trace":
                rec.adopt(data["spans"], data["counters"], sid)
            else:
                memory["peak"] = max(memory["peak"], data["peak"])
                for call, seen in data["calls"].items():
                    memory["calls"].setdefault(call, []).extend(seen)
        return codes, (memory if mode.startswith("memory") else None)

    def check(self, k, out):
        fails = []
        for name, want in self.EXPECTED.items():
            code, err = out[name]
            if code != want:
                fails.append("%s exited %d, expected %d: %s"
                             % (name, code, want, err.strip()))
        if (self.work / "refused.vshc").exists():
            fails.append("refused solve wrote an output file")
        if fails:
            return fails
        files = [np.frombuffer((self.work / n).read_bytes(), dtype=np.uint8)
                 for n in self.OUTPUTS]
        return self.reference.check("source", files, self._check_biot)

    def _check_biot(self):
        """biot.txt against synthesize_at of solution.vshc (tier-1 bounds)."""
        table = np.loadtxt(self.work / "biot.txt", ndmin=2)
        direct = table[:, 3::2] + 1j * table[:, 4::2]
        V = fileio.read_vshc(self.work / "solution.vshc")
        spectral = transform.synthesize_at(V, table[:, :3])
        scale = np.abs(spectral).max()
        fails = []
        if not np.array_equal(table[:, :3], self.points):
            fails.append("biot.txt lists other points than points.txt")
        if not np.abs(direct - spectral).max() < 1e-3 * scale:
            fails.append("biot differs from the spectral solution by %.3g "
                         "of its scale" % (np.abs(direct - spectral).max()
                                           / scale))
        if not np.abs(direct.imag).max() < 1e-10 * scale:
            fails.append("biot of a real source has an imaginary part")
        return fails


############################################
# In-process workloads


class _InProcess:
    """run() for workloads whose job is a call sequence in this process."""

    def run(self, k, mode, rec=None):
        """
        One job.  "plain" runs it as is, "trace" with the span wrappers
        of `rec` installed, "memory" under tracemalloc and "memory-calls"
        also with the per-call transform peaks.  Returns (outputs, memory
        report or None).
        """
        if mode == "plain":
            return self.job(k), None
        if mode == "trace":
            with probe.patched(rec.wrap):
                return self.job(k), None
        return probe.measure_memory(lambda: self.job(k),
                                    mode == "memory-calls")


############################################
# transform_large


class TransformLarge(_InProcess):
    """
    synthesize -> analyze -> spectral_div(spectral_curl(.)) ->
    synthesize_at on 2,000 grid nodes, at (L, n_r) = (32, 256) on 16 equal
    panels.  Jobs cycle over POOL seeded fields built in setup, so every
    input is seen several times and its outputs compared byte for byte.
    """

    L, N_R, N_POINTS, POOL = 32, 256, 2000, 3

    def __init__(self, root):
        self.reference = _Reference()

    def setup(self, seed, work):
        rng = np.random.default_rng([seed, 2])
        self.ang, self.rad = grids.make_grids(
            1.0, 5.0, self.N_R, self.L, breakpoints=np.linspace(1.0, 5.0, 17))
        profile = np.exp(-((self.rad.r - 3.0) / 0.9) ** 2)
        self.fields, self.nodes = [], []
        for _ in range(self.POOL):
            S = transform.SpectralField(self.rad, self.L)
            S.coeffs[:] = (_random_coeffs(rng, S, 0.5)[:, :, None]
                           * profile[None, None, :])
            S.coeffs[0, 1:] = 0.0
            self.fields.append(S)
            idx = rng.choice(self.rad.n_r * self.ang.n_theta * self.ang.n_phi,
                             self.N_POINTS, replace=False)
            self.nodes.append(np.unravel_index(
                idx, (self.rad.n_r, self.ang.n_theta, self.ang.n_phi)))

    def points(self, k):
        i, j, m = self.nodes[k % self.POOL]
        return frames.sph_to_cart_points(self.rad.r[i], self.ang.theta[j],
                                         self.ang.phi[m])

    def job(self, k):
        S = self.fields[k % self.POOL]
        pts = self.points(k)
        F = transform.synthesize(S, self.ang)
        R = transform.analyze(F, self.L)
        D = transform.spectral_div(transform.spectral_curl(R))
        P = transform.synthesize_at(R, pts)
        return F, R, D, P

    def check(self, k, out):
        F, R, D, P = out
        return self.reference.check(k % self.POOL,
                                    (F.values, R.coeffs, D.coeffs, P),
                                    lambda: self._verify(k, *out))

    def _verify(self, k, F, R, D, P):
        S = self.fields[k % self.POOL]
        fails = []
        err = np.abs(R.coeffs - S.coeffs).max() / np.abs(S.coeffs).max()
        if not err <= 1e-11:
            fails.append("round trip error %.3g > 1e-11" % err)
        C = transform.spectral_curl(R)
        dc = np.abs(D.coeffs).max()
        if not dc < 1e-9 * max(np.abs(C.coeffs).max(), 1.0):
            fails.append("div curl %.3g over 1e-9" % dc)
        i, j, m = self.nodes[k % self.POOL]
        v = F.values[i, j, m]
        want = frames.sph_to_cart_vector(v[:, 0], v[:, 1], v[:, 2],
                                         self.ang.theta[j], self.ang.phi[m])
        gap = np.abs(P - want.reshape(-1, 3)).max()
        if not gap < 1e-12 * max(np.abs(F.values).max(), 1.0):
            fails.append("synthesize_at off synthesize by %.3g" % gap)
        return fails


############################################
# solve_sweep


class SolveSweep(_InProcess):
    """
    One job is a sweep over the 9 cases L in {8, 16, 24} x r0 in
    {0.1, 1, 10} (rmax = 5 r0, n_r = 128 on 4 equal panels); per case:
    check_compatibility -> solve_exterior (compatible f = curl curl A; must
    recover curl A) -> solve_exterior (an incompatible copy; must refuse)
    -> partial_slip_project(incompatible, L) -> solve_exterior ->
    boundary_trace.  The cases differ 7x in cost, so a job of one case
    would make the median job time jump between cases; a whole sweep is
    one unit of work.

    Refusals and warnings are documented outcomes, not failures: they are
    counted as decisions, and a compatible source warned or refused, or an
    incompatible one accepted, counts as misjudged.  The projection's
    "vanishing moment" ValueError is counted as a refused projection.
    """

    DEGREES, RADII, N_R = (8, 16, 24), (0.1, 1.0, 10.0), 128

    def __init__(self, root):
        self.reference = _Reference()
        self.counts = dict.fromkeys(
            ("judged", "misjudged", "clean", "warn", "refuse",
             "projections", "projections_refused"), 0)

    def setup(self, seed, work):
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for L in self.DEGREES:
            for r0 in self.RADII:
                self.cases.append(self._case(rng, L, r0))

    def _case(self, rng, L, r0):
        rad = grids.RadialGrid(np.linspace(r0, 5.0 * r0, 5), self.N_R // 4)
        r = rad.r
        A = transform.SpectralField(rad, L)
        A.coeffs[:] = (_random_coeffs(rng, A, 0.5)[:, :, None]
                       * _bump(r / r0, 2.0, 4.0)[None, None, :])
        A.coeffs[0, 1:] = 0.0
        V = transform.spectral_curl(A)
        f = transform.spectral_curl(V)
        # a Phi-channel bump with a nonzero moment on the (1, 0) mode
        bad = f.copy()
        g = _bump(r / r0, 2.0, 3.0)
        bad.coeffs[transform.mode_index(1, 0), 2] += \
            0.1 * np.abs(f.coeffs).max() * g / g.max()
        return {"L": L, "r0": r0, "f": f, "V": V, "bad": bad}

    @staticmethod
    def _solve(f):
        """(solution or None, decision) of one solve_exterior call."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", solver.CompatibilityWarning)
            try:
                W = solver.solve_exterior(f)
            except solver.IncompatibilityError:
                return None, "refuse"
        warned = any(issubclass(w.category, solver.CompatibilityWarning)
                     for w in caught)
        return W, "warn" if warned else "clean"

    def job(self, k):
        return [self._one(case) for case in self.cases]

    def _one(self, case):
        report = solver.check_compatibility(case["f"])
        W, good = self._solve(case["f"])
        _, bad = self._solve(case["bad"])
        try:
            P = solver.partial_slip_project(case["bad"], case["L"])
        except ValueError as e:
            if "vanishing moment" not in str(e):
                raise
            return report, W, good, bad, None, None, None
        W2, projected = self._solve(P)
        trace = solver.boundary_trace(W2) if W2 is not None else None
        return report, W, good, bad, W2, projected, trace

    def check(self, k, out):
        fails = []
        for i, (case, result) in enumerate(zip(self.cases, out)):
            fails += self._check_one(i, case, result)
        return fails

    def _check_one(self, i, case, result):
        report, W, good, bad, W2, projected, trace = result
        c = self.counts
        c["projections"] += 1
        judged = [(good, True), (bad, False)]
        if projected is None:
            c["projections_refused"] += 1
        else:
            judged.append((projected, True))
        for decision, compatible in judged:
            c["judged"] += 1
            c[decision] += 1
            if (decision != "clean") if compatible else (decision != "refuse"):
                c["misjudged"] += 1

        decisions = np.frombuffer(repr((good, bad, projected)).encode(),
                                  dtype=np.uint8)
        parts = [decisions, report.moment, report.solenoid]
        if W is not None:
            parts.append(W.coeffs)
        if W2 is not None:
            parts += [W2.coeffs, trace.values]
        return self.reference.check(i, parts, lambda: self._verify(case, W))

    @staticmethod
    def _verify(case, W):
        """Recovery of curl A and the solution's divergence (tier-1 bounds)."""
        if W is None:
            return []                   # refused: counted as misjudged
        fails = []
        V = case["V"]
        scale = np.abs(V.coeffs).max()
        err = np.abs(W.coeffs - V.coeffs).max()
        if not err < 1e-8 * scale:
            fails.append("L=%d r0=%g: recovery error %.3g of scale"
                         % (case["L"], case["r0"], err / scale))
        div = np.abs(transform.spectral_div(W).coeffs).max()
        if not div < 1e-9 * np.abs(W.coeffs).max():
            fails.append("L=%d r0=%g: solution divergence %.3g"
                         % (case["L"], case["r0"], div))
        return fails


WORKLOADS = {
    "cli_pipeline": CliPipeline,
    "transform_large": TransformLarge,
    "solve_sweep": SolveSweep,
}
