"""
Benchmark of the divcurl pipeline: seeded closed-loop workloads, one
client, no think time, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports divcurl from src/ beside perfbench/ (exit code 2 if there is
none) and works in .bench_work/ there, removed on exit.  With --trace 0
it times untraced jobs for S seconds and reports the end-to-end metrics.
With --trace 1 it times untraced jobs for S/2 seconds, then traced jobs
for S/2 seconds, reports the per-layer metrics and writes the spans to
.bench_out/.
Both print a readable summary on stderr and, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md defines the workloads and every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread: the transforms are einsum and FFT bound, so on a small
# shared machine more threads add run-to-run noise rather than speed
BLAS_THREADS = 1
# set-up runs at least SETUP_REPEATS times, then until SETUP_SECONDS have
# passed or SETUP_MAX runs are done; setup_s is the median
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 5, 4.0, 40
TAIL = 85        # job_s.p85: nearest rank; >= 10 jobs beyond it from 67 jobs

END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"), ("job_s.p85", "s"),
              ("jobs_per_s", "1/s"), ("peak_mb", "MB"))

FILEIO = ("read_vfld", "write_vfld", "read_vshc", "write_vshc", "read_points",
          "write_eval_table", "radial_from_nodes")
TRANSFORM = ("analyze", "synthesize", "synthesize_at", "spectral_curl",
             "spectral_div")
SOLVER = ("check_compatibility", "solve_exterior", "partial_slip_project",
          "boundary_trace")
CLI = ("analyze", "check", "solve", "synthesize", "biot", "solve_refused")
HARMONICS = ("harmonics.pbar_table", "harmonics.qbar_table",
             "harmonics.dpbar_table")

PER_LAYER = (
    (("cli.startup_s", "s"),)
    + tuple(("cli.%s.total_s" % c, "s") for c in CLI)
    + (("cli.self_s", "s"),)
    + tuple(("fileio.%s.self_s" % f, "s") for f in FILEIO)
    + (("fileio.bytes_read", "B"), ("fileio.bytes_written", "B"),
       ("fileio.read_MB_per_s", "MB/s"), ("fileio.write_MB_per_s", "MB/s"),
       ("grids.RadialGrid.calls", "count"), ("grids.RadialGrid.self_s", "s"),
       ("grids.RadialGrid.interp.self_s", "s"),
       ("grids.setup.RadialGrid.calls", "count"),
       ("grids.setup.RadialGrid.self_s", "s"),
       ("grids.make_grids.total_s", "s"),
       ("harmonics.tables.calls", "count"), ("harmonics.tables.self_s", "s"))
    + tuple(("transform.%s.self_s" % f, "s") for f in TRANSFORM)
    + (("transform.analyze.peak_over_out", "ratio"),
       ("transform.synthesize.peak_over_out", "ratio"),
       ("transform.synthesize_at.points_per_s", "1/s"))
    + tuple(("solver.%s.self_s" % f, "s") for f in SOLVER)
    + (("solver.modes_per_s", "1/s"), ("solver.decision.clean", "count"),
       ("solver.decision.warn", "count"), ("solver.decision.refuse", "count"),
       ("solver.judged", "count"), ("solver.misjudged", "count"),
       ("solver.partial_slip.calls", "count"),
       ("solver.partial_slip.refused", "count"),
       ("biotsavart.biot_savart_eval.self_s", "s"),
       ("biotsavart.pairs", "count"), ("biotsavart.ns_per_pair", "ns"),
       ("trace.overhead_s", "s"), ("trace.remainder_s", "s"),
       ("trace.jobs", "count"))
)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def machine_facts():
    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
    try:
        facts["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        facts["blas"] = "unknown"
    with open("/proc/meminfo", encoding="ascii") as fh:
        facts["ram"] = fh.readline().split(":")[1].strip()
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            facts["L" + level] = (index / "size").read_text().strip()
    return facts


class Bench:
    """One run of one workload: set-up, memory pass, timed and traced jobs."""

    def __init__(self, workload, seed, work):
        # imports numpy and divcurl, so only after main() has fixed the
        # BLAS thread count and the path to ./src
        import workloads

        self.wl = workloads.WORKLOADS[workload](ROOT)
        self.seed, self.work = seed, work
        self.k = 0                      # job index; jobs cycle over inputs
        self.attempted = self.failed = 0

    def setup(self):
        times = []
        while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                            and len(times) < SETUP_MAX):
            t0 = time.perf_counter()
            self.wl.setup(self.seed, self.work)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def job(self, mode, rec=None):
        """Run, time and check one job; returns (seconds, memory report)."""
        k, self.k = self.k, self.k + 1
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if rec is None:
                out, memory = self.wl.run(k, mode)
            else:
                rec.job = k
                with rec.span("job"):
                    out, memory = self.wl.run(k, mode, rec)
            seconds = time.perf_counter() - t0
            fails = self.wl.check(k, out)
        except Exception:
            seconds, memory = None, None
            fails = [traceback.format_exc()]
        if fails:
            self.failed += 1
            for msg in fails:
                print("job %d failed: %s" % (k, msg), file=sys.stderr)
        return seconds, memory

    def loop(self, seconds, mode, rec=None):
        """Closed loop: start the next job as soon as one ends."""
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t, _ = self.job(mode, rec)
            if t is not None:
                times.append(t)
        return times


def end_to_end(setup_s, times, peak):
    return {"setup_s": setup_s,
            "job_s.p50": statistics.median(times),
            "job_s.p85": percentile(times, TAIL),
            "jobs_per_s": len(times) / sum(times),
            "peak_mb": peak / 1e6}


def per_layer(rec, plain, traced, memory, counts):
    """
    Per-layer metrics from the spans and counters of the traced jobs and
    of the one traced set-up (job id "setup").
    """
    spans = rec.spans
    stat = probe.self_times([s for s in spans if s[5] != "setup"])
    built = probe.self_times([s for s in spans if s[5] == "setup"])
    n = len(traced)

    def self_s(name):
        return stat[name][0] / n if name in stat else 0.0

    def total(name):
        return stat[name][1] if name in stat else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    c = rec.counters
    startup = sum(s[2] - spans[s[4]][2] for s in spans if s[1] == "cli.main")
    layered = sum(v[0] for name, v in stat.items()
                  if name != "job" and not name.startswith("cli.process."))
    reads = sum(total("fileio." + f) for f in FILEIO if f.startswith("read"))
    writes = sum(total("fileio." + f) for f in FILEIO if f.startswith("write"))
    peak_over = {}
    for name in ("transform.analyze", "transform.synthesize"):
        seen = memory["calls"].get(name, [])
        peak_over[name] = max((p / o for p, o in seen), default=0.0)

    m = {"cli.startup_s": startup / n}
    m.update(("cli.%s.total_s" % cmd, total("cli.process." + cmd) / n)
             for cmd in CLI)
    m["cli.self_s"] = self_s("cli.main")
    m.update(("fileio.%s.self_s" % f, self_s("fileio." + f)) for f in FILEIO)
    m.update({
        "fileio.bytes_read": c["fileio.bytes_read"] / n,
        "fileio.bytes_written": c["fileio.bytes_written"] / n,
        "fileio.read_MB_per_s": rate(c["fileio.bytes_read"] / 1e6, reads),
        "fileio.write_MB_per_s": rate(c["fileio.bytes_written"] / 1e6, writes),
        "grids.RadialGrid.calls": stat["grids.RadialGrid"][2] / n,
        "grids.RadialGrid.self_s": self_s("grids.RadialGrid"),
        "grids.RadialGrid.interp.self_s": self_s("grids.RadialGrid.interp"),
        "grids.setup.RadialGrid.calls": built["grids.RadialGrid"][2],
        "grids.setup.RadialGrid.self_s": built["grids.RadialGrid"][0],
        "grids.make_grids.total_s": built["grids.make_grids"][1],
        "harmonics.tables.calls": sum(stat[h][2] for h in HARMONICS
                                      if h in stat) / n,
        "harmonics.tables.self_s": sum(self_s(h) for h in HARMONICS),
    })
    m.update(("transform.%s.self_s" % f, self_s("transform." + f))
             for f in TRANSFORM)
    m.update({
        "transform.analyze.peak_over_out": peak_over["transform.analyze"],
        "transform.synthesize.peak_over_out": peak_over["transform.synthesize"],
        "transform.synthesize_at.points_per_s": rate(
            c["transform.synthesize_at.points"],
            total("transform.synthesize_at")),
    })
    m.update(("solver.%s.self_s" % f, self_s("solver." + f)) for f in SOLVER)
    m.update({
        "solver.modes_per_s": rate(c["solver.solve_exterior.modes"],
                                   total("solver.solve_exterior")),
        "solver.decision.clean": counts.get("clean", 0),
        "solver.decision.warn": counts.get("warn", 0),
        "solver.decision.refuse": counts.get("refuse", 0),
        "solver.judged": counts.get("judged", 0),
        "solver.misjudged": counts.get("misjudged", 0),
        "solver.partial_slip.calls": counts.get("projections", 0),
        "solver.partial_slip.refused": counts.get("projections_refused", 0),
        "biotsavart.biot_savart_eval.self_s":
            self_s("biotsavart.biot_savart_eval"),
        "biotsavart.pairs": c["biotsavart.pairs"] / n,
        "biotsavart.ns_per_pair": rate(total("biotsavart.biot_savart_eval")
                                       * 1e9, c["biotsavart.pairs"]),
        "trace.overhead_s": statistics.median(traced)
        - statistics.median(plain),
        "trace.remainder_s": (sum(traced) - layered - startup) / n,
        "trace.jobs": n,
    })
    return m


def run(args, work):
    bench = Bench(args.workload, args.seed, work)
    setup_s = bench.setup()
    # memory pass: one job under tracemalloc, before and apart from timing
    mode = "memory-calls" if args.trace else "memory"
    _, memory = bench.job(mode)
    memory = memory or {"peak": 0, "calls": {}}
    if not args.trace:
        plain = bench.loop(args.seconds, "plain")
        metrics = end_to_end(setup_s, plain, memory["peak"])
        units = dict(END_TO_END)
    else:
        plain = bench.loop(args.seconds / 2.0, "plain")
        rec = probe.Recorder()
        rec.job = "setup"
        with probe.patched(rec.wrap), rec.span("setup"):
            bench.wl.setup(args.seed, work)
        traced = bench.loop(args.seconds / 2.0, "trace", rec)
        metrics = per_layer(rec, plain, traced, memory,
                            getattr(bench.wl, "counts", {}))
        units = dict(PER_LAYER)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with open(out / ("spans-%s-seed%d.json" % (args.workload, args.seed)),
                  "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent",
                                   "job"], "spans": rec.spans,
                       "counters": rec.counters}, fh)
    if not plain:
        raise RuntimeError("no job completed")

    facts = machine_facts()
    print("workload %s seed %d: %d jobs attempted, %d failed, fail_ratio %.4g"
          % (args.workload, args.seed, bench.attempted, bench.failed,
             bench.failed / bench.attempted), file=sys.stderr)
    print("machine: " + ", ".join("%s %s" % kv for kv in facts.items()),
          file=sys.stderr)
    for name, value in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, units[name]), file=sys.stderr)
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.strip().split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_pipeline", "transform_large", "solve_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "divcurl" / "__init__.py").is_file():
        print("error: no divcurl package under %s; run from a checkout of "
              "the repository" % src, file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    # a terminated run unwinds: subprocess.run kills its CLI process and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                        # another run still works there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
