"""
The same-bits tool gives one manifest per tree: two processes agree on it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE_KEYS = {"decisions", "report.normal_trace", "report.solenoid",
             "report.boundary_deriv", "report.moment", "report.field_norm",
             "as_table", "worst", "W", "W2", "trace", "trace.aggregate"}
SOLVER_KEYS = {"f", "projected"} | {"report." + k for k in (
    "normal_trace", "solenoid", "boundary_deriv", "moment", "field_norm")} | {
    v + k for v in ("V", "V_vinf", "V_projected")
    for k in ("", ".warnings", ".trace", ".trace.aggregate")}
GRID_KEYS = {"integrate", "differentiate", "at_r0", "slope_at_r0", "eval_matrix"}
DEMO_KEYS = {"run.stdout", "run.stderr", "run.code", "source.vfld",
             "source.vshc", "report.tsv", "solution.vshc", "points.txt",
             "eval.txt", "again.vshc"}


def test_manifest_repeats_in_a_second_process(tmp_path):
    runs = []
    for k in range(2):
        out = tmp_path / ("m%d.json" % k)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "samebits.py"),
             "--groups", "solve_sweep,solver,demo08,grids", "--seeds", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append(json.loads(out.read_text()))
    assert runs[0] == runs[1]
    names = set(runs[0])
    cases = ["solve_sweep/7/L%d_r0=%s/" % (L, r0)
             for L in (8, 16, 24) for r0 in ("0.1", "1", "10")]
    sizes = ["solver/7/L48_nr256/", "solver/7/L2_nr32/"]
    layouts = ["grids/7/cli_pipeline/"] + ["grids/7/solve_sweep_r0=%s/" % r0 for r0 in
                                           ("0.1", "1", "10", "2^-30", "2^30")]
    assert names == ({c + k for c in cases for k in CASE_KEYS}
                     | {s + k for s in sizes for k in SOLVER_KEYS}
                     | {g + k for g in layouts for k in GRID_KEYS}
                     | {"demo08/" + k for k in DEMO_KEYS})
    assert all(len(v) == 64 for v in runs[0].values())
