"""
The command-line pipeline over text files.

Every step of the workflow is scriptable: sample a field, analyze it to
coefficients, check solvability, solve, and evaluate -- all through small
UTF-8 text formats that diff cleanly and rerun byte-identically.  This
demo drives the in-process entry point; the installed `divcurl` console
script takes the same arguments.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from divcurl.cli import main
from divcurl.fileio import read_vshc, write_vfld, write_vshc
from divcurl.grids import make_grids
from divcurl.transform import SpectralField, synthesize, mode_index

tmp = tempfile.TemporaryDirectory(prefix="divcurl_demo_")
work = Path(tmp.name)
print("working directory:", work, "(removed at the end)")

############################################
# Make a compatible source and write it as a sampled field

ang, rad = make_grids(1.0, 5.0, 48, 4, breakpoints=[1.0, 1.4, 1.8, 2.2, 5.0])
r = rad.r
g1 = np.clip((r - 1.4) * (1.8 - r), 0.0, None) ** 3
g2 = np.clip((r - 1.8) * (2.2 - r), 0.0, None) ** 3
beta = -rad.integrate(r ** -1.0 * g1) / rad.integrate(r ** -1.0 * g2)
f = SpectralField(rad, 4)
f.coeffs[mode_index(2, 0), 2] = g1 + beta * g2

src = work / "source.vfld"
write_vfld(src, synthesize(f, ang))
print("\n$ divcurl analyze source.vfld --lmax 4 --out source.vshc")
code = main(["analyze", str(src), "--lmax", "4",
             "--out", str(work / "source.vshc")])
print("  exit", code)

print("\n$ divcurl check source.vshc")
# the table also streams to stdout; keep the demo output short by
# quoting the first lines of the written file instead
with contextlib.redirect_stdout(io.StringIO()):
    main(["check", str(work / "source.vshc"), "--out", str(work / "report.tsv")])
print("  first lines of the residual table:")
for line in (work / "report.tsv").read_text().split("\n")[:4]:
    print("   ", line)

print("\n$ divcurl solve source.vshc --out solution.vshc")
log = io.StringIO()
with contextlib.redirect_stderr(log):
    code = main(["solve", str(work / "source.vshc"),
                 "--out", str(work / "solution.vshc")])
print("  " + log.getvalue().strip())
print("  exit", code)

############################################
# Evaluate the solution file and cross-check with biot

V = read_vshc(work / "solution.vshc")
print("\nsolution band limit   :", V.L_max)
print("solution (2,0) at rmax: %.6e" % abs(V.mode(2, 0)[0][-1]))

pts = work / "points.txt"
pts.write_text("3.2 0 3.2\n0 3 3\n")
print("\n$ divcurl biot source.vfld --points points.txt")
main(["biot", str(src), "--points", str(pts), "--out", str(work / "eval.txt")])
for line in (work / "eval.txt").read_text().strip().split("\n"):
    print("   ", line[:72], "...")

############################################
# Reruns are byte-identical

with contextlib.redirect_stderr(io.StringIO()):
    main(["solve", str(work / "source.vshc"), "--out", str(work / "again.vshc")])
same = (work / "solution.vshc").read_bytes() == (work / "again.vshc").read_bytes()
print("\nrerun byte-identical  :", same)

tmp.cleanup()
