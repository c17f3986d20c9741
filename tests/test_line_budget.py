"""
The library stays within its line budget: at most 3,000 lines in
src/divcurl/*.py, counted as `wc -l` counts them (ROADMAP, "Line budget").
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "divcurl"
CAP = 3000


def test_library_stays_within_its_line_budget():
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= CAP, f"src/divcurl has {sum(lines.values())} lines: {lines}"
