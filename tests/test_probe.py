"""
The benchmark's probe still finds every divcurl name it wraps.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_probe_resolves_every_target(monkeypatch):
    # a make that returns None resolves each TARGETS entry and wraps nothing;
    # a renamed or deleted function raises on entry
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import probe

    seen = []
    with probe.patched(lambda name, counter, orig: seen.append(name)):
        pass
    assert seen == [name for _, _, name, _ in probe.TARGETS]


def test_transform_large_job_peaks_below_60_mb(monkeypatch):
    # the transform_large job of the benchmark holds F, R, curl R and D
    # (57.8 MB); its operators' scratch stays within a block of that
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import probe
    import workloads

    wl = workloads.TransformLarge(ROOT)
    wl.setup(7, None)
    out, memory = probe.measure_memory(lambda: wl.job(0), False)
    assert wl.check(0, out) == []
    assert memory["peak"] <= 60e6
