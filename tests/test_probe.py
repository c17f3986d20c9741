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
