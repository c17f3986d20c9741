"""
Run one `divcurl` command in this process for the cli_pipeline workload's
traced and memory passes; the timed pass runs `python -m divcurl.cli`.

    python3 perfbench/child.py trace  OUT.json -- ARGS...
    python3 perfbench/child.py memory OUT.json -- ARGS...
    python3 perfbench/child.py memory-calls OUT.json -- ARGS...

`trace` installs the wrappers of probe.py, records a `cli.main` span
around divcurl.cli.main(ARGS) and writes spans and counters to OUT.json.
`memory` runs the command under tracemalloc and writes its peak;
`memory-calls` adds the per-call transform peaks.  The exit code is the
command's.  divcurl must be importable (the parent sets PYTHONPATH).
"""

import json
import sys

import probe


def main(argv):
    mode, out, sep, args = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--" or mode not in ("trace", "memory", "memory-calls"):
        raise SystemExit("usage: child.py trace|memory|memory-calls OUT -- ARGS")
    import divcurl.cli

    if mode == "trace":
        rec = probe.Recorder()
        with probe.patched(rec.wrap), rec.span("cli.main"):
            code = divcurl.cli.main(args)
        report = rec.export()
    else:
        code, report = probe.measure_memory(
            lambda: divcurl.cli.main(args), mode == "memory-calls")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
