"""
Spans, counters and per-call memory peaks recorded around calls into the
divcurl modules, from outside the package.

`patched(make)` swaps every name in TARGETS, in each divcurl module that
holds it (the defining module and every module that imported it), for the
wrapper `make` returns, and puts the originals back on exit.  Class
entries (`RadialGrid.__init__`) are swapped on the class.  Nothing under
src/ changes, and outside a `patched` block the program runs untouched.

Span names are `<layer>.<callable>`; the layer is the divcurl module.
`frames` is not wrapped, so its time counts inside `synthesize_at` and
`biot_savart_eval`; `pseudoharmonic` and `planar` are not on the measured
pipeline and are not wrapped either.
"""

import contextlib
import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _bytes_read(args, result):
    return {"fileio.bytes_read": _size(args[0])}


def _bytes_written(args, result):
    return {"fileio.bytes_written": _size(args[0])}


def _pairs(args, result):
    field, pts = args[0], args[1]
    return {"biotsavart.pairs": len(pts) * field.values[..., 0].size}


def _points(args, result):
    return {"transform.synthesize_at.points": len(args[1])}


def _modes(args, result):
    return {"solver.solve_exterior.modes": args[0].n_modes}


# (defining module, attribute, span name, counter or None)
TARGETS = (
    ("divcurl.fileio", "read_vfld", "fileio.read_vfld", _bytes_read),
    ("divcurl.fileio", "write_vfld", "fileio.write_vfld", _bytes_written),
    ("divcurl.fileio", "read_vshc", "fileio.read_vshc", _bytes_read),
    ("divcurl.fileio", "write_vshc", "fileio.write_vshc", _bytes_written),
    ("divcurl.fileio", "read_points", "fileio.read_points", _bytes_read),
    ("divcurl.fileio", "write_eval_table", "fileio.write_eval_table",
     _bytes_written),
    ("divcurl.fileio", "radial_from_nodes", "fileio.radial_from_nodes", None),
    ("divcurl.grids", "make_grids", "grids.make_grids", None),
    ("divcurl.grids", "RadialGrid.__init__", "grids.RadialGrid", None),
    ("divcurl.grids", "RadialGrid.interp", "grids.RadialGrid.interp", None),
    ("divcurl.harmonics", "pbar_table", "harmonics.pbar_table", None),
    ("divcurl.harmonics", "qbar_table", "harmonics.qbar_table", None),
    ("divcurl.harmonics", "dpbar_table", "harmonics.dpbar_table", None),
    ("divcurl.transform", "analyze", "transform.analyze", None),
    ("divcurl.transform", "synthesize", "transform.synthesize", None),
    ("divcurl.transform", "synthesize_at", "transform.synthesize_at", _points),
    ("divcurl.transform", "spectral_curl", "transform.spectral_curl", None),
    ("divcurl.transform", "spectral_div", "transform.spectral_div", None),
    ("divcurl.solver", "check_compatibility", "solver.check_compatibility",
     None),
    ("divcurl.solver", "solve_exterior", "solver.solve_exterior", _modes),
    ("divcurl.solver", "partial_slip_project", "solver.partial_slip_project",
     None),
    ("divcurl.solver", "boundary_trace", "solver.boundary_trace", None),
    ("divcurl.biotsavart", "biot_savart_eval", "biotsavart.biot_savart_eval",
     _pairs),
)

# transforms whose peak memory is reported against the size of their output
OUTPUT_BYTES = {
    "transform.analyze": lambda S: S.coeffs.nbytes,
    "transform.synthesize": lambda F: F.values.nbytes,
}


@contextlib.contextmanager
def patched(make):
    """
    Swap each TARGETS entry for make(span_name, counter, original), where
    that returns a callable, in every loaded divcurl module; restore all
    of them on exit.
    """
    for modname in {t[0] for t in TARGETS} | {"divcurl", "divcurl.cli"}:
        importlib.import_module(modname)
    modules = [m for n, m in list(sys.modules.items())
               if n == "divcurl" or n.startswith("divcurl.")]
    saved = []
    try:
        for modname, attr, name, counter in TARGETS:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[meth]
                wrapper = make(name, counter, orig)
                if wrapper is not None:
                    saved.append((owner, meth, orig))
                    setattr(owner, meth, wrapper)
                continue
            orig = getattr(home, attr)
            wrapper = make(name, counter, orig)
            if wrapper is None:
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class Recorder:
    """
    In-memory spans and counters.

    A span is [id, name, start, end, parent id, job id] with times from
    time.perf_counter, which on Linux reads the system-wide monotonic clock,
    so spans recorded in child processes line up with the parent's.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.job = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, counter, fn):
        """A wrapper recording one span, and the counter, per call of fn."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def adopt(self, spans, counters, parent):
        """Merge spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for sid, name, start, end, par in spans:
            self.spans.append([base + sid, name, start, end,
                               parent if par is None else base + par,
                               self.job])
        for key, value in counters.items():
            self.counters[key] += value

    def export(self):
        """Spans without the job id, and counters, as plain JSON data."""
        return {"spans": [s[:5] for s in self.spans],
                "counters": dict(self.counters)}


class PeakMeter:
    """
    Peak traced memory of one job, plus, for the transforms named in
    OUTPUT_BYTES, the peak of each call above the memory held when it
    started, with the size of the array it returned.  tracemalloc must be
    running.
    """

    def __init__(self):
        self.high = 0
        self.calls = defaultdict(list)          # name -> [(peak, out bytes)]

    def wrap(self, name, counter, fn):
        out_bytes = OUTPUT_BYTES.get(name)
        if out_bytes is None:
            return None

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            held, peak = tracemalloc.get_traced_memory()
            self.high = max(self.high, peak)
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            self.high = max(self.high, peak)
            self.calls[name].append((peak - held, out_bytes(result)))
            return result

        return measured

    def job_peak(self):
        return max(self.high, tracemalloc.get_traced_memory()[1])


def measure_memory(fn, per_call):
    """
    Run fn() under tracemalloc, with the per-call transform peaks when
    per_call is true.  Returns (result, {"peak": bytes, "calls": ...}).
    """
    meter = PeakMeter()
    tracemalloc.start()
    try:
        with patched(meter.wrap) if per_call else contextlib.nullcontext():
            result = fn()
        return result, {"peak": meter.job_peak(), "calls": meter.calls}
    finally:
        tracemalloc.stop()


def self_times(spans):
    """
    Per span name: (self seconds, inclusive seconds, calls).  Self time is
    a span's duration minus the durations of its direct children; spans
    of one thread nest, so children never overlap.
    """
    inner = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            inner[s[4]] += s[3] - s[2]
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        dur = s[3] - s[2]
        acc = out[s[1]]
        acc[0] += dur - inner[s[0]]
        acc[1] += dur
        acc[2] += 1
    return out
