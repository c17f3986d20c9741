"""
Shared pytest set-up.

When a `hypothesis` test fails, hypothesis imports `libcst` to suggest a
patch, and libcst's import emits a DeprecationWarning that the
`error::DeprecationWarning` filter of pyproject.toml turns into a pytest
INTERNALERROR, hiding the falsifying example.  Importing libcst once here,
with that warning ignored, leaves the filter in force for divcurl's own
code and lets a failing property print its example.

Hypothesis also draws examples from the literal constants of every local,
non-test module in `sys.modules`.  Every such module that a test loads is
imported here, before collection, so what a `derandomize=True` property
tries does not depend on which test files are collected with it: the CLI
(imported by some test files only), the θ-row module `transform` imports
on first use, and the benchmark's `probe` and `workloads`.
"""

import sys
import warnings
from pathlib import Path

import divcurl._fourier  # noqa: F401
import divcurl.cli  # noqa: F401

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:             # hypothesis then skips its patch hints
        pass

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import probe  # noqa: F401
    import workloads  # noqa: F401
finally:
    del sys.path[0]
