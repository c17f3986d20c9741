"""
Shared pytest set-up.

When a `hypothesis` test fails, hypothesis imports `libcst` to suggest a
patch, and libcst's import emits a DeprecationWarning that the
`error::DeprecationWarning` filter of pyproject.toml turns into a pytest
INTERNALERROR, hiding the falsifying example.  Importing libcst once here,
with that warning ignored, leaves the filter in force for divcurl's own
code and lets a failing property print its example.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:             # hypothesis then skips its patch hints
        pass
