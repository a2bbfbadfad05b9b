"""Hypothesis failure reports survive CI's `-W error`.

A failing ``@given`` test is reported through ``hypothesis.extra._patching``,
whose import of libcst warns. ``conftest`` imports the module once with that
warning ignored; if it did not, the report's import would raise under
`-W error` and pytest would end in an INTERNALERROR without the test's name.
"""

import importlib.util
import warnings


def test_failure_report_module_imports_with_warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # no libcst: Hypothesis writes no patch
            assert importlib.util.find_spec("libcst") is None
