"""Shared pytest configuration.

The simulator core is importable and testable without numpy (the CI matrix
has a no-numpy job proving the pure-Python fallbacks).  When numpy
is absent:

* test modules that import numpy at module scope are skipped at collection;
* tests that reach a numpy-backed component at runtime (workload generators,
  hash embeddings, vector indexes — everything raising
  ``RuntimeError("... requires numpy")``) are reported as skips, not
  failures.  The list of such tests is therefore self-maintaining.
"""

import pytest

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False

collect_ignore = []
if not HAS_NUMPY:
    collect_ignore = [
        "test_baselines_webui_rag.py",
        "test_common.py",
        "test_metrics_workload.py",
        "test_parallel_federation.py",
        "test_serving_instance.py",
        "test_sweep.py",
    ]

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_makereport(item, call):
        outcome = yield
        report = outcome.get_result()
        if report.when == "call" and report.failed and call.excinfo is not None:
            exc = call.excinfo.value
            if isinstance(exc, RuntimeError) and "requires numpy" in str(exc):
                report.outcome = "skipped"
                report.longrepr = (str(item.fspath), item.location[1],
                                   f"Skipped: {exc}")
