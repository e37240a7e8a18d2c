"""Importing the engine-side packages loads none of the deployment layers.

``repro/__init__.py`` imports no subpackage, so a process that drives the
engine alone (engine, ShareGPT requests, arrivals, benchmark client) never
pays for the gateway, relay, deployment or sweep modules.  The check runs
in a fresh interpreter, since this test process has imported everything.
"""

import os
import subprocess
import sys

import repro

#: Packages an engine-only process must not load.
UPPER_LAYERS = ("repro.gateway", "repro.faas", "repro.core", "repro.webui",
                "repro.rag", "repro.parallel", "repro.sweep")

_PROBE = """
import sys
import repro.serving, repro.workload
print("\\n".join(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def test_engine_packages_do_not_import_the_upper_layers():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "repro.serving.engine" in out and "repro.workload.sharegpt" in out
    loaded = [m for m in out if ".".join(m.split(".")[:2]) in UPPER_LAYERS]
    assert not loaded, loaded
