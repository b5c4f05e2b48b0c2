"""The runtime imports nothing outside the standard library."""

import json
import os
import pathlib
import subprocess
import sys

import opencospan

# the child lists the top-level modules that importing opencospan added
PROBE = """
import json, sys
before = set(sys.modules)
import opencospan, opencospan.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_package_loads_only_the_standard_library():
    # the child imports the same package as this test, installed or not
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "opencospan" in loaded
    outside = [name for name in loaded if name != "opencospan" and name not in sys.stdlib_module_names]
    assert outside == []
