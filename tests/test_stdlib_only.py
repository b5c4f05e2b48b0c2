"""The runtime imports nothing outside the standard library, and the
package exports exactly the names its `__init__` imports from its modules."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import opencospan

# the child lists the top-level modules that importing opencospan added;
# `cli` loads `laws` only when `check` runs, so the child imports it too
PROBE = """
import json, sys
before = set(sys.modules)
import opencospan, opencospan.cli, opencospan.laws
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


def test_the_package_exports_exactly_the_names_its_init_imports():
    tree = ast.parse(pathlib.Path(opencospan.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert "cospan_iso" in imported
    assert opencospan.__all__ == sorted(imported)
