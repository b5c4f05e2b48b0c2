"""The benchmark harness's own tests pass against the package as it stands.

They pin what the harness relies on, such as the number of `cospans.hcompose`
calls one `compose` of four nets makes, so a change under `src/` that breaks
the harness fails here too.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_benchmark_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench/tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr[-2000:]
