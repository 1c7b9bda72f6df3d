"""The package on any Python that pyproject.toml declares, from the source
tree alone: nothing outside the standard library is imported, and no file
uses syntax newer than CPython 3.10."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# Runs the examples gate as ``python -m qualutil examples --output machine``
# from the source tree given as its argument, then names every top-level
# module loaded that is neither the standard library's nor qualutil's.
_EXAMPLES_FROM_SOURCE = """
import runpy
import sys
sys.path.insert(0, sys.argv[1])
sys.argv[1:] = ["examples", "--output", "machine"]
try:
    runpy.run_module("qualutil", run_name="__main__")
except SystemExit as exit:
    code = exit.code
loaded = {name.partition(".")[0] for name in sys.modules}
print(sorted(loaded - set(sys.stdlib_module_names) - {"qualutil", "__main__"}), file=sys.stderr)
sys.exit(code)
"""


def test_examples_pass_with_nothing_installed():
    # -S loads no site-packages; -I ignores PYTHONPATH and the user's site.
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _EXAMPLES_FROM_SOURCE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "RESULT PASS"
    assert result.stderr == "[]\n"


def test_sources_parse_as_python_3_10():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
