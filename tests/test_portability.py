"""The package on any Python that pyproject.toml declares, from the source
tree alone: nothing outside the standard library is imported, and no file
uses syntax newer than CPython 3.10 or compiles with a warning."""

import ast
import importlib
import subprocess
import sys
import warnings
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
    # Each source also compiles with warnings as errors, so an invalid escape
    # sequence fails here on every Python: a DeprecationWarning up to 3.11, a
    # SyntaxWarning from 3.12.
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(3, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(source, str(path), "exec")


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _perfbench_reads(tree: ast.Module) -> set[str]:
    """Every dotted name under ``qualutil`` that a benchmark file reads: its
    imports, its attribute chains on ``qualutil``, and the attributes that
    ``Tracer.patched(module, SPANS)`` wraps, which are the keys of the
    module-level dict ``SPANS``."""
    dicts = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(_dotted(node) or "")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patched"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
        ):
            module = _dotted(node.args[0])
            spans = dicts[node.args[1].id]
            assert module and spans.keys, ast.dump(node)
            names.update(f"{module}.{key.value}" for key in spans.keys)
    return {name for name in names if name.partition(".")[0] == "qualutil"}


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module or an attribute, however deep, of the
    package."""
    parts = name.split(".")
    value = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], 2):
        if not hasattr(value, part):
            try:
                importlib.import_module(".".join(parts[:depth]))
            except ModuleNotFoundError:
                return False
        value = getattr(value, part)
    return True


def test_every_name_the_benchmark_reads_of_the_package_exists():
    # The benchmark imports the package from src/ and wraps some of its
    # functions by name; a name deleted or renamed here would fail only
    # the benchmark's own runs.
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    assert paths
    reads = {
        name: path.name
        for path in paths
        for name in _perfbench_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    }
    assert "qualutil.cli.main" in reads and "qualutil.auditor.check_A2" in reads
    assert sorted(name for name in reads if not _resolves(name)) == []
