"""Golden command-line outputs: stdout and exit code, byte for byte.

Each case runs ``cli.main`` in process and compares what it printed with
``golden/<case>.stdout`` and its exit code with ``golden/exit_codes.txt``.
The cases are the audits of the four bundled models at closure depth 0 and
1, grid 3, the audit of maximin3 at depth 1, grid 4, and the ``examples``
gate and ``maximin 4``, each in human and machine mode.  Regenerate the
files, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from qualutil.cli import main
from qualutil.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("consolation", "dice", "maximin3", "surgery")
MODES = ("human", "machine")


def _audit(model: str, depth: int, grid: int, mode: str) -> list[str]:
    return [
        "audit",
        "--model",
        str(fixture_path(model)),
        "--closure-depth",
        str(depth),
        "--grid-denominator",
        str(grid),
        "--output",
        mode,
    ]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for mode in MODES:
        for model in MODELS:
            for depth in (0, 1):
                cases[f"audit-{model}-d{depth}-{mode}"] = _audit(model, depth, 3, mode)
        cases[f"audit-maximin3-d1-g4-{mode}"] = _audit("maximin3", 1, 4, mode)
        cases[f"examples-{mode}"] = ["examples", "--output", mode]
        cases[f"maximin4-{mode}"] = ["maximin", "4", "--output", mode]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_codes() -> dict[str, int]:
    lines = (GOLDEN / "exit_codes.txt").read_text(encoding="utf-8").splitlines()
    return {name: int(code) for name, code in (line.split() for line in lines)}


def test_every_case_has_a_golden_file():
    assert sorted(_exit_codes()) == sorted(CASES)
    assert sorted(path.stem for path in GOLDEN.glob("*.stdout")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    code, out, err = _run(CASES[case])
    assert err == ""
    assert out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")
    assert code == _exit_codes()[case]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    for name, argv in sorted(CASES.items()):
        code, out, _ = _run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        codes.append(f"{name} {code}\n")
    (GOLDEN / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")
