"""Checks on the test configuration in pyproject.toml, on the tests' imports and on their
xfail markers."""

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ROADMAP = PYPROJECT.parent / "ROADMAP.md"
TESTS = Path(__file__).resolve().parent

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Every warning is an error, and Hypothesis's report hook warns that
    # mypy_extensions.TypedDict is deprecated when a @given test fails; unless
    # that one warning is ignored, the session ends in an INTERNALERROR before
    # it reports the falsifying example or runs the next test.
    (tmp_path / "test_toy.py").write_text(ONE_FAILING_ONE_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_toy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


XPASSING = '''
import pytest


@pytest.mark.xfail(reason="fixed since")
def test_fixed():
    pass
'''


def test_an_xfail_test_that_passes_fails_the_session(tmp_path):
    (tmp_path / "test_toy.py").write_text(XPASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rX", "test_toy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "[XPASS(strict)] fixed since" in proc.stdout
    assert "1 failed" in proc.stdout and proc.returncode == 1


def open_roadmap_items() -> set[int]:
    """The numbers of ROADMAP's open items, leaving out those whose title says they are done."""
    text = ROADMAP.read_text()
    section = text[text.index("## Open items"):text.index("**Measured and not pursued.**")]
    items = re.findall(r"^(\d+)\. \*\*(.*?)\*\*", section, re.M | re.S)
    return {int(n) for n, title in items if not title.startswith("Done")}


def test_every_xfail_names_an_open_roadmap_item():
    # A known defect is marked by the item that fixes it; that fix must then remove the marker.
    open_items = open_roadmap_items()
    assert {2, 19} <= open_items and 20 not in open_items
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        marks = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "xfail"]
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and n.func in marks]
        assert len(calls) == len(marks), f"{path.name}: an xfail without a reason"
        for call in calls:
            where = f"{path.name}:{call.lineno}"
            kw = {k.arg: k.value for k in call.keywords}
            reason = kw.get("reason")
            assert isinstance(reason, ast.Constant), f"{where}: reason= must be a literal"
            m = re.fullmatch(r"ROADMAP item (\d+)", str(reason.value))
            assert m and int(m[1]) in open_items, f"{where}: {reason.value!r}"
            assert "strict" not in kw or ast.literal_eval(kw["strict"]) is True, where


def imported_top_modules(tree: ast.Module) -> set[str]:
    """The top-level modules a test file imports, or asks pytest.importorskip for."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip"
              and node.args and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.split(".")[0] for name in names}


def test_every_module_the_tests_import_is_a_declared_dependency():
    # A test dependency that pyproject.toml does not declare is missing from an install of
    # ".[test]": importorskip then skips its test without failing, and an import fails.
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_") for req in requirements}
    allowed = set(sys.stdlib_module_names) | {"diracgap", "oracles", "conftest"} | declared
    undeclared = sorted(f"{path.name}:{name}" for path in sorted(TESTS.glob("*.py"))
                        for name in imported_top_modules(ast.parse(path.read_text()))
                        if name not in allowed)
    assert undeclared == []
