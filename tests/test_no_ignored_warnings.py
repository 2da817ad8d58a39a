"""No test hides a warning.

pyproject.toml turns every warning into an error, so a numpy RuntimeWarning
or a deprecation fails the test that meets it.  A test that expects a warning
asserts it with pytest.warns; one that ignores it lets the code under test
warn, or end in a warning instead of its own error, unseen.  The check reads
every test module with ast: a filterwarnings mark or call whose action is
"ignore…", or a warnings.simplefilter("ignore…"), fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_DIRS = (ROOT / "tests", ROOT / "perfbench" / "tests")


def ignored_warnings(source: str) -> list:
    """(line, text) for each filter in source that ignores warnings."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("filterwarnings", "simplefilter")):
            continue
        actions = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "action"]
        if any(isinstance(a, ast.Constant) and str(a.value).startswith("ignore") for a in actions):
            out.append((node.lineno, ast.unparse(node)))
    return out


def test_check_finds_ignored_warnings():
    source = (
        "import warnings\nimport pytest\n\n"
        "@pytest.mark.filterwarnings('ignore:invalid value encountered')\ndef test_a():\n"
        "    warnings.simplefilter('ignore')\n    warnings.filterwarnings(action='ignore', category=UserWarning)\n\n"
        "@pytest.mark.filterwarnings('error')\ndef test_b():\n    warnings.simplefilter('error')\n"
    )
    assert [line for line, _ in ignored_warnings(source)] == [4, 6, 7]


def test_no_test_module_ignores_a_warning():
    found = [
        f"{path.relative_to(ROOT)}:{line} {text}"
        for folder in TEST_DIRS
        for path in sorted(folder.rglob("*.py"))
        for line, text in ignored_warnings(path.read_text())
    ]
    assert not found, f"warnings ignored (assert an expected one with pytest.warns): {found}"
