"""No code in src/polyfhe memoizes through functools.

A functools.lru_cache or functools.cache decorator keeps results between
calls, so what a call costs (and what memory stays held) depends on the calls
before it, not on its arguments alone.  Work a call can share is shared
within that call (window_powers' per-call memo, for one).  The check reads
every module with ast: an attribute `lru_cache` or `cache` of `functools` (or
of a name functools is imported as), or either name imported from functools,
fails.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfhe"
MEMOS = ("lru_cache", "cache")


def memo_uses(source: str) -> list:
    """(line, text) for each use of functools' lru_cache or cache in source."""
    tree = ast.parse(source)
    modules = {"functools"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "functools" and a.asname
    }
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in MEMOS
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, f"from functools import {a.name}") for a in node.names if a.name in MEMOS]
    return sorted(out)


def test_check_finds_functools_memos():
    source = (
        "import functools\nimport functools as ft\nfrom functools import cache, partial\n\n"
        "@functools.lru_cache(maxsize=64)\ndef f(n):\n    return n\n\n"
        "@ft.cache\ndef g(n):\n    return n\n\n"
        "h = partial(f, 1)\n"
    )
    assert memo_uses(source) == [(3, "from functools import cache"), (5, "functools.lru_cache"), (9, "ft.cache")]


def test_no_module_in_the_package_memoizes_through_functools():
    found = [f"{path.name}:{line} {text}" for path in sorted(SRC.glob("*.py")) for line, text in memo_uses(path.read_text())]
    assert not found, f"functools memos: {found}"
