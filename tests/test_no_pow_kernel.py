"""No code in src/polyfhe calls numpy's power.

np.power rounds as the pow kernel that numpy dispatches on the host does, so
a template, a scale or a pinned gallery byte computed through it can change
with the host or the numpy build while the method stays the same.  Clear
powers are built by the multiplication chain the encrypted side runs, and
IEEE multiplication is correctly rounded everywhere.  The check reads every
module with ast: an attribute `power` of `np` or `numpy`, or `power`
imported from numpy, fails.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfhe"


def power_calls(source: str) -> list:
    """(line, text) for each use of numpy's power in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "power"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            out.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            out += [(node.lineno, f"from numpy import {a.name}") for a in node.names if a.name == "power"]
    return out


def test_check_finds_numpys_power():
    source = (
        "import numpy\nimport numpy as np\nfrom numpy import power\n\n"
        "def f(x):\n    return np.power(x, 3) + numpy.power(x, 2) * x * x\n"
    )
    assert power_calls(source) == [(3, "from numpy import power"), (6, "np.power"), (6, "numpy.power")]


def test_no_module_in_the_package_calls_numpys_power():
    found = [f"{path.name}:{line} {text}" for path in sorted(SRC.glob("*.py")) for line, text in power_calls(path.read_text())]
    assert not found, f"numpy power calls: {found}"
