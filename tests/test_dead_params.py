"""No function in src/polyfhe takes a parameter that its body never reads.

A parameter that is only passed in (a context, a seed, a flag) looks like a
choice the caller makes but changes nothing.  The check reads every function
and lambda with ast: each parameter, *args and **kwargs included, must be
loaded somewhere in the body, nested functions counted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfhe"


def dead_params(source: str) -> list:
    """(function name, line, parameter) for each parameter its body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(getattr(node, "name", "<lambda>"), node.lineno, p) for p in params if p not in read]
    return out


def test_check_finds_a_dead_parameter():
    source = "def f(x, ctx):\n    return x\n\ng = lambda a, b: a\n\ndef h(v):\n    def inner():\n        return v\n    return inner\n"
    assert sorted(dead_params(source)) == [("<lambda>", 4, "b"), ("f", 1, "ctx")]


def test_no_function_in_the_package_has_a_dead_parameter():
    found = [f"{path.name}:{line} {name}({param})" for path in sorted(SRC.glob("*.py"))
             for name, line, param in dead_params(path.read_text())]
    assert not found, f"parameters never read: {found}"
