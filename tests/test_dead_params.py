"""No function in src/polyfhe takes a parameter that its body never reads,
no dataclass keeps a field that nothing reads, and no private module-level
function goes uncalled.

A parameter that is only passed in (a context, a seed, a flag) looks like a
choice the caller makes but changes nothing.  The check reads every function
and lambda with ast: each parameter, *args and **kwargs included, must be
loaded somewhere in the body, nested functions counted.  Likewise a
dataclass field must be read as an attribute somewhere in the package
(InitVar and KW_ONLY markers aside), and a module-level function whose name
starts with one underscore must be named somewhere in the package outside
its own body, so state or helpers left behind by their last reader fail.
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


def _is_dataclass(node) -> bool:
    return any(ast.unparse(d).partition("(")[0] in ("dataclass", "dataclasses.dataclass") for d in node.decorator_list)


def _is_marker(annotation) -> bool:
    # KW_ONLY, or an InitVar[...]: no attribute is stored under the name
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id in ("KW_ONLY", "InitVar")


def unread_fields(sources: dict) -> list:
    """(file, class name, field) for each dataclass field in sources, a
    {file name: source} map, that no code in them reads as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(name, cls.name, stmt.target.id) for name, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not _is_marker(stmt.annotation) and stmt.target.id not in read]


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)}


def uncalled_private_functions(sources: dict) -> list:
    """(file, function) for each module-level function in sources, a {file
    name: source} map, named _x but not __x__, that no code in them names
    outside the function's own body."""
    tops = [(name, node) for name, source in sources.items() for node in ast.parse(source).body]
    named = [_names(node) for _, node in tops]
    return [(name, node.name) for j, (name, node) in enumerate(tops)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in names for i, names in enumerate(named) if i != j)]


def _package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_check_finds_a_dead_parameter():
    source = "def f(x, ctx):\n    return x\n\ng = lambda a, b: a\n\ndef h(v):\n    def inner():\n        return v\n    return inner\n"
    assert sorted(dead_params(source)) == [("<lambda>", 4, "b"), ("f", 1, "ctx")]


def test_no_function_in_the_package_has_a_dead_parameter():
    found = [f"{path.name}:{line} {name}({param})" for path in sorted(SRC.glob("*.py"))
             for name, line, param in dead_params(path.read_text())]
    assert not found, f"parameters never read: {found}"


def test_checks_find_an_unread_field_and_an_uncalled_helper():
    a = (
        "from dataclasses import KW_ONLY, InitVar, dataclass\n\n"
        "@dataclass(frozen=True)\nclass W:\n    cts: tuple\n    memos: tuple\n    _: KW_ONLY\n"
        "    seed: InitVar[int] = 0\n\n"
        "def _pow(x, e):\n    return x if e == 1 else x * _pow(x, e - 1)\n\n"
        "def _used(w):\n    return w.cts\n"
    )
    b = "from a import _used\n\nclass Plain:\n    unread: int\n\ndef f(w):\n    return _used(w)\n"
    assert unread_fields({"a.py": a, "b.py": b}) == [("a.py", "W", "memos")]
    assert uncalled_private_functions({"a.py": a, "b.py": b}) == [("a.py", "_pow")]


def test_no_dataclass_field_in_the_package_goes_unread():
    found = [f"{name} {cls}.{attr}" for name, cls, attr in unread_fields(_package_sources())]
    assert not found, f"dataclass fields nothing reads: {found}"


def test_no_private_function_in_the_package_goes_uncalled():
    found = [f"{name} {func}" for name, func in uncalled_private_functions(_package_sources())]
    assert not found, f"private functions nothing calls: {found}"
