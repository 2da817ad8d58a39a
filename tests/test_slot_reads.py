"""No module of src/polyfhe but backend reads a ciphertext's .slots or
writes its fields.

SlotVector.slots is the simulator's backstage: the values a real CKKS
ciphertext would hide.  Application code reads a ciphertext's capacity from
its context (ctx.slot_capacity) and its values only through decrypt.  A
SlotVector is a value that only the backend's ops make, so no other module
stores to its .slots, .depth_used or .rows either: a caller that knows a
ciphertext's depth passes it to the backend (deserialize_ciphertext).  The
checks read every module with ast and fail on any `.slots` attribute read,
and on any store to or deletion of one of those attributes (setattr with
its name included), outside backend.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfhe"
FIELDS = {"slots", "depth_used", "rows"}


def slot_reads(source: str) -> list:
    """Line numbers of each `.slots` attribute read in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "slots" and isinstance(node.ctx, ast.Load)]


def field_writes(source: str) -> list:
    """Line numbers of each store to or deletion of a `.slots`, `.depth_used`
    or `.rows` attribute in source, by assignment, del or a setattr call
    that names it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if called in ("setattr", "__setattr__") and any(
                isinstance(arg, ast.Constant) and arg.value in FIELDS for arg in node.args
            ):
                found.append(node.lineno)
    return found


def test_check_finds_a_slots_read():
    source = "cap = sv.slots.shape[0]\nsv.slots = x\nslots = 4\nn = f(sv).slots[0]\n"
    assert sorted(slot_reads(source)) == [1, 4]


def test_check_finds_a_field_write():
    source = (
        "sv.depth_used = 3\n"
        "depth = sv.depth_used\n"
        "sv.rows += 1\n"
        "f(sv).slots[0] = 1.0\n"
        "a, sv.slots = 1, x\n"
        "del sv.rows\n"
        "setattr(sv, 'depth_used', 2)\n"
        "object.__setattr__(sv, 'rows', 2)\n"
        "rows = 2\n"
        "setattr(sv, 'scale', 2)\n"
    )
    # line 4 stores into the array .slots holds, a read of .slots (see above)
    assert sorted(field_writes(source)) == [1, 3, 5, 6, 7, 8]


def test_no_module_but_backend_reads_slots():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "backend.py"
             for line in slot_reads(path.read_text())]
    assert not found, f".slots read outside backend: {found}"


def test_no_module_but_backend_writes_a_ciphertext_field():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "backend.py"
             for line in field_writes(path.read_text())]
    assert not found, f"SlotVector field written outside backend: {found}"
