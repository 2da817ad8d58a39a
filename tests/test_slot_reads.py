"""No module of src/polyfhe but backend reads a ciphertext's .slots.

SlotVector.slots is the simulator's backstage: the values a real CKKS
ciphertext would hide.  Application code reads a ciphertext's capacity from
its context (ctx.slot_capacity) and its values only through decrypt.  The
check reads every module with ast and fails on any `.slots` attribute read
outside backend.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfhe"


def slot_reads(source: str) -> list:
    """Line numbers of each `.slots` attribute read in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "slots" and isinstance(node.ctx, ast.Load)]


def test_check_finds_a_slots_read():
    source = "cap = sv.slots.shape[0]\nsv.slots = x\nslots = 4\nn = f(sv).slots[0]\n"
    assert sorted(slot_reads(source)) == [1, 4]


def test_no_module_but_backend_reads_slots():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "backend.py"
             for line in slot_reads(path.read_text())]
    assert not found, f".slots read outside backend: {found}"
