"""Every file the package writes goes through ``checkpoint.atomic_write``:
no builtin ``open()`` and no ``Path.write_text``/``write_bytes`` elsewhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "secrl"


def direct_writes(source: str, module: str) -> list[str]:
    """``module:line`` of each builtin ``open()``, ``.write_text()`` and
    ``.write_bytes()`` call in ``source``, except inside
    ``checkpoint.atomic_write``."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if module == "checkpoint.py" and isinstance(fn, ast.FunctionDef)
               and fn.name == "atomic_write"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"))):
            found.append(f"{module}:{node.lineno}")
    return found


def test_package_writes_files_only_through_atomic_write():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules
             for hit in direct_writes(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


def test_direct_writes_are_found_outside_atomic_write():
    source = (
        "def atomic_write(path):\n"
        "    return open(path, 'x')\n"
        "def echo(path, text):\n"
        "    Path(path).write_text(text)\n"
        "    path.write_bytes(b'')\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n"
    )
    assert direct_writes(source, "checkpoint.py") == \
        ["checkpoint.py:4", "checkpoint.py:5", "checkpoint.py:6"]
    assert direct_writes(source, "config.py") == \
        ["config.py:2", "config.py:4", "config.py:5", "config.py:6"]
