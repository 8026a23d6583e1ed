"""Every npz member the package reads goes through the checkpoint reader:
no ``np.load``, no ``np.lib.format.read_array*`` and no zip file opened or
read anywhere else."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "secrl"
# The functions of checkpoint.py that open a zip file, open a member, parse
# its npy header or read its bytes.
READER = ("_zip_file", "_member", "_parse_header", "_fill")
READ_CALLS = ("ZipFile", "open", "read", "readinto")


def member_reads(source: str, module: str) -> list[str]:
    """``module:line`` of each ``np.load`` call in ``source``, and of each
    ``read_array*``, ``ZipFile``, ``.open``, ``.read`` and ``.readinto``
    call outside the checkpoint reader."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if module == "checkpoint.py" and isinstance(fn, ast.FunctionDef)
               and fn.name in READER
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        if ((func.attr == "load" and isinstance(func.value, ast.Name)
             and func.value.id in ("np", "numpy"))
                or (id(node) not in allowed
                    and (func.attr in READ_CALLS or func.attr.startswith("read_array")))):
            found.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_package_reads_npz_members_only_through_the_checkpoint_reader():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules
             for hit in member_reads(path.read_text(), path.relative_to(SRC).as_posix())]
    assert found == []


def test_member_reads_are_found_outside_the_reader():
    source = (
        "def _member(zf, key):\n"
        "    np.load(key)\n"
        "    return zf.open(key), zf.fp.read(4), np.lib.format.read_array(zf)\n"
        "def load(path):\n"
        "    with numpy.load(path) as data:\n"
        "        data.zip.read('meta.npy')\n"
        "    zipfile.ZipFile(path).open('payload.npy')\n"
        "    np.lib.format.read_array_header_1_0(path)\n"
        "    fh.readinto(out)\n"
    )
    assert member_reads(source, "checkpoint.py") == [
        "checkpoint.py:2", "checkpoint.py:5", "checkpoint.py:6", "checkpoint.py:7",
        "checkpoint.py:7", "checkpoint.py:8", "checkpoint.py:9"]
    assert member_reads(source, "evaluation/testcases.py") == [
        f"evaluation/testcases.py:{line}" for line in (2, 3, 3, 3, 5, 6, 7, 7, 8, 9)]
