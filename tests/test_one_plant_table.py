"""Every grid/motor and test-case-kind decision reads the plant table
``evaluation.testcases.PLANTS``: outside its assignment and the plant
modules themselves, no code compares against a plant or case-kind name,
keys a dict by one, or lists two of them."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "secrl"
# The plants' own modules may name themselves.
PLANT_MODULES = ("envs/grid.py", "envs/motor.py")
# Plant and test-case-kind names, as string literals.
NAMES = {"grid", "motor", "grid-load-profile", "motor-reference-profile",
         "grid-steadystate", "motor-steadystate"}
# ... and as constants.
CONSTANT = re.compile(r"(GRID|MOTOR)_[A-Z0-9_]*$")


def _is_name(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in NAMES
    return isinstance(node, ast.Name) and bool(CONSTANT.match(node.id))


def _holds_names(node) -> bool:
    """A tuple, list or set literal with two or more names."""
    return (isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and sum(map(_is_name, node.elts)) >= 2)


def plant_decisions(source: str, module: str) -> list[str]:
    """``module:line`` of each comparison or membership test against a
    name, each dict keyed by one and each literal listing two, outside the
    ``PLANTS`` assignment."""
    tree = ast.parse(source)
    table = {id(node) for stmt in ast.walk(tree)
             if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "PLANTS" for t in stmt.targets)
             for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(_is_name(op) or _holds_names(op) for op in operands)
        elif isinstance(node, ast.Dict):
            hit = any(key is not None and _is_name(key) for key in node.keys)
        else:
            hit = _holds_names(node)
        if hit:
            found.add(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_every_plant_decision_reads_the_plant_table():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules
             if path.relative_to(SRC).as_posix() not in PLANT_MODULES
             for hit in plant_decisions(path.read_text(), path.relative_to(SRC).as_posix())]
    assert found == []


def test_plant_decisions_are_found_outside_the_table():
    source = (
        "PLANTS = {'grid': Plant((GRID_LOAD_PROFILE, GRID_STEADYSTATE))}\n"
        "SKIP = {'grid': 100, 'motor': 200}\n"
        "if kind == 'grid' or kind != MOTOR_STEADYSTATE:\n"
        "    pass\n"
        "ok = kind in (GRID_STEADYSTATE, MOTOR_STEADYSTATE)\n"
        "KINDS = [GRID_LOAD_PROFILE, 'motor-reference-profile']\n"
        "CHOICES = {'grid', 'motor'}\n"
        "one = ('grid', 'ddpg')\n"
        "default = _Key('grid')\n"
        "PLANTS_TOO = {'motor': 1}\n"
    )
    assert plant_decisions(source, "m.py") == [f"m.py:{line}" for line in (2, 3, 5, 6, 7, 10)]
