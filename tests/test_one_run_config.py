"""One ``RunConfig`` describes each command's run: outside ``config.py`` no
code writes into a config's ``values``, and no function of the CLI or the
run path takes an ``out_dir`` beside its config, which names the run's
directory itself.  A command that needs another config builds a new one,
``RunConfig({**cfg.values, ...})``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "secrl"
# The module that builds configs may fill its own values.
CONFIG_MODULE = "config.py"
# The modules whose functions read a run's directory from its config.
RUN_MODULES = ("cli.py", "evaluation/experiment.py")
# dict methods that change the dict in place
MUTATORS = ("update", "pop", "popitem", "setdefault", "clear")


def _is_values(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "values"


def _takes_out_dir_beside_a_config(fn) -> bool:
    params = (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
    return any(a.arg == "out_dir" for a in params) and any(
        a.arg == "cfg" or (isinstance(a.annotation, ast.Name) and a.annotation.id == "RunConfig")
        for a in params)


def config_edits(source: str, module: str) -> list[str]:
    """``module:line`` of each write into a ``.values[...]`` subscript
    (assigned, augmented or deleted) and each in-place ``.values`` method
    call outside ``config.py``, and, in the run modules, of each function
    that takes an ``out_dir`` parameter beside a config."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if module != CONFIG_MODULE:
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            found.update(sub.lineno for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Subscript) and _is_values(sub.value))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS and _is_values(node.func.value)):
                found.add(node.lineno)
        if (module in RUN_MODULES and isinstance(node, ast.FunctionDef)
                and _takes_out_dir_beside_a_config(node)):
            found.add(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_each_run_is_described_by_its_config_alone():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules
             for hit in config_edits(path.read_text(), path.relative_to(SRC).as_posix())]
    assert found == []


def test_config_edits_are_found():
    source = (
        "def cmd_eval(args):\n"
        "    cfg.values['env.kind'] = env_kind\n"
        "    flags.values['seed'] += 1\n"
        "    del cfg.values['seed']\n"
        "    cfg.values.update(seed=1)\n"
        "    run = RunConfig({**cfg.values, 'seed': cfg.values['seed']})\n"
        "    totals = counts.values()\n"
        "def run_experiment(cfg: RunConfig, out_dir: str | Path) -> dict:\n"
        "    pass\n"
        "def _write_reports(config: RunConfig, out_dir, records):\n"
        "    pass\n"
        "def write_csv(path, rows, out_dir=None):\n"
        "    pass\n"
    )
    assert config_edits(source, "cli.py") == [f"cli.py:{n}" for n in (2, 3, 4, 5, 8, 10)]
    assert config_edits(source, "evaluation/metrics.py") == [
        f"evaluation/metrics.py:{n}" for n in (2, 3, 4, 5)]
    assert config_edits(source, "config.py") == []
