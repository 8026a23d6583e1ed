"""The benchmark tracer (perfbench/tracing.py) against the package.

The tracer wraps package functions and methods by attribute name, and
``perfbench/run.py`` calls package names through its module table, so a
rename in the package would break every benchmark run without any package
test failing.  These tests check that every module attribute run.py reads
exists, build the tracer over the modules the benchmark loads, check that
every attribute it wraps exists and is restored on uninstall, and that
traced evaluation rollouts record the spans the per-layer metrics read,
with untraced outputs unchanged.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from secrl.config import parse_config
from secrl.evaluation.testcases import gen_steadystate_testcase

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_modules() -> dict:
    """The secrl modules perfbench/run.py loads, read from its
    SECRL_MODULES without importing the script."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SECRL_MODULES" for t in node.targets))
    return {name: importlib.import_module(f"secrl.{name}") for name in names}


def _module_key(node, aliases: dict):
    """The SECRL_MODULES name ``node`` stands for: ``m[...]`` or
    ``self.m[...]``, or a name assigned from one; else None."""
    if isinstance(node, ast.Subscript):
        table = node.value
        if (isinstance(table, ast.Name) and table.id == "m") or (
                isinstance(table, ast.Attribute) and table.attr == "m"
                and isinstance(table.value, ast.Name) and table.value.id == "self"):
            return ast.literal_eval(node.slice)
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _module_attributes_read() -> set:
    """(module name, attribute) of every attribute run.py reads from its
    module table, per function, through the names assigned from it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    for name, value in pairs:
                        key = _module_key(value, {})
                        if isinstance(name, ast.Name) and key is not None:
                            aliases[name.id] = key
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                key = _module_key(node.value, aliases)
                if key is not None:
                    found.add((key, node.attr))
    return found


def test_every_module_attribute_the_benchmark_reads_exists():
    read = _module_attributes_read()
    # The walker sees the calls that set-up, training and resume make.
    assert {("sec", "actor_output_width"), ("checkpoint", "save_trainer"),
            ("checkpoint", "load_trainer_into"), ("ddpg.train", "Trainer")} <= read
    modules = _bench_modules()
    missing = sorted(f"secrl.{key}.{attr}" for key, attr in read
                     if key not in modules or not hasattr(modules[key], attr))
    assert not missing, f"perfbench/run.py reads names the package lacks: {missing}"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    t = _tracer_module().Tracer(_bench_modules())
    yield t
    t.uninstall()


def _current(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_wrapped_attribute_exists(tracer):
    assert len(tracer._targets) > 30
    for owner, attr, _, _ in tracer._targets:
        found = _current(owner, attr)
        assert callable(found), f"{getattr(owner, '__name__', owner)}.{attr} is gone"


def test_install_and_uninstall_restore_the_originals(tracer):
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _, _ in tracer._targets]
    tracer.install()
    for owner, attr, fn in originals:
        assert _current(owner, attr) is not fn, attr
    with tracer.off():
        for owner, attr, fn in originals:
            assert _current(owner, attr) is fn, attr
    tracer.uninstall()
    for owner, attr, fn in originals:
        assert _current(owner, attr) is fn, attr


def _rollouts(mods) -> list:
    """One short rollout per plant and policy kind, as the eval-steady
    workload runs them; returns the trajectories' arrays."""
    exp, cascade, pi = (mods["evaluation.experiment"], mods["baselines.grid_cascade"],
                        mods["baselines.pi"])
    cfg = parse_config(None, {"agent.actor.units": 10, "agent.actor.layers": 1})
    out = []
    for plant in ("grid", "motor"):
        env = exp.build_eval_env(cfg, plant)
        case = gen_steadystate_testcase(plant, 5, 1, 60)
        m = env.action_dim
        policies = []
        for width in (m, 2 * m):
            actor = mods["nn.mlp"].mlp_init([env.obs_dim, 10, width], 0.2, "tanh", 1.0, 1.0,
                                            np.random.default_rng(width))
            policies.append(exp.AgentPolicy(actor, m))
        controller = (cascade.GridCascadePolicy(cfg.grid_params()) if plant == "grid"
                      else pi.MotorPiPolicy(cfg.motor_params()))
        policies.append(exp.ControllerPolicy(controller))
        for policy in policies:
            traj = exp.rollout(env, policy, case, 9)
            out.append([traj.reference, traj.measured, traj.raw_action,
                        traj.applied_action, traj.violations])
    return out


def test_traced_rollouts_record_the_evaluation_spans(tracer):
    mods = _bench_modules()
    untraced = _rollouts(mods)
    tracer.install()
    try:
        traced = _rollouts(mods)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("evaluation.rollout", "evaluation.policy_act", "sec.wrapper", "sec.apply",
                 "envs.grid.step", "envs.motor.step", "nn.forward.actor_b1",
                 "baselines.cascade_action", "baselines.motor_pi_action"):
        assert name in names, name
    steps = {name: sum(1 for s in tracer.spans if s[0] == name)
             for name in ("envs.grid.step", "envs.motor.step", "sec.wrapper")}
    assert steps == {"envs.grid.step": 180, "envs.motor.step": 180, "sec.wrapper": 360}
    for a, b in zip(untraced, traced):
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()
