"""Command-line entry point: train, eval, compare, gen-testcase.

Configuration precedence is flags > config file > defaults; the effective
configuration is echoed into the output directory of every run.  Errors
exit nonzero after printing a machine-readable JSON record to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import ConfigurationError, EnvironmentFault, TrainingFault
from .checkpoint import load_agent, load_trainer_into
from .config import RL_VARIANTS, RunConfig, parse_config, parse_override_strings
from .evaluation.experiment import (
    AgentPolicy,
    build_eval_env,
    build_trainer,
    evaluate_policy,
    keep_freed_memory,
    make_testcase,
    run_experiment,
    train_agent,
    write_report,
)
from .evaluation.metrics import require_steady_state_window
from .evaluation.testcases import CASE_PLANT, PLANTS, TestCase

log = logging.getLogger("secrl")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat YAML config file")
    p.add_argument("--seed", type=int, default=None, help="run seed (overrides config)")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="config override, repeatable (e.g. --override agent.gamma=0.9)",
    )
    p.add_argument("-v", "--verbose", action="store_true")


def _load_config(args) -> RunConfig:
    overrides = parse_override_strings(args.override)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    return parse_config(args.config, overrides)


def cmd_train(args) -> int:
    keep_freed_memory()
    cfg = _load_config(args)
    out_dir = Path(cfg["out_dir"])
    variant = cfg["agent.variant"]
    if variant not in RL_VARIANTS:
        raise ConfigurationError(
            f"agent.variant must be {' or '.join(RL_VARIANTS)} for train, got {variant!r}")
    trainer = build_trainer(cfg)
    if args.resume is not None:
        # Only the output directory may differ from the snapshot's config.
        load_trainer_into(args.resume, trainer, config_echo=json.loads(cfg.to_json()))
        log.info("resumed from %s at step %d", args.resume, trainer.step)
    until_step = cfg["train.steps"] if args.until_step is None else args.until_step
    if until_step < trainer.step:
        raise ConfigurationError(
            f"--until-step {until_step} is below the trainer's step {trainer.step}")
    try:
        result = train_agent(trainer, cfg, until_step=until_step)
    except KeyboardInterrupt:
        print(json.dumps({"interrupted_at_step": trainer.step,
                          "resume_from": str(out_dir / "checkpoint.npz")}), file=sys.stderr)
        return 130
    print(f"trained {variant} for {trainer.step} steps "
          f"({len(result.curve)} episodes); artifacts in {out_dir}")
    return 0


def _agent_extra(extra, cfg: RunConfig) -> dict:
    """The plant and integrator settings in an agent file's ``extra``, as
    config values; the config's plant when it names none.  An ``extra``
    that is no dict, a plant name that is no plant, or a ``sec`` entry that
    is no dict of positive numbers raises ConfigurationError."""
    if not isinstance(extra, dict):
        raise ConfigurationError(f"checkpoint extra: {type(extra).__name__}, expected a dict")
    env_kind, sec = extra.get("env_kind", cfg["env.kind"]), extra.get("sec", {})
    if env_kind not in list(PLANTS):
        raise ConfigurationError(
            f"checkpoint extra.env_kind: {env_kind!r}, expected one of {', '.join(PLANTS)}")
    if not isinstance(sec, dict) or not all(
            type(v) in (int, float) and 0 < v < math.inf for v in sec.values()):
        raise ConfigurationError(f"checkpoint extra.sec: {sec!r}, expected positive numbers")
    return {"env.kind": env_kind,
            **{f"sec.{key}": float(sec[key]) for key in ("t_i", "t_aw") if key in sec}}


def cmd_eval(args) -> int:
    flags = _load_config(args)
    agent, extra = load_agent(args.checkpoint)
    # The scored config: the flags', with the agent file's plant and integrator settings.
    cfg = RunConfig({**flags.values, **_agent_extra(extra, flags)})
    if cfg["env.kind"] != flags["env.kind"]:
        log.warning("checkpoint env %s overrides config env %s", cfg["env.kind"], flags["env.kind"])
    out_dir = Path(cfg["out_dir"])
    cases = [TestCase.load(p) for p in args.testcase]
    env = build_eval_env(cfg)
    if agent.actor.layer_sizes[0] != env.obs_dim:
        raise ConfigurationError(
            f"checkpoint actor expects {agent.actor.layer_sizes[0]} features, "
            f"environment provides {env.obs_dim}"
        )
    for case in cases:
        if case.kind not in PLANTS[cfg["env.kind"]].cases:
            raise ConfigurationError(f"test case {case.case_id} is not a {cfg['env.kind']} case")
        if case.steady_state:
            require_steady_state_window(cfg["env.kind"], case.segment_length)
    policy = AgentPolicy(agent.actor, m=env.action_dim, t_i=cfg["sec.t_i"], t_aw=cfg["sec.t_aw"])
    # Echoed after every check, so a refused eval leaves --out untouched.
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "effective_config.yaml")
    rows = evaluate_policy(cfg, policy, cases, run_seed=cfg["seed"], trajectory_dir=out_dir)
    write_report(out_dir / "report.csv",
                 [{"variant": extra.get("variant", "agent"), "seed": cfg["seed"], "rows": rows}])
    headline: dict = {}
    for r in rows:
        if r["metric_name"] in ("mean_reward", "steady_state_mean"):
            headline.setdefault(r["test_case_id"], {})[r["metric_name"]] = r["value"]
    print(json.dumps({"checkpoint": str(args.checkpoint), "metrics": headline}))
    return 0


def cmd_compare(args) -> int:
    keep_freed_memory()
    cfg = _load_config(args)
    out_dir = Path(cfg["out_dir"])
    try:
        summary = run_experiment(cfg)
    except KeyboardInterrupt as exc:
        # The finished runs' reports stay; a training run in flight left its snapshot.
        print(json.dumps({"interrupted": "compare",
                          "finished_runs": getattr(exc, "finished_runs", 0),
                          "out": str(out_dir)}), file=sys.stderr)
        return 130
    ok = [r for r in summary["runs"] if r["status"] == "ok"]
    print(f"compare finished: {len(ok)}/{len(summary['runs'])} runs ok; "
          f"summary in {out_dir / 'summary.json'}")
    return 0 if ok else 1


def cmd_gen_testcase(args) -> int:
    cfg = _load_config(args)
    case = make_testcase(cfg, args.kind, cfg["seed"], args.steps)
    path = Path(cfg["out_dir"]) / f"testcase-{case.case_id}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    case.save(path)
    print(str(path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrl",
        description="Train and evaluate steady-state-error-compensated control agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent and write checkpoints")
    _add_common(p_train)
    p_train.add_argument("--resume", type=Path, default=None, help="trainer checkpoint to resume")
    p_train.add_argument("--until-step", type=int, default=None,
                         help="pause at this step, leaving a resumable checkpoint")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on frozen test cases")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--testcase", type=Path, action="append", required=True,
                        help="test case file from gen-testcase, repeatable")
    p_eval.set_defaults(fn=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train/evaluate variants x seeds, aggregate")
    _add_common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_gen = sub.add_parser("gen-testcase", help="generate and freeze a test case")
    _add_common(p_gen)
    p_gen.add_argument("--kind", required=True, choices=tuple(CASE_PLANT))
    p_gen.add_argument("--steps", type=int, default=None)
    p_gen.set_defaults(fn=cmd_gen_testcase)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(json.dumps({"error": "configuration", "message": str(exc)}), file=sys.stderr)
        return 2
    except (TrainingFault, EnvironmentFault) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last resort
        print(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
