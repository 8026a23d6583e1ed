"""Training/evaluation orchestration with seeded, frozen test cases.

Evaluation always uses the deterministic policy (no exploration noise),
keeps the integrator in the action path for augmented agents, disables
limit termination so windows stay complete, and reports task metrics only.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import ConfigurationError
from ..baselines.grid_cascade import CascadeGains, GridCascadePolicy, tune_grid_cascade
from ..baselines.pi import MotorPiPolicy
from ..checkpoint import save_agent
from ..config import RunConfig
from ..ddpg.train import Trainer
from ..envs.grid import GridEnv
from ..envs.motor import MotorEnv
from ..nn.mlp import MlpParams, mlp_forward
from ..sec import PassthroughWrapper, SecActionWrapper, SecState, actor_output_width
from .metrics import Trajectory, box_stats, mean_task_reward, steady_state_metric
from .testcases import (
    GRID_LOAD_PROFILE,
    GRID_STEADYSTATE,
    MOTOR_REFERENCE_PROFILE,
    MOTOR_STEADYSTATE,
    TestCase,
    gen_grid_testcase,
    gen_motor_profile,
    gen_steadystate_testcase,
)

log = logging.getLogger(__name__)

RL_VARIANTS = ("ddpg", "sec-ddpg")


class AgentPolicy:
    """Deterministic rollout policy for a trained actor, with the
    integrator in the action path when the actor is augmented."""

    def __init__(self, actor: MlpParams, m: int, t_i: float = 0.31, t_aw: float = 0.66):
        self.actor = actor
        self.m = m
        self.augmented = actor.layer_sizes[-1] == 2 * m
        if not self.augmented and actor.layer_sizes[-1] != m:
            raise ConfigurationError(
                f"actor output width {actor.layer_sizes[-1]} matches neither {m} nor {2*m}"
            )
        self._sec = SecState.fresh(m, t_i, t_aw) if self.augmented else None

    def reset(self) -> None:
        if self._sec is not None:
            self._sec.reset()

    def act(self, obs, measurements) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        raw, _ = mlp_forward(self.actor, obs)
        if self._sec is None:
            return np.clip(raw, -1.0, 1.0), raw, None
        from ..sec import sec_apply

        u, self._sec = sec_apply(np.clip(raw, -1.0, 1.0), self._sec)
        return u, raw, self._sec.zeta.copy()


class ControllerPolicy:
    """Adapter putting classical controllers behind the same interface."""

    def __init__(self, controller):
        self.controller = controller

    def reset(self) -> None:
        self.controller.reset()

    def act(self, obs, measurements):
        u = self.controller.action(measurements)
        return u, u, None


def _apply_case(env, case: TestCase) -> None:
    if case.kind in (GRID_LOAD_PROFILE, GRID_STEADYSTATE):
        env.set_load_schedule(case.payload)
    else:
        env.set_reference_schedule(case.payload)


def rollout(env, policy, case: TestCase, seed: int) -> Trajectory:
    """One deterministic evaluation episode over a frozen test case."""
    _apply_case(env, case)
    obs = env.reset(seed=seed)
    policy.reset()
    n = case.duration
    kind = "grid" if case.kind.startswith("grid") else "motor"
    d = 3 if kind == "grid" else 2
    m = env.action_dim
    limit = env.params.v_lim if kind == "grid" else env.params.i_lim
    reference = np.empty((n, d))
    measured = np.empty((n, d))
    applied = np.empty((n, m))
    raws = []
    integ = []
    violations = np.zeros(n)
    for k in range(n):
        u, raw, zeta = policy.act(obs, env.measurements())
        raw_arr = np.asarray(raw, dtype=np.float64)
        raw_p = raw_arr[:m]
        raw_i = raw_arr[m:] if len(raw_arr) == 2 * m else None
        obs, _, terminal, info = env.step(u, raw_p=raw_p, raw_i=raw_i)
        if kind == "grid":
            reference[k] = info["v_ref"]
            measured[k] = info["v_meas"]
        else:
            reference[k] = info["i_ref"]
            measured[k] = info["i_meas"]
        applied[k] = u
        raws.append(raw_arr)
        if zeta is not None:
            integ.append(zeta)
        violations[k] = float(info["limit_violation"])
        if terminal:
            raise ConfigurationError(
                "evaluation environment terminated; construct it with termination disabled"
            )
    return Trajectory(
        kind=kind,
        limit=limit,
        reference=reference,
        measured=measured,
        raw_action=np.vstack(raws),
        applied_action=applied,
        integrator=np.vstack(integ) if integ else None,
        violations=violations,
    )


@dataclass
class ExperimentPlan:
    """Materialized experiment: variants x seeds on frozen test cases."""

    env_kind: str
    variants: list[str]
    seeds: list[int]
    out_dir: Path
    cases: list[TestCase] = field(default_factory=list)
    workers: int = 1
    save_trajectories: bool = False


def make_plan(cfg: RunConfig, out_dir: str | Path) -> ExperimentPlan:
    env_kind = cfg["env.kind"]
    case_seed = cfg["experiment.testcase_seed"]
    segments = cfg["experiment.segments"]
    seg_len = cfg["experiment.segment_length"]
    if env_kind == "grid":
        cases = [
            gen_grid_testcase(case_seed, cfg["experiment.grid_transient_steps"],
                              cfg["train.sampling_time"]),
            gen_steadystate_testcase("grid", case_seed + 1, segments, seg_len),
        ]
    else:
        radius = cfg["env.motor.reference_radius"] * cfg["env.motor.i_lim"]
        cases = [
            gen_motor_profile(case_seed, cfg["experiment.motor_profile_steps"], seg_len, radius),
            gen_steadystate_testcase("motor", case_seed + 1, segments, seg_len, radius),
        ]
    return ExperimentPlan(
        env_kind=env_kind,
        variants=list(cfg["experiment.variants"]),
        seeds=list(cfg["experiment.seeds"]),
        out_dir=Path(out_dir),
        cases=cases,
        workers=cfg["experiment.workers"],
        save_trajectories=cfg["experiment.save_trajectories"],
    )


def build_training_env(cfg: RunConfig, variant: str, seed: int):
    """Plant + action wrapper matching the agent variant."""
    env_kind = cfg["env.kind"]
    gamma = cfg["agent.gamma"]
    terminate = cfg["env.terminate_on_violation"]
    if env_kind == "grid":
        env = GridEnv(cfg.grid_params(), gamma=gamma, seed=seed, terminate_on_violation=terminate)
    else:
        env = MotorEnv(cfg.motor_params(), gamma=gamma, seed=seed, terminate_on_violation=terminate)
    if variant == "sec-ddpg":
        return SecActionWrapper(env, cfg["sec.t_i"], cfg["sec.t_aw"], cfg.sec_reward_config())
    return PassthroughWrapper(env)


def build_eval_env(cfg: RunConfig, env_kind: str | None = None):
    env_kind = env_kind or cfg["env.kind"]
    if env_kind == "grid":
        return GridEnv(cfg.grid_params(), gamma=0.0, seed=0, terminate_on_violation=False)
    return MotorEnv(cfg.motor_params(), gamma=0.0, seed=0, terminate_on_violation=False)


def eval_seed_for(case: TestCase, run_seed: int) -> int:
    # Documented rule: frozen per (test case, run seed) pair.
    return 1_000_003 * case.seed + run_seed


def train_variant(cfg: RunConfig, variant: str, seed: int, out_dir: Path | None = None):
    """Train one agent; returns (trainer result, wall seconds)."""
    wrapped = build_training_env(cfg, variant, seed)
    m = wrapped.env.action_dim
    width = actor_output_width(m, use_sec=(variant == "sec-ddpg"))
    agent_cfg = cfg.agent_config(wrapped.obs_dim, width)
    settings = cfg.train_settings()
    trainer = Trainer(wrapped, agent_cfg, settings, seed)
    t0 = time.perf_counter()
    result = trainer.run()
    wall = time.perf_counter() - t0
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_learning_curve(out_dir / "learning_curve.csv", result.curve)
        save_agent(out_dir / "agent.npz", result.agent, extra={
            "variant": variant, "seed": seed, "env_kind": cfg["env.kind"],
            "sec": {"t_i": cfg["sec.t_i"], "t_aw": cfg["sec.t_aw"]},
        })
        (out_dir / "events.json").write_text(json.dumps(result.events, indent=1))
    return result, wall


def write_learning_curve(path: Path, curve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "steps", "mean_reward"])
        for rec in curve:
            writer.writerow([rec.episode, rec.steps, rec.mean_reward])


def evaluate_policy(cfg: RunConfig, policy, cases: list[TestCase], run_seed: int,
                    out_dir: Path | None = None, save_trajectories: bool = False):
    """Metric rows for one policy over the frozen cases."""
    rows = []
    for case in cases:
        env = build_eval_env(cfg, "grid" if case.kind.startswith("grid") else "motor")
        traj = rollout(env, policy, case, eval_seed_for(case, run_seed))
        if out_dir is not None and save_trajectories:
            out_dir.mkdir(parents=True, exist_ok=True)
            traj.to_csv(out_dir / f"trajectory-{case.case_id}.csv")
        rows.append({
            "test_case_id": case.case_id,
            "metric_name": "mean_reward",
            "value": mean_task_reward(traj),
        })
        if case.kind in (GRID_STEADYSTATE, MOTOR_STEADYSTATE):
            seg_means, overall = steady_state_metric(traj, case.segment_length)
            rows.append({
                "test_case_id": case.case_id,
                "metric_name": "steady_state_mean",
                "value": overall,
            })
            rows.extend(
                {
                    "test_case_id": case.case_id,
                    "metric_name": f"segment_mean_{s:02d}",
                    "value": float(seg_means[s]),
                }
                for s in range(len(seg_means))
            )
    return rows


def _pi_policy(cfg: RunConfig, gains: CascadeGains | None):
    if cfg["env.kind"] == "grid":
        return ControllerPolicy(GridCascadePolicy(cfg.grid_params(), gains))
    return ControllerPolicy(MotorPiPolicy(cfg.motor_params()))


def _run_one(cfg_json: str, variant: str, seed: int, plan_dir: str,
             cases_payload: list, pi_gains: dict | None, save_traj: bool) -> dict:
    """One (variant, seed) run; importable top-level so it can be a worker."""
    from ..config import RunConfig as RC

    blob = json.loads(cfg_json)
    cfg = RC(blob["values"])
    cases = [TestCase(**{**c, "payload": np.asarray(c["payload"])}) for c in cases_payload]
    run_dir = Path(plan_dir) / f"{variant}-seed{seed}"
    record: dict = {"variant": variant, "seed": seed}
    t0 = time.perf_counter()
    try:
        if variant in RL_VARIANTS:
            result, wall = train_variant(cfg, variant, seed, out_dir=run_dir)
            policy = AgentPolicy(
                result.agent.actor, m=(2 if cfg["env.kind"] == "motor" else 3),
                t_i=cfg["sec.t_i"], t_aw=cfg["sec.t_aw"],
            )
            record["train_seconds"] = wall
            record["episodes"] = len(result.curve)
        elif variant == "pi":
            gains = CascadeGains(**pi_gains) if pi_gains else None
            policy = _pi_policy(cfg, gains)
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        record["rows"] = evaluate_policy(
            cfg, policy, cases, run_seed=seed, out_dir=run_dir, save_trajectories=save_traj,
        )
        record["status"] = "ok"
    except Exception as exc:  # individual run failures must not kill the batch
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["rows"] = []
    record["seconds"] = time.perf_counter() - t0
    return record


def run_experiment(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Full comparison: train/evaluate every (variant, seed), aggregate."""
    plan = make_plan(cfg, out_dir)
    plan.out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(plan.out_dir / "effective_config.yaml")
    for case in plan.cases:
        case.save(plan.out_dir / f"testcase-{case.case_id}.npz")

    pi_gains = None
    if "pi" in plan.variants and plan.env_kind == "grid":
        gains, tune_report = tune_grid_cascade(
            cfg.grid_params(), seed=cfg["experiment.pi_tune_seed"],
            steps=cfg["experiment.pi_tune_steps"],
        )
        pi_gains = gains.as_dict()
        (plan.out_dir / "pi_tuning.json").write_text(json.dumps(
            {"best": pi_gains, "best_score": tune_report["best_score"],
             "trials": len(tune_report["trials"])}, indent=1))

    cases_payload = [
        {"kind": c.kind, "seed": c.seed, "duration": c.duration,
         "segment_length": c.segment_length, "payload": c.payload.tolist()}
        for c in plan.cases
    ]
    # Seed-major order: interrupting a long batch still leaves balanced
    # variant coverage for every completed seed.
    jobs = [(variant, seed) for seed in plan.seeds for variant in plan.variants]
    cfg_json = cfg.to_json()
    records = []
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            futures = [
                pool.submit(_run_one, cfg_json, variant, seed, str(plan.out_dir),
                            cases_payload, pi_gains, plan.save_trajectories)
                for variant, seed in jobs
            ]
            records = [f.result() for f in futures]
    else:
        for variant, seed in jobs:
            log.info("running %s seed %d", variant, seed)
            records.append(_run_one(cfg_json, variant, seed, str(plan.out_dir),
                                    cases_payload, pi_gains, plan.save_trajectories))
            _write_reports(plan, records)  # refresh after every run
    records.sort(key=lambda r: (r["variant"], r["seed"]))
    summary = _write_reports(plan, records)
    return summary


def _write_reports(plan: ExperimentPlan, records: list[dict]) -> dict:
    report_path = plan.out_dir / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "test_case_id", "metric_name", "value"])
        for rec in sorted(records, key=lambda r: (r["variant"], r["seed"])):
            for row in rec["rows"]:
                writer.writerow([rec["variant"], rec["seed"],
                                 row["test_case_id"], row["metric_name"], row["value"]])

    # Aggregate box statistics per (variant, headline metric).
    summary: dict = {"env_kind": plan.env_kind, "runs": [], "metrics": {}}
    for rec in records:
        entry = {k: rec[k] for k in ("variant", "seed", "status") if k in rec}
        if "error" in rec:
            entry["error"] = rec["error"]
        if "train_seconds" in rec:
            entry["train_seconds"] = rec["train_seconds"]
        summary["runs"].append(entry)
    for metric in ("mean_reward", "steady_state_mean"):
        per_variant = {}
        for variant in plan.variants:
            vals = [
                row["value"]
                for rec in records
                if rec["variant"] == variant and rec["status"] == "ok"
                for row in rec["rows"]
                if row["metric_name"] == metric
            ]
            if vals:
                per_variant[variant] = box_stats(vals)
        summary["metrics"][metric] = per_variant
        if "ddpg" in per_variant and "sec-ddpg" in per_variant:
            summary["metrics"][metric]["median_improvement_sec_vs_ddpg"] = (
                per_variant["ddpg"]["median"] - per_variant["sec-ddpg"]["median"]
            )
            best_ddpg = per_variant["ddpg"]["max"]
            best_sec = per_variant["sec-ddpg"]["max"]
            summary["metrics"][metric]["best_improvement_fraction"] = (
                (abs(best_ddpg) - abs(best_sec)) / abs(best_ddpg) if best_ddpg != 0 else 0.0
            )
    (plan.out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary
