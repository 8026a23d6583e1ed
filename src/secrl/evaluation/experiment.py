"""Training/evaluation orchestration with seeded, frozen test cases.

Evaluation always uses the deterministic policy (no exploration noise),
steps the plant through the same SecActionWrapper as training (so augmented
agents keep the integrator in the action path), disables limit termination
so windows stay complete, and reports task metrics only.

This module is the one run path: ``secrl train``, ``eval``, ``gen-testcase``
and ``compare`` build trainers, write run artifacts, make test cases and
write reports through the functions here, and every grid/motor difference
is a field of one entry in ``testcases.PLANTS``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import logging
import multiprocessing
import os
import platform
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from pathlib import Path

import numpy as np

from .. import ConfigurationError
from ..baselines.grid_cascade import CascadeGains
from ..checkpoint import atomic_write, save_agent, save_trainer, write_csv
from ..config import RL_VARIANTS, RunConfig
from ..ddpg.train import Trainer, TrainResult
from ..nn.mlp import MlpParams, mlp_forward
from ..sec import SecActionWrapper
from .metrics import (
    Trajectory,
    box_stats,
    mean_task_reward,
    require_steady_state_window,
    steady_state_metric,
)
from .testcases import CASE_PLANT, PLANTS, TestCase, case_plant, gen_steadystate_testcase

log = logging.getLogger(__name__)


class AgentPolicy:
    """Deterministic rollout policy for a trained actor.  An augmented
    actor (2m outputs) carries the integrator settings (t_i, t_aw) that
    rollout builds its action wrapper with.

    A policy's ``act(obs, measurements)`` reads the observation when its
    ``observes`` is true, else the measurements; rollout computes only
    that one and passes None for the other."""

    observes = True

    def __init__(self, actor: MlpParams, m: int, t_i: float = 0.31, t_aw: float = 0.66):
        self.actor = actor
        self.m = m
        augmented = actor.layer_sizes[-1] == 2 * m
        if not augmented and actor.layer_sizes[-1] != m:
            raise ConfigurationError(
                f"actor output width {actor.layer_sizes[-1]} matches neither {m} nor {2*m}"
            )
        self.sec_params = (t_i, t_aw) if augmented else None

    def reset(self) -> None:
        """Stateless: the integrator lives in the action wrapper."""

    def act(self, obs, measurements) -> np.ndarray:
        raw, _ = mlp_forward(self.actor, obs, cache=False)
        # np.clip to [-1, 1], without its Python wrapper.
        return np.minimum(np.maximum(raw, -1.0), 1.0)


class ControllerPolicy:
    """Adapter putting classical controllers behind the same interface."""

    sec_params = None
    observes = False

    def __init__(self, controller):
        self.controller = controller

    def reset(self) -> None:
        self.controller.reset()

    def act(self, obs, measurements):
        return self.controller.action(measurements)


def rollout(env, policy, case: TestCase, seed: int) -> Trajectory:
    """One deterministic evaluation episode over a frozen test case, with
    the plant stepped through SecActionWrapper as in training.

    Each step computes only what the trajectory records and what the
    policy reads: no task reward (the metrics recompute it from the
    trajectory), and either the observation or the measurements."""
    plant = CASE_PLANT[case.kind]
    plant.set_schedule(env, case.payload)
    t_i, t_aw = policy.sec_params or (None, None)
    wrapped = SecActionWrapper(env, t_i, t_aw)
    obs = wrapped.reset(seed=seed)
    policy.reset()
    n = case.duration
    ref_key, meas_key = plant.ref_key, plant.meas_key
    d = len(env.measurements()["ref"])
    reference = np.empty((n, d))
    measured = np.empty((n, d))
    raws = np.empty((n, wrapped.action_dim))
    applied = np.empty((n, env.action_dim))
    integ = np.empty((n, env.action_dim)) if wrapped.state is not None else None
    violations = np.zeros(n)
    observes = policy.observes
    for k in range(n):
        u_raw = policy.act(obs, None if observes else env.measurements())
        obs, _, terminal, info = wrapped.step(u_raw, scored=False, observed=observes)
        raws[k] = u_raw
        reference[k] = info[ref_key]
        measured[k] = info[meas_key]
        applied[k] = info["applied_action"]
        if integ is not None:
            integ[k] = info["integrator_state"]
        violations[k] = float(info["limit_violation"])
        if terminal:
            raise ConfigurationError(
                "evaluation environment terminated; construct it with termination disabled"
            )
    return Trajectory(
        kind=plant.name,
        limit=getattr(env.params, plant.limit),
        reference=reference,
        measured=measured,
        raw_action=raws,
        applied_action=applied,
        integrator=integ,
        violations=violations,
    )


def make_testcase(cfg: RunConfig, kind: str, seed: int, steps: int | None = None) -> TestCase:
    """The frozen test case of `kind` and `seed` under `cfg`; `steps`
    (>= 1) overrides the configured length of a transient profile.  A
    steady-state case's length is set by its segments, so it refuses
    `steps`, and its segments must leave its plant a steady-state window."""
    plant = case_plant(kind)
    seg_len = cfg["experiment.segment_length"]
    radius = cfg["env.motor.reference_radius"] * cfg["env.motor.i_lim"]
    if kind == plant.cases[1]:
        if steps is not None:
            raise ConfigurationError(
                f"steps applies to transient profiles only; the length of {kind} is "
                "experiment.segments x experiment.segment_length")
        require_steady_state_window(plant.name, seg_len)
        return gen_steadystate_testcase(kind, seed, cfg["experiment.segments"], seg_len, radius)
    if steps is not None and steps < 1:
        raise ConfigurationError(f"test case steps must be >= 1, got {steps}")
    return plant.profile(cfg, seed, steps, radius)


def build_training_env(cfg: RunConfig, variant: str, seed: int):
    """Plant + action wrapper matching the agent variant."""
    plant = PLANTS[cfg["env.kind"]]
    env = plant.env_cls(cfg.plant_params(plant.name), gamma=cfg["agent.gamma"], seed=seed,
                        terminate_on_violation=cfg["env.terminate_on_violation"])
    if variant == "sec-ddpg":
        return SecActionWrapper(env, cfg["sec.t_i"], cfg["sec.t_aw"], cfg.sec_reward_config())
    return SecActionWrapper(env)


def build_eval_env(cfg: RunConfig, env_kind: str | None = None):
    plant = PLANTS[env_kind or cfg["env.kind"]]
    return plant.env_cls(cfg.plant_params(plant.name), gamma=0.0, seed=0,
                         terminate_on_violation=False)


def eval_seed_for(case: TestCase, run_seed: int) -> int:
    # Documented rule: frozen per (test case, run seed) pair.
    return 1_000_003 * case.seed + run_seed


def build_trainer(cfg: RunConfig) -> Trainer:
    """A fresh trainer for the run of `cfg`: its ``agent.variant`` and ``seed``."""
    wrapped = build_training_env(cfg, cfg["agent.variant"], cfg["seed"])
    # The wrapper's action width is the actor's: m plant channels, or 2m with SEC.
    return Trainer(wrapped, cfg.agent_config(wrapped.obs_dim, wrapped.action_dim),
                   cfg.train_settings(), cfg["seed"])


def write_checkpoint(trainer: Trainer, cfg: RunConfig) -> None:
    """The resumable snapshot ``checkpoint.npz`` in the run's ``out_dir``,
    with the config echo that ``--resume`` checks."""
    save_trainer(Path(cfg["out_dir"]) / "checkpoint.npz", trainer,
                 config_echo=json.loads(cfg.to_json()))
    log.info("checkpoint written at step %d", trainer.step)


def train_agent(trainer: Trainer, cfg: RunConfig, until_step: int | None = None) -> TrainResult:
    """Run `trainer` and write every file of the run to its ``out_dir``:
    ``effective_config.yaml``, ``agent.npz``, ``learning_curve.csv``,
    ``events.json`` (also when the run raises), and ``checkpoint.npz``
    (``write_checkpoint``) at every multiple of ``train.checkpoint_every``,
    on an interrupt, and, given `until_step`, where the run stops.  A
    caller resumes `trainer` before this call, so a refused resume leaves
    ``out_dir`` untouched.  A progress line is logged at every multiple of
    ``train.progress_every``; the trainer runs from one such step to the
    next, which leaves its results unchanged."""
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "effective_config.yaml")
    total = trainer.settings.total_steps
    stop_at = total if until_step is None else until_step
    progress_every, checkpoint_every = cfg["train.progress_every"], cfg["train.checkpoint_every"]
    cadences = [n for n in (progress_every, checkpoint_every) if n]
    written = None  # the step of the last snapshot the cadence wrote
    try:
        with _interrupts_between_steps(trainer, cfg):
            while True:
                start = trainer.step
                # Run to the next multiple of a cadence, or to the stop.
                boundary = min([stop_at, *((start // n + 1) * n for n in cadences)])
                result = trainer.run(until_step=boundary)
                step = trainer.step
                if step == start:
                    break
                if progress_every and step % progress_every == 0:
                    recent = trainer.curve[-1].mean_reward if trainer.curve else float("nan")
                    log.info("step %d/%d, episodes %d, last episode mean reward %.5f",
                             step, total, trainer.episode, recent)
                if checkpoint_every and step % checkpoint_every == 0:
                    write_checkpoint(trainer, cfg)
                    written = step
    finally:
        with atomic_write(out_dir / "events.json", text=True) as fh:
            fh.write(json.dumps(trainer.events, indent=1))
    if until_step is not None and written != trainer.step:
        write_checkpoint(trainer, cfg)
    save_agent(out_dir / "agent.npz", result.agent, extra={
        "variant": cfg["agent.variant"], "seed": trainer.seed, "env_kind": cfg["env.kind"],
        "sec": {"t_i": cfg["sec.t_i"], "t_aw": cfg["sec.t_aw"]},
    })
    write_learning_curve(out_dir / "learning_curve.csv", result.curve)
    return result


@contextlib.contextmanager
def _sigint_calls(handler):
    """Have Ctrl-C (SIGINT) call `handler` while the block runs.  A SIGINT
    that raises no KeyboardInterrupt (an ignored one) is left as it is."""
    replaced = signal.getsignal(signal.SIGINT) is signal.default_int_handler
    if replaced:
        signal.signal(signal.SIGINT, handler)
    try:
        yield
    finally:
        if replaced:
            signal.signal(signal.SIGINT, signal.default_int_handler)


@contextlib.contextmanager
def _interrupts_between_steps(trainer: Trainer, cfg: RunConfig):
    """Defer SIGINT to the end of the block: it ends the trainer's run
    after the current step, and the block then writes the snapshot of
    that step, with SIGINT still deferred, and raises KeyboardInterrupt.
    The snapshot resumes to the bytes of an uninterrupted run, where one
    taken inside a step, its update half done, would not.  A
    KeyboardInterrupt raised in the block also leaves a snapshot."""
    def request_stop(signum, frame):
        trainer.stop_requested = True

    try:
        with _sigint_calls(request_stop):
            try:
                yield
            except KeyboardInterrupt:
                trainer.stop_requested = True
            if trainer.stop_requested:
                write_checkpoint(trainer, cfg)  # the full training state, for --resume
    finally:
        stopped, trainer.stop_requested = trainer.stop_requested, False
    if stopped:
        raise KeyboardInterrupt


def _forward_interrupt(signum, frame):
    """Pass SIGINT on to this process's children, then raise
    KeyboardInterrupt.  Ctrl-C reaches them anyway; a SIGINT sent to
    this process alone does not."""
    for child in multiprocessing.active_children():
        with contextlib.suppress(ProcessLookupError):
            os.kill(child.pid, signal.SIGINT)
    raise KeyboardInterrupt


def write_learning_curve(path: Path, curve) -> None:
    write_csv(path, ["episode", "steps", "mean_reward"],
              ([rec.episode, rec.steps, rec.mean_reward] for rec in curve))


def evaluate_policy(cfg: RunConfig, policy, cases: list[TestCase], run_seed: int,
                    trajectory_dir: Path | None = None):
    """Metric rows for one policy over the frozen cases; with a
    `trajectory_dir`, each case's trajectory is also written there."""
    rows = []
    for case in cases:
        env = build_eval_env(cfg, CASE_PLANT[case.kind].name)
        traj = rollout(env, policy, case, eval_seed_for(case, run_seed))
        if trajectory_dir is not None:
            trajectory_dir.mkdir(parents=True, exist_ok=True)
            traj.to_csv(trajectory_dir / f"trajectory-{case.case_id}.csv")
        metrics = [("mean_reward", mean_task_reward(traj))]
        if case.steady_state:
            seg_means, overall = steady_state_metric(traj, case.segment_length)
            metrics.append(("steady_state_mean", overall))
            metrics += [(f"segment_mean_{s:02d}", float(v)) for s, v in enumerate(seg_means)]
        rows += [{"test_case_id": case.case_id, "metric_name": name, "value": value}
                 for name, value in metrics]
    return rows


def _run_one(cfg: RunConfig, cases: list[TestCase], pi_gains: CascadeGains | None) -> dict:
    """The run of `cfg`: its ``agent.variant`` and ``seed``, into its
    ``out_dir``; importable top-level so it can be a worker."""
    variant, seed = cfg["agent.variant"], cfg["seed"]
    record: dict = {"variant": variant, "seed": seed}
    try:
        if variant in RL_VARIANTS:
            trainer = build_trainer(cfg)
            t_train = time.perf_counter()
            result = train_agent(trainer, cfg)
            record["train_seconds"] = time.perf_counter() - t_train
            policy = AgentPolicy(result.agent.actor, m=trainer.env.m,
                                 t_i=cfg["sec.t_i"], t_aw=cfg["sec.t_aw"])
        elif variant == "pi":
            plant = PLANTS[cfg["env.kind"]]
            policy = ControllerPolicy(plant.pi(cfg.plant_params(plant.name), pi_gains))
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        traj_dir = Path(cfg["out_dir"]) if cfg["experiment.save_trajectories"] else None
        record["rows"] = evaluate_policy(cfg, policy, cases, run_seed=seed, trajectory_dir=traj_dir)
        record["status"] = "ok"
    except Exception as exc:  # individual run failures must not kill the batch
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["rows"] = []
    return record


def run_experiment(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Full comparison: train/evaluate every (variant, seed) on the
    plant's two frozen test cases, aggregate."""
    out_dir = Path(out_dir)
    case_seed = cfg["experiment.testcase_seed"]
    plant = PLANTS[cfg["env.kind"]]
    cases = [make_testcase(cfg, kind, case_seed + k) for k, kind in enumerate(plant.cases)]
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "effective_config.yaml")
    for case in cases:
        case.save(out_dir / f"testcase-{case.case_id}.npz")

    pi_gains = None
    if "pi" in cfg["experiment.variants"] and plant.tune is not None:
        pi_gains, tune_report = plant.tune(
            cfg.plant_params(plant.name), seed=cfg["experiment.pi_tune_seed"],
            steps=cfg["experiment.pi_tune_steps"],
        )
        with atomic_write(out_dir / "pi_tuning.json", text=True) as fh:
            fh.write(json.dumps({"best": pi_gains.as_dict(), "best_score": tune_report["best_score"],
                                 "trials": len(tune_report["trials"])}, indent=1))

    # One config per run, as `secrl train` would parse it for that variant
    # and seed.  Seed-major order: interrupting a long batch still leaves
    # balanced variant coverage for every completed seed.
    jobs = [(RunConfig({**cfg.values, "agent.variant": variant, "seed": seed,
                        "out_dir": str(out_dir / f"{variant}-seed{seed}")}), cases, pi_gains)
            for seed in cfg["experiment.seeds"] for variant in cfg["experiment.variants"]]
    records = []
    try:
        for record in _finished_runs(jobs, cfg["experiment.workers"]):
            records.append(record)
            _write_reports(cfg, out_dir, records)  # refresh after every run
    except KeyboardInterrupt as exc:
        exc.finished_runs = len(records)
        raise
    records.sort(key=lambda r: (r["variant"], r["seed"]))
    return _write_reports(cfg, out_dir, records)


def _finished_runs(jobs: list[tuple], workers: int):
    """Yield each job's `_run_one` record as it finishes: in job order
    when serial, in completion order across `workers` processes.  At most
    `workers` runs are submitted at a time: the pool moves submitted calls
    into its queue ahead of its workers, so after an interrupt, which
    stops the batch, a longer queue would still start runs.  A SIGINT of
    this process reaches the workers too, so each run in flight stops at
    its next step and leaves its snapshot; a run that finished first still
    reports."""
    if workers == 1:
        for job in jobs:
            log.info("running %s seed %d", job[0]["agent.variant"], job[0]["seed"])
            yield _run_one(*job)
        return
    pending, running = list(jobs), set()
    with _sigint_calls(_forward_interrupt), ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker) as pool:
        try:
            while pending or running:
                if pending and len(running) < workers:
                    running.add(pool.submit(_worker_run, *pending.pop(0)))
                    continue
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    running.remove(future)
                    yield future.result()
        except KeyboardInterrupt:
            for future in as_completed(running):
                if future.exception() is None:
                    yield future.result()
            raise


def _start_worker() -> None:
    """Set up a pool worker: it ignores SIGINT between runs, where
    KeyboardInterrupt would end the worker and break the pool."""
    keep_freed_memory()
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_run(*job) -> dict:
    """`_run_one` in a pool worker, where SIGINT interrupts it as in the
    parent: a training run stops at its next step and leaves its snapshot."""
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return _run_one(*job)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse rather than return it to the
    kernel.  A training update tick at the tuned sizes frees about 19 MB of
    numpy temporaries; under glibc's default policy the next tick faults
    them back in, about 5k minor page faults per tick.  Both thresholds are
    set, as setting either alone also turns glibc's dynamic thresholds off.

    Called once by ``secrl train``, ``secrl compare`` and each ``compare``
    worker; a no-op on other C libraries."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: blocks up to 32 MiB come from the heap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB free at the heap top


def write_report(path: Path, records: list[dict]) -> None:
    """``report.csv``: the metric rows of each (variant, seed) record."""
    write_csv(path, ["variant", "seed", "test_case_id", "metric_name", "value"],
              ([rec["variant"], rec["seed"], row["test_case_id"], row["metric_name"], row["value"]]
               for rec in sorted(records, key=lambda r: (r["variant"], r["seed"]))
               for row in rec["rows"]))


def _write_reports(cfg: RunConfig, out_dir: Path, records: list[dict]) -> dict:
    write_report(out_dir / "report.csv", records)

    # Aggregate box statistics per (variant, headline metric).
    summary: dict = {"env_kind": cfg["env.kind"], "runs": [], "metrics": {}}
    for rec in records:
        summary["runs"].append({k: rec[k] for k in
                                ("variant", "seed", "status", "error", "train_seconds")
                                if k in rec})
    for metric in ("mean_reward", "steady_state_mean"):
        per_variant = {}
        for variant in cfg["experiment.variants"]:
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
    with atomic_write(out_dir / "summary.json", text=True) as fh:
        fh.write(json.dumps(summary, indent=1))
    return summary
