"""Experiment orchestration: rollouts, zero-step runs, report cardinality."""

import contextlib
import importlib.util
import json
import logging
import multiprocessing
import os
import re
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from secrl import TrainingFault
from secrl.checkpoint import load_agent, load_trainer_into
from secrl.config import parse_config
from secrl.ddpg.train import EpisodeRecord
from secrl.evaluation import experiment
from secrl.evaluation.experiment import (
    AgentPolicy,
    ControllerPolicy,
    build_eval_env,
    eval_seed_for,
    rollout,
    run_experiment,
    write_report,
)
from secrl.evaluation.metrics import Trajectory
from secrl.evaluation.testcases import gen_steadystate_testcase
from secrl.nn.mlp import mlp_forward, mlp_init
from secrl.sec import SecActionWrapper
from secrl.seeding import derive_rng

FAST = {
    "train.steps": 0,
    "agent.batch_size": 16,
    "agent.critic.units": 12,
    "agent.critic.layers": 1,
    "agent.actor.units": 10,
    "agent.actor.layers": 1,
    "experiment.segments": 3,
    "experiment.segment_length": 500,
    "experiment.motor_profile_steps": 1500,
    "experiment.grid_transient_steps": 1500,
}
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def motor_cfg(**extra):
    over = dict(FAST)
    over.update({"env.kind": "motor"})
    over.update(extra)
    return parse_config(None, over)


class TestRollout:
    def test_augmented_policy_rolls_deterministically(self):
        cfg = motor_cfg()
        case = gen_steadystate_testcase("motor", seed=3, segments=3, segment_length=500)
        actor = mlp_init([20, 10, 4], 0.208, "tanh", 1e-2, 1e-2, derive_rng(0, 0))
        policy = AgentPolicy(actor, m=2)
        env = build_eval_env(cfg)
        t1 = rollout(env, policy, case, seed=eval_seed_for(case, 1))
        env2 = build_eval_env(cfg)
        policy2 = AgentPolicy(actor, m=2)
        t2 = rollout(env2, policy2, case, seed=eval_seed_for(case, 1))
        assert np.array_equal(t1.measured, t2.measured)
        assert np.array_equal(t1.raw_action, t2.raw_action)
        assert t1.integrator is not None
        assert t1.raw_action.shape == (1500, 4)
        assert t1.applied_action.shape == (1500, 2)

    def test_plain_policy_has_no_integrator(self):
        cfg = motor_cfg()
        case = gen_steadystate_testcase("motor", seed=3, segments=3, segment_length=500)
        actor = mlp_init([20, 10, 2], 0.208, "tanh", 1e-2, 1e-2, derive_rng(1, 0))
        policy = AgentPolicy(actor, m=2)
        traj = rollout(build_eval_env(cfg), policy, case, seed=1)
        assert traj.integrator is None
        assert traj.raw_action.shape == (1500, 2)

    @pytest.mark.parametrize("plant", ["grid", "motor"])
    def test_rollout_equals_stepping_the_training_wrapper(self, plant):
        cfg = parse_config(None, {**FAST, "env.kind": plant})
        case = gen_steadystate_testcase(plant, seed=5, segments=2, segment_length=500)
        env = build_eval_env(cfg)
        m = env.action_dim
        # Large output biases saturate the actor, so the integrator winds up
        # into the clip and the anti-windup term engages.
        actor = mlp_init([env.obs_dim, 10, 2 * m], 0.208, "tanh", 1.0, 3.0, derive_rng(7, 0))
        traj = rollout(env, AgentPolicy(actor, m, t_i=0.31, t_aw=0.66), case, seed=11)

        env = build_eval_env(cfg)
        if plant == "grid":
            env.set_load_schedule(case.payload)
        else:
            env.set_reference_schedule(case.payload)
        wrapped = SecActionWrapper(env, 0.31, 0.66)
        obs = wrapped.reset(seed=11)
        rows = {"raw": [], "applied": [], "zeta": [], "meas": []}
        for _ in range(case.duration):
            raw = np.clip(mlp_forward(actor, obs)[0], -1.0, 1.0)
            obs, _, _, info = wrapped.step(raw)
            rows["raw"].append(raw)
            rows["applied"].append(info["applied_action"])
            rows["zeta"].append(info["integrator_state"])
            rows["meas"].append(info["v_meas" if plant == "grid" else "i_meas"])
        assert traj.raw_action.tobytes() == np.vstack(rows["raw"]).tobytes()
        assert traj.applied_action.tobytes() == np.vstack(rows["applied"]).tobytes()
        assert traj.integrator.tobytes() == np.vstack(rows["zeta"]).tobytes()
        assert traj.measured.tobytes() == np.vstack(rows["meas"]).tobytes()
        # Anti-windup engaged: some channel sat on the clip bound on most steps.
        assert np.mean(np.any(np.abs(traj.applied_action) == 1.0, axis=1)) > 0.5

    def test_trajectory_csv_export(self, tmp_path):
        cfg = motor_cfg()
        case = gen_steadystate_testcase("motor", seed=4, segments=3, segment_length=500)
        actor = mlp_init([20, 10, 4], 0.208, "tanh", 1e-2, 1e-2, derive_rng(2, 0))
        traj = rollout(build_eval_env(cfg), AgentPolicy(actor, m=2), case, seed=9)
        traj.to_csv(tmp_path / "traj.csv")
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert len(lines) == 1501
        header = lines[0].split(",")
        for col in ("k", "ref_0", "meas_1", "raw_3", "applied_1", "integrator_0",
                    "reward", "terminal"):
            assert col in header


class TestRunExperiment:
    def test_zero_training_steps_report_exists(self, tmp_path):
        cfg = motor_cfg(**{"experiment.variants": ["sec-ddpg"], "experiment.seeds": [1]})
        summary = run_experiment(cfg, tmp_path)
        assert summary["runs"][0]["status"] == "ok"
        report = (tmp_path / "report.csv").read_text().splitlines()
        # untrained policy still yields the full metric set
        assert len([r for r in report if "steady_state_mean" in r]) == 1
        assert len([r for r in report if "segment_mean_" in r]) == 3

    def test_five_seeds_give_five_rows_per_variant_metric(self, tmp_path):
        cfg = motor_cfg(**{
            "experiment.variants": ["ddpg", "sec-ddpg"],
            "experiment.seeds": [1, 2, 3, 4, 5],
        })
        run_experiment(cfg, tmp_path)
        report = (tmp_path / "report.csv").read_text().splitlines()
        for variant in ("ddpg", "sec-ddpg"):
            rows = [r for r in report
                    if r.startswith(f"{variant},") and ",steady_state_mean," in r]
            assert len(rows) == 5

    def test_summary_contains_median_comparison(self, tmp_path):
        cfg = motor_cfg(**{
            "experiment.variants": ["ddpg", "sec-ddpg"],
            "experiment.seeds": [1, 2],
        })
        summary = run_experiment(cfg, tmp_path)
        stats = summary["metrics"]["steady_state_mean"]
        assert "median_improvement_sec_vs_ddpg" in stats
        assert "best_improvement_fraction" in stats
        persisted = json.loads((tmp_path / "summary.json").read_text())
        assert persisted["metrics"]["steady_state_mean"] == stats
        assert persisted["env_kind"] == "motor"

    def test_frozen_cases_evaluate_identically(self, tmp_path):
        cfg = motor_cfg(**{"experiment.variants": ["pi"], "experiment.seeds": [7]})
        s1 = run_experiment(cfg, tmp_path / "a")
        s2 = run_experiment(cfg, tmp_path / "b")
        r1 = (tmp_path / "a" / "report.csv").read_text()
        r2 = (tmp_path / "b" / "report.csv").read_text()
        assert r1 == r2

    def test_parallel_compare_refreshes_reports_after_every_run(self, tmp_path, monkeypatch):
        cfg = motor_cfg(**{
            "experiment.variants": ["ddpg", "sec-ddpg", "pi"],
            "experiment.seeds": [1],
            "experiment.workers": 2,
        })
        sizes = []
        write_reports = experiment._write_reports

        def counting(cfg, out_dir, records):
            sizes.append(len(records))
            return write_reports(cfg, out_dir, records)

        monkeypatch.setattr(experiment, "_write_reports", counting)
        summary = run_experiment(cfg, tmp_path)
        # One refresh per finished run, then the final sorted write.
        assert sizes == [1, 2, 3, 3]
        assert [r["status"] for r in summary["runs"]] == ["ok"] * 3

    def test_individual_failure_recorded_not_fatal(self, tmp_path):
        # An out-of-disc reference radius makes the motor env constructor
        # blow up inside the run; the batch must survive and record it.
        cfg = motor_cfg(**{
            "experiment.variants": ["ddpg"],
            "experiment.seeds": [1],
            "env.motor.reference_hold_prob": 0.99,
        })
        cfg.values["env.motor.reference_radius"] = -0.5  # past validation on purpose
        summary = run_experiment(cfg, tmp_path)
        assert summary["runs"][0]["status"] == "failed"
        assert "error" in summary["runs"][0]
        assert (tmp_path / "report.csv").exists()


class TestCompareRunArtifacts:
    TRAIN = {"train.steps": 120, "train.episode_steps": 60, "agent.batch_size": 16}

    def test_periodic_checkpoint_in_every_run_directory(self, tmp_path):
        cfg = motor_cfg(**self.TRAIN, **{
            "train.checkpoint_every": 60,
            "experiment.variants": ["ddpg", "sec-ddpg"],
            "experiment.seeds": [2],
        })
        summary = run_experiment(cfg, tmp_path)
        assert [r["status"] for r in summary["runs"]] == ["ok", "ok"]
        for variant in ("ddpg", "sec-ddpg"):
            run_dir = tmp_path / f"{variant}-seed2"
            assert (run_dir / "checkpoint.npz").is_file()
            trainer = experiment.build_trainer(
                parse_config(None, {**cfg.values, "agent.variant": variant, "seed": 2}))
            load_trainer_into(run_dir / "checkpoint.npz", trainer)
            assert trainer.step == 120
            agent, _ = load_agent(run_dir / "agent.npz")
            assert np.array_equal(trainer.agent.actor.flat(), agent.actor.flat())

    def test_two_workers_write_the_serial_bytes(self, tmp_path):
        spec = importlib.util.spec_from_file_location("run_digests", TOOLS / "run_digests.py")
        run_digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_digests)
        compared = re.compile(
            r"(report\.csv|summary\.json|[^/]+/(agent\.npz:.+|learning_curve\.csv|events\.json))$")
        digests = []
        for workers in (1, 2):
            cfg = parse_config(None, {**FAST, **self.TRAIN, "env.kind": "grid",
                                      "experiment.variants": ["ddpg", "sec-ddpg", "pi"],
                                      "experiment.seeds": [1, 2], "experiment.pi_tune_steps": 100,
                                      "experiment.workers": workers})
            out = tmp_path / f"workers{workers}"
            summary = run_experiment(cfg, out)
            assert [r["status"] for r in summary["runs"]] == ["ok"] * 6
            # summary.json without train_seconds, npz files member by member
            digests.append([line for line in run_digests.digest_lines(out)
                            if compared.match(line.split("  ", 1)[1])])
        assert digests[0] == digests[1]
        labels = {line.split("  ", 1)[1] for line in digests[0]}
        assert {"report.csv", "summary.json", "ddpg-seed2/events.json",
                "ddpg-seed2/learning_curve.csv", "sec-ddpg-seed1/agent.npz:aopt_mw0"} <= labels

    def test_failed_training_run_keeps_its_event_log(self, tmp_path, monkeypatch):
        train_module = sys.modules["secrl.ddpg.train"]

        def failing_update(agent, batch, lr):
            raise TrainingFault("injected critic fault")

        monkeypatch.setattr(train_module, "critic_update", failing_update)
        cfg = motor_cfg(**self.TRAIN, **{
            "experiment.variants": ["sec-ddpg"], "experiment.seeds": [1],
        })
        summary = run_experiment(cfg, tmp_path)
        assert summary["runs"][0]["status"] == "failed"
        assert "injected critic fault" in summary["runs"][0]["error"]
        events = json.loads((tmp_path / "sec-ddpg-seed1" / "events.json").read_text())
        assert [e["kind"] for e in events] == ["training_fault"]
        assert events[0]["detail"] == "injected critic fault"
        assert not (tmp_path / "sec-ddpg-seed1" / "agent.npz").exists()


class TestTrainCadences:
    TRAIN = {"train.steps": 120, "train.episode_steps": 50, "agent.batch_size": 16}
    CADENCES = {"train.progress_every": 25, "train.checkpoint_every": 40}

    @pytest.mark.parametrize("variant", ["ddpg", "sec-ddpg"])
    def test_cadences_leave_the_run_artifacts_unchanged(self, tmp_path, variant):
        for name, cadences in (("plain", {}), ("cadenced", self.CADENCES)):
            cfg = motor_cfg(**self.TRAIN, **cadences, **{
                "agent.variant": variant, "seed": 3, "out_dir": str(tmp_path / name)})
            experiment.train_agent(experiment.build_trainer(cfg), cfg)
        plain, cadenced = tmp_path / "plain", tmp_path / "cadenced"
        assert (cadenced / "checkpoint.npz").is_file()
        assert not (plain / "checkpoint.npz").exists()
        with np.load(plain / "agent.npz") as a, np.load(cadenced / "agent.npz") as b:
            assert a.files == b.files
            for key in a.files:
                assert a[key].dtype == b[key].dtype, key
                assert a[key].tobytes() == b[key].tobytes(), key
        for name in ("learning_curve.csv", "events.json"):
            assert (plain / name).read_bytes() == (cadenced / name).read_bytes()

    def test_progress_and_snapshots_fall_on_their_multiples(self, tmp_path, caplog):
        cfg = motor_cfg(**self.TRAIN, **self.CADENCES, **{
            "agent.variant": "sec-ddpg", "seed": 3, "out_dir": str(tmp_path)})
        trainer = experiment.build_trainer(cfg)
        with caplog.at_level(logging.INFO, logger=experiment.__name__):
            # A pause on a progress multiple, which leaves its snapshot, then
            # the rest of the run.
            experiment.train_agent(trainer, cfg, until_step=50)
            experiment.train_agent(trainer, cfg)
        messages = [r.getMessage() for r in caplog.records if r.name == experiment.__name__]
        progress = [int(m[1]) for m in map(re.compile(r"step (\d+)/120, ").match, messages) if m]
        snapshots = [int(m[1]) for m in map(re.compile(r"checkpoint written at step (\d+)$").match,
                                            messages) if m]
        assert progress == [25, 50, 75, 100]
        assert snapshots == [40, 50, 80, 120]
        assert len(progress) + len(snapshots) == len(messages)


def test_failed_report_write_keeps_the_previous_report(tmp_path):
    path = tmp_path / "report.csv"
    row = {"test_case_id": "grid-steadystate-seed1", "metric_name": "mean_reward", "value": -0.5}
    write_report(path, [{"variant": "pi", "seed": 1, "rows": [row]}])
    before = path.read_bytes()
    with pytest.raises(KeyError):
        write_report(path, [{"variant": "pi", "seed": 1, "rows": [row, {"value": -0.4}]}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_failed_testcase_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "case.npz"
    gen_steadystate_testcase("grid", seed=1, segments=2, segment_length=500).save(path)
    before = path.read_bytes()

    def failing_write_array(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", failing_write_array)
    with pytest.raises(OSError, match="disk full"):
        gen_steadystate_testcase("grid", seed=2, segments=2, segment_length=500).save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["case.npz"]


@contextlib.contextmanager
def _disk_full_after(nbytes):
    """Writes that reach past `nbytes` of any file fail (EFBIG), as on a
    disk that fills up: a file written in place is left truncated."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _write_events(path, n):
    cfg = motor_cfg(**{"agent.variant": "ddpg", "seed": 1, "out_dir": str(path.parent)})
    trainer = experiment.build_trainer(cfg)
    trainer.events = [{"step": k, "kind": "limit_violation", "episode": 0} for k in range(n)]
    experiment.train_agent(trainer, cfg)


def _write_trajectory(path, n):
    ref = np.ones((n, 2))
    Trajectory("motor", 1.0, ref, 0.5 * ref, np.zeros((n, 4)), np.zeros((n, 2))).to_csv(path)


# Each run file's writer, given the path and a number of records.
_RUN_FILE_WRITERS = {
    "effective_config.yaml": lambda path, n: motor_cfg(seed=n).echo(path),
    "events.json": _write_events,
    "learning_curve.csv": lambda path, n: experiment.write_learning_curve(
        path, [EpisodeRecord(k, 60, -0.5) for k in range(n)]),
    "trajectory-motor-steadystate-seed1.csv": _write_trajectory,
}


@pytest.mark.parametrize("name", sorted(_RUN_FILE_WRITERS))
def test_failed_run_file_write_keeps_the_previous_file(tmp_path, name):
    path = tmp_path / name
    write = _RUN_FILE_WRITERS[name]
    write(path, 1)
    before = path.read_bytes()
    # `train_agent` writes its config echo before events.json: a limit of the
    # echo's size lets the echo through, so the write that fails is the file's own.
    limit = (tmp_path / "effective_config.yaml").stat().st_size if name == "events.json" else 256
    with _disk_full_after(limit), pytest.raises(OSError):
        write(path, 100)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def _run_around_an_interrupt(cfg, started, pi_gains):
    """A pool worker's fake run.  The run "interrupted" marks that it has
    started and idles until SIGINT reaches it (30 s at most); the run
    "finishing" waits for that mark, sends SIGINT to the parent alone and
    finishes 0.5 s later, while the parent shuts down."""
    if cfg == "interrupted":
        started.touch()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            time.sleep(0.01)
        return {"run": cfg}
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while not started.exists():
        time.sleep(0.01)
    os.kill(os.getppid(), signal.SIGINT)
    time.sleep(0.5)
    return {"run": cfg}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers inherit the fake run through fork")
def test_run_that_finishes_after_a_parent_sigint_still_reports(tmp_path, monkeypatch):
    # The parent passes the SIGINT on, so the idle run stops at once, and it
    # still yields the record of the run that finished during the shutdown.
    monkeypatch.setattr(experiment, "_run_one", _run_around_an_interrupt)
    started = tmp_path / "started"
    records, t0 = [], time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        for record in experiment._finished_runs(
                [("interrupted", started, None), ("finishing", started, None)], workers=2):
            records.append(record)
    assert records == [{"run": "finishing"}]
    assert time.monotonic() - t0 < 20
