"""Command-line interface: subcommands, artifacts, exit codes, resume."""

import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from secrl.checkpoint import load_agent, load_trainer_into, save_trainer
from secrl.cli import main
from secrl.evaluation.testcases import TestCase

FAST_TRAIN = [
    "--override", "train.steps=120",
    "--override", "train.episode_steps=60",
    "--override", "agent.batch_size=16",
    "--override", "agent.critic.units=12",
    "--override", "agent.critic.layers=1",
    "--override", "agent.actor.units=10",
    "--override", "agent.actor.layers=1",
]


def test_train_smoke_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--seed", "3", "--out", str(out),
               "--override", "env.kind=motor", *FAST_TRAIN])
    assert rc == 0
    assert (out / "agent.npz").exists()
    assert (out / "checkpoint.npz").exists()
    assert (out / "learning_curve.csv").exists()
    assert (out / "events.json").exists()
    echo = yaml.safe_load((out / "effective_config.yaml").read_text())
    assert echo["seed"] == 3
    curve = (out / "learning_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "episode,steps,mean_reward"
    assert len(curve) >= 2


def test_train_rejects_pi_variant(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "x"),
               "--override", "agent.variant=pi"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"


def test_out_of_range_config_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "x"),
               "--override", "agent.gamma=1.2"])
    assert rc == 2
    assert "agent.gamma" in json.loads(capsys.readouterr().err)["message"]


def test_gen_testcase_and_eval_untrained_agent(tmp_path, capsys):
    # train.steps=0 leaves the freshly initialized policy untouched; the
    # evaluation must still produce the full 20-segment metric set.
    out = tmp_path / "run"
    rc = main(["train", "--seed", "5", "--out", str(out),
               "--override", "env.kind=motor",
               "--override", "agent.variant=sec-ddpg",
               *FAST_TRAIN, "--override", "train.steps=0"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["gen-testcase", "--kind", "motor-steadystate", "--seed", "8",
               "--out", str(tmp_path / "cases")])
    assert rc == 0
    case_path = capsys.readouterr().out.strip()
    case = TestCase.load(case_path)
    assert case.duration == 10_000

    rc = main(["eval", "--checkpoint", str(out / "agent.npz"),
               "--testcase", case_path, "--seed", "5",
               "--out", str(tmp_path / "evalout"),
               "--override", "env.kind=motor"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "steady_state_mean" in payload["metrics"]
    report = (tmp_path / "evalout" / "report.csv").read_text().splitlines()
    segment_rows = [r for r in report if "segment_mean_" in r]
    assert len(segment_rows) == 20


def test_eval_rejects_dimension_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--seed", "5", "--out", str(out),
          "--override", "env.kind=motor", *FAST_TRAIN,
          "--override", "train.steps=10"])
    capsys.readouterr()
    rc = main(["gen-testcase", "--kind", "motor-steadystate", "--seed", "8",
               "--out", str(tmp_path / "cases")])
    case_path = capsys.readouterr().out.strip()
    # Different history length changes the feature width.
    rc = main(["eval", "--checkpoint", str(out / "agent.npz"),
               "--testcase", case_path,
               "--override", "env.kind=motor",
               "--override", "env.past_measurements=7",
               "--out", str(tmp_path / "evalout")])
    assert rc == 2
    assert "features" in json.loads(capsys.readouterr().err)["message"]


def test_compare_emits_summary(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--out", str(out),
               "--override", "env.kind=motor",
               "--override", "experiment.variants=ddpg,sec-ddpg,pi",
               "--override", "experiment.seeds=1,2,3",
               "--override", "experiment.motor_profile_steps=1000",
               "--override", "experiment.segments=2",
               *FAST_TRAIN])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {r["variant"] for r in summary["runs"]} == {"ddpg", "sec-ddpg", "pi"}
    assert len(summary["runs"]) == 9
    assert "median_improvement_sec_vs_ddpg" in summary["metrics"]["steady_state_mean"]
    report = (out / "report.csv").read_text().splitlines()
    mean_rows = [r for r in report if ",mean_reward," in r]
    # 3 variants x 3 seeds x 2 test cases
    assert len(mean_rows) == 18

    # Frozen cases: re-running the evaluation yields identical metrics.
    rc = main(["compare", "--out", str(tmp_path / "cmp2"),
               "--override", "env.kind=motor",
               "--override", "experiment.variants=pi",
               "--override", "experiment.seeds=1",
               "--override", "experiment.motor_profile_steps=1000",
               "--override", "experiment.segments=2",
               *FAST_TRAIN])
    assert rc == 0
    rows1 = [r for r in report if r.startswith("pi,1,")]
    report2 = (tmp_path / "cmp2" / "report.csv").read_text().splitlines()
    rows2 = [r for r in report2 if r.startswith("pi,1,")]
    assert rows1 == rows2


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "secrl.cli", "train", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--override" in proc.stdout


def test_resume_matches_straight_run(tmp_path):
    # Pausing at step 60 and resuming must land bit-exactly on the result
    # of an uninterrupted run with the same full-horizon configuration.
    base = ["--override", "env.kind=motor", *FAST_TRAIN, "--seed", "11"]
    out_full = tmp_path / "full"
    rc = main(["train", "--out", str(out_full), *base])
    assert rc == 0
    full_agent, _ = load_agent(out_full / "agent.npz")

    out_head = tmp_path / "head"
    rc = main(["train", "--out", str(out_head), *base, "--until-step", "60"])
    assert rc == 0
    out_tail = tmp_path / "tail"
    rc = main(["train", "--out", str(out_tail), *base,
               "--resume", str(out_head / "checkpoint.npz")])
    assert rc == 0
    tail_agent, _ = load_agent(out_tail / "agent.npz")
    assert np.array_equal(tail_agent.actor.flat(), full_agent.actor.flat())
    assert np.array_equal(tail_agent.critic.flat(), full_agent.critic.flat())


@pytest.fixture(scope="module")
def paused_run(tmp_path_factory):
    """A tiny motor run paused at step 60, and a frozen test case."""
    root = tmp_path_factory.mktemp("paused")
    base = ["--override", "env.kind=motor", *FAST_TRAIN, "--seed", "11"]
    assert main(["train", "--out", str(root / "head"), *base, "--until-step", "60"]) == 0
    assert main(["gen-testcase", "--kind", "motor-steadystate", "--seed", "8",
                 "--out", str(root / "cases")]) == 0
    return root, base, next((root / "cases").glob("testcase-*.npz"))


def _error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_resume_refuses_changed_config(paused_run, tmp_path, capsys):
    root, base, _ = paused_run
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--override", "agent.gamma=0.9",
               "--resume", str(root / "head" / "checkpoint.npz")])
    assert rc == 2
    err = _error_record(capsys)
    assert err["error"] == "configuration"
    assert "agent.gamma: checkpoint 0.946, now 0.9" in err["message"]
    assert "out_dir" not in err["message"]


def test_truncated_checkpoints_exit_with_configuration_error(paused_run, tmp_path, capsys):
    root, base, case_path = paused_run
    for name in ("checkpoint.npz", "agent.npz"):
        blob = (root / "head" / name).read_bytes()
        (tmp_path / name).write_bytes(blob[: len(blob) // 2])
    capsys.readouterr()

    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--resume", str(tmp_path / "checkpoint.npz")])
    assert rc == 2
    assert "cannot read checkpoint" in _error_record(capsys)["message"]

    rc = main(["eval", "--checkpoint", str(tmp_path / "agent.npz"),
               "--testcase", str(case_path), "--override", "env.kind=motor",
               "--out", str(tmp_path / "evalout")])
    assert rc == 2
    assert "cannot read checkpoint" in _error_record(capsys)["message"]


@pytest.mark.parametrize("damage, message", [
    ("shape", "checkpoint member actor_w1: float64(4, 9), expected float64(4, 10)"),
    ("nan", "non-finite network parameters"),
])
def test_corrupt_agent_checkpoint_exits_with_configuration_error(
        paused_run, tmp_path, capsys, damage, message):
    root, _, case_path = paused_run
    with np.load(root / "head" / "agent.npz", allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    if damage == "shape":
        members["actor_w1"] = members["actor_w1"][:, :-1]
    else:
        members["actor_w0"][0, 0] = np.nan
    np.savez(tmp_path / "agent.npz", **members)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(tmp_path / "agent.npz"),
               "--testcase", str(case_path), "--override", "env.kind=motor",
               "--out", str(tmp_path / "evalout")])
    assert rc == 2
    err = _error_record(capsys)
    assert err["error"] == "configuration"
    assert message in err["message"]
