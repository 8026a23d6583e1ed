"""Command-line interface: subcommands, artifacts, exit codes, resume."""

import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import zipfile

import numpy as np
import pytest
import yaml

from secrl import TrainingFault, checkpoint
from secrl.checkpoint import load_agent, save_agent
from secrl.cli import main
from secrl.config import parse_config, parse_override_strings
from secrl.evaluation import experiment
from secrl.evaluation.experiment import PLANTS, make_testcase
from secrl.evaluation.testcases import TestCase, gen_steadystate_testcase

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


@pytest.mark.parametrize("damage", ["broken-yaml", "missing", "override"])
def test_unreadable_config_exits_with_configuration_error(tmp_path, capsys, damage):
    path = tmp_path / "config.yaml"
    if damage == "broken-yaml":
        path.write_text("seed: [1,\n")
    args = ["--override", "seed=[1,"] if damage == "override" else ["--config", str(path)]
    rc = main(["gen-testcase", "--kind", "grid-steadystate", "--out", str(tmp_path / "x"), *args])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert ("seed=[1," if damage == "override" else f"cannot read config file {path}") \
        in err["message"]


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
    assert not (tmp_path / "tail").exists()


def test_refused_resume_in_place_keeps_the_config_echo(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--out", str(out), "--override", "env.kind=motor", *FAST_TRAIN]
    assert main(["train", *base, "--until-step", "60"]) == 0
    before = (out / "effective_config.yaml").read_bytes()
    assert main(["train", *base, "--override", "agent.gamma=0.9",
                 "--resume", str(out / "checkpoint.npz")]) == 2
    assert (out / "effective_config.yaml").read_bytes() == before


def test_resume_opens_the_snapshot_once(paused_run, tmp_path, monkeypatch):
    root, base, _ = paused_run
    snapshot = root / "head" / "checkpoint.npz"
    opened, zip_file = [], zipfile.ZipFile

    def counting_zip_file(file, mode="r", *args, **kwargs):
        if mode == "r":
            opened.append(file)
        return zip_file(file, mode, *args, **kwargs)

    monkeypatch.setattr(zipfile, "ZipFile", counting_zip_file)
    assert main(["train", "--out", str(tmp_path / "tail"), *base, "--resume", str(snapshot)]) == 0
    assert opened == [snapshot]


def test_resume_refuses_other_network_sizes_by_config_before_reading(
        paused_run, tmp_path, capsys, monkeypatch):
    # The config difference is named, not the network layout it implies,
    # and no member is read.
    root, base, _ = paused_run

    def no_member_read(*args):
        raise AssertionError("a checkpoint member was read")

    monkeypatch.setattr(checkpoint, "_read_into", no_member_read)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--override", "agent.critic.units=14",
               "--resume", str(root / "head" / "checkpoint.npz")])
    assert rc == 2
    message = _error_record(capsys)["message"]
    assert message == (f"checkpoint {root / 'head' / 'checkpoint.npz'} was written with a "
                       "different config: agent.critic.units: checkpoint 12, now 14")


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


# Malformed payloads of a well-formed file: (kind, payload) of 1000 steps.
_BAD_PAYLOADS = {
    "grid-2d": ("grid-steadystate", np.full((1000, 2), 50.0)),
    "grid-nan": ("grid-steadystate", np.r_[np.full(999, 50.0), np.nan]),
    "grid-zero": ("grid-steadystate", np.zeros(1000)),
    "motor-1d": ("motor-steadystate", np.ones(1000)),
    "motor-inf": ("motor-reference-profile", np.r_[np.ones((999, 2)), [[np.inf, 0.0]]]),
}


@pytest.mark.parametrize("damage", ["junk", "no-meta", *_BAD_PAYLOADS])
def test_unreadable_testcase_exits_with_configuration_error(
        paused_run, tmp_path, capsys, damage):
    root, _, case_path = paused_run
    bad = tmp_path / "case.npz"
    if damage == "junk":
        bad.write_bytes(b"not a test case\n" * 64)
    elif damage == "no-meta":
        with np.load(case_path, allow_pickle=False) as data:
            np.savez(bad, payload=data["payload"])
    else:
        kind, payload = _BAD_PAYLOADS[damage]
        np.savez(bad, payload=payload, meta=json.dumps({
            "kind": kind, "seed": 8, "duration": 1000, "segment_length": 500, "version": 1}))
    agent = root / "head" / "agent.npz"
    if damage.startswith("grid-"):
        # An agent of the case's plant, so that only the payload is wrong.
        assert main(["train", "--out", str(tmp_path / "grid"), *FAST_TRAIN,
                     "--override", "train.steps=0"]) == 0
        agent = tmp_path / "grid" / "agent.npz"
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(agent),
               "--testcase", str(bad), "--override", "env.kind=motor",
               "--out", str(tmp_path / "evalout")])
    assert rc == 2
    err = _error_record(capsys)
    assert err["error"] == "configuration"
    assert f"cannot read test case {bad}" in err["message"]
    # A test case's errors carry no checkpoint wording.
    assert "checkpoint" not in err["message"].replace(str(bad), "")


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


@pytest.mark.parametrize("variant", ["ddpg", "sec-ddpg"])
def test_compare_run_equals_train_run(tmp_path, variant):
    config = ["--override", "env.kind=motor", *FAST_TRAIN,
              "--override", f"experiment.variants={variant}",
              "--override", "experiment.seeds=4",
              "--override", "experiment.motor_profile_steps=1000",
              "--override", "experiment.segments=2"]
    assert main(["compare", "--out", str(tmp_path / "cmp"), *config]) == 0
    assert main(["train", "--out", str(tmp_path / "train"), "--seed", "4", *config,
                 "--override", f"agent.variant={variant}"]) == 0
    run_dir, train_dir = tmp_path / "cmp" / f"{variant}-seed4", tmp_path / "train"
    # The same artifacts, except the snapshot `secrl train` leaves where it stops.
    assert {p.name for p in run_dir.iterdir()} == {
        "agent.npz", "learning_curve.csv", "events.json", "effective_config.yaml"}
    assert {p.name for p in train_dir.iterdir()} == {
        "agent.npz", "learning_curve.csv", "events.json", "effective_config.yaml",
        "checkpoint.npz"}
    with np.load(run_dir / "agent.npz") as a, np.load(train_dir / "agent.npz") as b:
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].tobytes() == b[key].tobytes(), key
    for name in ("learning_curve.csv", "events.json"):
        assert (run_dir / name).read_bytes() == (train_dir / name).read_bytes()
    # The config echoes differ in the run directory alone.
    echoes = [(d / "effective_config.yaml").read_text().splitlines() for d in (run_dir, train_dir)]
    assert len(echoes[0]) == len(echoes[1])
    assert [(a, b) for a, b in zip(*echoes) if a != b] == [
        (f"out_dir: {run_dir}", f"out_dir: {train_dir}")]


# A tiny motor compare of one variant and seed with snapshots every 40 steps,
# and the same config for `secrl train`.
CMP_CONFIG = ["--override", "env.kind=motor", *FAST_TRAIN,
              "--override", "train.checkpoint_every=40",
              "--override", "experiment.motor_profile_steps=1000",
              "--override", "experiment.segments=2"]


def _compare_config(variant, seed) -> list[str]:
    return [*CMP_CONFIG, "--override", f"experiment.variants={variant}",
            "--override", f"experiment.seeds={seed}"]


def _npz_members(path) -> dict:
    """The raw bytes of each member, meta decoded and without its ``out_dir``."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
    meta.get("config_echo", {}).get("values", {}).pop("out_dir", None)
    members["meta.npy"] = meta
    return members


@pytest.mark.parametrize("variant", ["ddpg", "sec-ddpg"])
def test_compare_run_snapshot_equals_the_train_snapshot(tmp_path, variant):
    # Each compare run carries its own config: its variant, seed and run
    # directory, so its snapshot is the one `secrl train` writes.
    config = _compare_config(variant, 4)
    assert main(["compare", "--out", str(tmp_path / "cmp"), *config]) == 0
    assert main(["train", "--out", str(tmp_path / "train"), *config, "--seed", "4",
                 "--override", f"agent.variant={variant}"]) == 0
    run = _npz_members(tmp_path / "cmp" / f"{variant}-seed4" / "checkpoint.npz")
    assert run == _npz_members(tmp_path / "train" / "checkpoint.npz")
    assert (run["meta.npy"]["config_echo"]["values"]["seed"],
            run["meta.npy"]["config_echo"]["values"]["agent.variant"]) == (4, variant)


def test_failed_compare_run_resumes_with_secrl_train(tmp_path, monkeypatch):
    # A compare run that fails after its first snapshot resumes under
    # `secrl train` with the compare's config, seed and variant.
    write_checkpoint = experiment.write_checkpoint

    def failing_after_snapshot(*args):
        write_checkpoint(*args)
        raise TrainingFault("injected fault after the snapshot")

    monkeypatch.setattr(experiment, "write_checkpoint", failing_after_snapshot)
    config = _compare_config("ddpg", 3)
    assert main(["compare", "--out", str(tmp_path / "cmp"), *config]) == 1
    summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
    assert summary["runs"] == [{"variant": "ddpg", "seed": 3, "status": "failed",
                                "error": "TrainingFault: injected fault after the snapshot"}]
    monkeypatch.undo()
    run = ["train", *config, "--seed", "3", "--override", "agent.variant=ddpg"]
    snapshot = tmp_path / "cmp" / "ddpg-seed3" / "checkpoint.npz"
    assert _snapshot_step(snapshot) == 40
    assert main([*run, "--resume", str(snapshot), "--out", str(tmp_path / "tail")]) == 0
    assert main([*run, "--out", str(tmp_path / "full")]) == 0
    assert _npz_members(tmp_path / "tail" / "agent.npz") == \
        _npz_members(tmp_path / "full" / "agent.npz")


def _interrupt_in_first_update(monkeypatch, variant):
    """Ctrl-C, as SIGINT, inside the first critic update of each `variant` run."""
    update = sys.modules["secrl.ddpg.train"].critic_update

    def interrupting_update(agent, batch, lr):
        if agent.actor.layer_sizes[-1] == (4 if variant == "sec-ddpg" else 2):
            signal.raise_signal(signal.SIGINT)
        update(agent, batch, lr)

    monkeypatch.setattr(sys.modules["secrl.ddpg.train"], "critic_update", interrupting_update)


def _main_uninterrupted(argv) -> int:
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped secrl")


def test_interrupted_compare_exits_130_and_its_run_resumes(tmp_path, capsys, monkeypatch):
    # ddpg seed 3 finishes; sec-ddpg seed 3 is interrupted at its first
    # update (step 16), which the run completes before it stops.
    config = [*CMP_CONFIG, "--override", "experiment.variants=ddpg,sec-ddpg",
              "--override", "experiment.seeds=3"]
    out = tmp_path / "cmp"
    _interrupt_in_first_update(monkeypatch, "sec-ddpg")
    capsys.readouterr()
    assert _main_uninterrupted(["compare", "--out", str(out), *config]) == 130
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [
        {"interrupted": "compare", "finished_runs": 1, "out": str(out)}]
    assert {line.split(",")[0] for line in (out / "report.csv").read_text().splitlines()} == \
        {"variant", "ddpg"}
    run_dir = out / "sec-ddpg-seed3"
    assert {p.name for p in run_dir.iterdir()} == {
        "checkpoint.npz", "effective_config.yaml", "events.json"}
    assert _snapshot_step(run_dir / "checkpoint.npz") == 16
    monkeypatch.undo()
    run = ["train", *config, "--seed", "3", "--override", "agent.variant=sec-ddpg"]
    assert main([*run, "--resume", str(run_dir / "checkpoint.npz"),
                 "--out", str(tmp_path / "tail")]) == 0
    assert main([*run, "--out", str(tmp_path / "full")]) == 0
    assert _npz_members(tmp_path / "tail" / "agent.npz") == \
        _npz_members(tmp_path / "full" / "agent.npz")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers inherit the interrupting update through fork")
def test_interrupted_parallel_compare_starts_no_further_run(tmp_path, capsys, monkeypatch):
    # Every run is interrupted at its first update; 2 workers start the
    # first 2 of the 6 runs, and no queued run starts after the interrupt.
    out = tmp_path / "cmp"
    _interrupt_in_first_update(monkeypatch, "ddpg")
    capsys.readouterr()
    assert _main_uninterrupted(["compare", "--out", str(out), *CMP_CONFIG,
                                "--override", "experiment.variants=ddpg",
                                "--override", "experiment.seeds=1,2,3,4,5,6",
                                "--override", "experiment.workers=2"]) == 130
    assert json.loads(capsys.readouterr().err) == {
        "interrupted": "compare", "finished_runs": 0, "out": str(out)}
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["ddpg-seed1", "ddpg-seed2"]
    for seed in (1, 2):
        assert _snapshot_step(out / f"ddpg-seed{seed}" / "checkpoint.npz") == 16


def test_parent_only_sigint_stops_a_parallel_compare(tmp_path, capsys):
    # `kill -INT <pid>`, not Ctrl-C: the signal reaches the compare process
    # alone, which passes it on to its 2 workers.  Each run stops at its next
    # step, long before its 10^6 steps, and leaves a snapshot that resumes.
    config = ["--override", "env.kind=motor", *FAST_TRAIN,
              "--override", "train.steps=1000000", "--override", "agent.buffer_size=20000",
              "--override", "experiment.variants=ddpg,sec-ddpg", "--override", "experiment.seeds=1",
              "--override", "experiment.workers=2"]
    out = tmp_path / "cmp"
    runs = [out / "ddpg-seed1", out / "sec-ddpg-seed1"]
    proc = subprocess.Popen([sys.executable, "-m", "secrl.cli", "compare", "--out", str(out),
                             *config], stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not all((run / "effective_config.yaml").exists() for run in runs):
            assert proc.poll() is None and time.monotonic() < deadline, "the runs did not start"
            time.sleep(0.05)
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert json.loads(err.splitlines()[-1]) == {
        "interrupted": "compare", "finished_runs": 0, "out": str(out)}
    assert not (out / "report.csv").exists()
    for run in runs:
        step = _snapshot_step(run / "checkpoint.npz")
        assert 0 < step < 1_000_000
        variant = run.name.split("-seed")[0]
        assert main(["train", *config, "--seed", "1", "--override", f"agent.variant={variant}",
                     "--resume", str(run / "checkpoint.npz"), "--until-step", str(step + 10),
                     "--out", str(tmp_path / f"tail-{variant}")]) == 0


def test_second_sigint_during_the_interrupt_snapshot_keeps_it(tmp_path, capsys, monkeypatch):
    # Ctrl-C in the first update, and again while the snapshot is written:
    # the second is deferred like the first, and the snapshot is written.
    save = experiment.save_trainer

    def interrupted_save(*args, **kwargs):
        signal.raise_signal(signal.SIGINT)
        save(*args, **kwargs)

    _interrupt_in_first_update(monkeypatch, "ddpg")
    monkeypatch.setattr(experiment, "save_trainer", interrupted_save)
    out = tmp_path / "run"
    capsys.readouterr()
    assert _main_uninterrupted(["train", "--out", str(out), "--override", "env.kind=motor",
                                *FAST_TRAIN, "--override", "agent.variant=ddpg"]) == 130
    assert _error_record(capsys) == {"interrupted_at_step": 16,
                                     "resume_from": str(out / "checkpoint.npz")}
    assert _snapshot_step(out / "checkpoint.npz") == 16


@pytest.mark.parametrize("field, value", [
    ("seed", "7"), ("seed", -3), ("segment_length", 500.0), ("seed", 7.5), ("seed", True),
    ("kind", ["motor-steadystate"])])
def test_testcase_meta_must_hold_a_kind_and_integers(paused_run, tmp_path, capsys, field, value):
    root, _, case_path = paused_run
    with np.load(case_path) as data:
        meta, payload = json.loads(str(data["meta"])), data["payload"]
    bad = tmp_path / "case.npz"
    np.savez(bad, payload=payload, meta=json.dumps({**meta, field: value}))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(root / "head" / "agent.npz"), "--testcase", str(bad),
                 "--override", "env.kind=motor", "--out", str(tmp_path / "evalout")]) == 2
    error = (f"unknown test case kind {value!r}" if field == "kind"
             else f"{field} must be an integer >= 0, got {value!r}")
    assert _error_record(capsys) == {
        "error": "configuration", "message": f"cannot read test case {bad}: {error}"}
    assert not (tmp_path / "evalout").exists()


@pytest.mark.parametrize("resume, until", [(False, -5), (True, 30)])
def test_train_refuses_until_step_below_the_trainer_step(paused_run, tmp_path, capsys,
                                                          resume, until):
    # The paused run's snapshot is at step 60.
    root, base, _ = paused_run
    argv = ["--resume", str(root / "head" / "checkpoint.npz")] if resume else []
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "out"), *base, *argv,
                 "--until-step", str(until)]) == 2
    assert _error_record(capsys) == {
        "error": "configuration",
        "message": f"--until-step {until} is below the trainer's step {60 if resume else 0}"}
    assert not (tmp_path / "out").exists()


def test_eval_scores_a_compare_run_as_compare_did(tmp_path, capsys):
    config = _compare_config("sec-ddpg", 2)
    assert main(["compare", "--out", str(tmp_path / "cmp"), *config]) == 0
    # The compare's cases, in the order it scores them.
    cases = [next((tmp_path / "cmp").glob(f"testcase-{kind}-seed*.npz"))
             for kind in PLANTS["motor"].cases]
    assert main(["eval", "--checkpoint", str(tmp_path / "cmp" / "sec-ddpg-seed2" / "agent.npz"),
                 *(arg for case in cases for arg in ("--testcase", str(case))),
                 "--seed", "2", *config, "--out", str(tmp_path / "eval")]) == 0
    compared = (tmp_path / "cmp" / "report.csv").read_text().splitlines()
    evaluated = (tmp_path / "eval" / "report.csv").read_text().splitlines()
    # The header, then each case's mean reward, and the steady-state mean
    # and 2 segment means of the steady-state case.
    assert len(evaluated) == 6
    assert evaluated == compared


@pytest.mark.parametrize("plant", ["grid", "motor"])
def test_gen_testcase_equals_compare_cases(tmp_path, capsys, plant):
    pairs = [f"env.kind={plant}", "experiment.testcase_seed=31", "experiment.segments=3",
             "experiment.grid_transient_steps=1200", "experiment.motor_profile_steps=1500"]
    overrides = [arg for pair in pairs for arg in ("--override", pair)]
    cfg = parse_config(None, parse_override_strings(pairs))
    # The cases `compare` makes for the plant.
    cases = [make_testcase(cfg, kind, 31 + k) for k, kind in enumerate(PLANTS[plant].cases)]
    assert len(cases) == 2
    for k, case in enumerate(cases):
        capsys.readouterr()
        assert main(["gen-testcase", "--kind", case.kind, "--seed", str(31 + k),
                     "--out", str(tmp_path / "cases"), *overrides]) == 0
        made = TestCase.load(capsys.readouterr().out.strip())
        assert (made.kind, made.seed, made.duration, made.segment_length) == \
               (case.kind, case.seed, case.duration, case.segment_length)
        assert made.payload.dtype == case.payload.dtype
        assert made.payload.tobytes() == case.payload.tobytes()


@pytest.mark.parametrize("stop, rc", [(TrainingFault("injected critic fault"), 3),
                                      (KeyboardInterrupt(), 130)])
def test_stopped_train_keeps_event_log(tmp_path, capsys, monkeypatch, stop, rc):
    def stopping_update(agent, batch, lr):
        raise stop

    monkeypatch.setattr(sys.modules["secrl.ddpg.train"], "critic_update", stopping_update)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--out", str(out), "--override", "env.kind=motor", *FAST_TRAIN]) == rc
    events = json.loads((out / "events.json").read_text())
    record = _error_record(capsys)
    assert not (out / "agent.npz").exists()
    if rc == 3:
        assert [e["kind"] for e in events] == ["training_fault"]
        assert record == {"error": "TrainingFault", "message": "injected critic fault"}
        assert not (out / "checkpoint.npz").exists()
    else:
        # Interrupted in the first update (batch 16, every 2nd step).
        assert events == []
        assert record == {"interrupted_at_step": 16, "resume_from": str(out / "checkpoint.npz")}
        # The snapshot carries the motor config: it resumes under it, not under grid.
        monkeypatch.undo()
        resume = ["train", *FAST_TRAIN, "--resume", str(out / "checkpoint.npz")]
        assert main([*resume, "--out", str(tmp_path / "grid")]) == 2
        assert "env.kind: checkpoint 'motor', now 'grid'" in _error_record(capsys)["message"]
        assert main([*resume, "--out", str(tmp_path / "motor"), "--override", "env.kind=motor"]) == 0


def test_eval_echo_names_the_checkpoint_plant(tmp_path, capsys):
    # The config says grid (the default); the checkpoint's motor plant wins,
    # and the echo must name the plant that was scored.
    out = tmp_path / "run"
    assert main(["train", "--seed", "5", "--out", str(out), "--override", "env.kind=motor",
                 *FAST_TRAIN, "--override", "train.steps=0"]) == 0
    assert main(["gen-testcase", "--kind", "motor-reference-profile", "--seed", "8",
                 "--steps", "1000", "--out", str(tmp_path / "cases")]) == 0
    capsys.readouterr()
    case_path = str(tmp_path / "cases" / "testcase-motor-reference-profile-seed8.npz")
    assert TestCase.load(case_path).duration == 1000
    evalout = tmp_path / "evalout"
    assert main(["eval", "--checkpoint", str(out / "agent.npz"), "--testcase", case_path,
                 "--seed", "5", "--out", str(evalout)]) == 0
    echo = yaml.safe_load((evalout / "effective_config.yaml").read_text())
    assert echo["env.kind"] == "motor"
    assert (evalout / "report.csv").exists()


def test_refused_eval_leaves_out_untouched(paused_run, tmp_path, capsys):
    root, _, case_path = paused_run
    agent = str(root / "head" / "agent.npz")
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert main(["eval", "--checkpoint", agent, "--testcase", str(case_path),
                 "--out", str(used)]) == 0
    before = (used / "effective_config.yaml").read_bytes()
    assert main(["gen-testcase", "--kind", "grid-steadystate", "--seed", "8",
                 "--override", "experiment.segments=2", "--out", str(tmp_path / "cases")]) == 0
    grid_case = capsys.readouterr().out.strip()
    # 150-step segments leave the motor plant, which skips 200, no window.
    short_case = tmp_path / "short.npz"
    gen_steadystate_testcase("motor-steadystate", 5, 2, 150).save(short_case)
    # Under another seed, an echo written by a refused eval would differ.
    for refusal in (["--testcase", str(tmp_path / "nonexistent.npz")],
                    ["--testcase", str(case_path), "--override", "env.past_measurements=7"],
                    ["--testcase", str(case_path), "--testcase", grid_case],
                    ["--testcase", str(case_path), "--testcase", str(short_case)]):
        for out in (fresh, used):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", agent, *refusal, "--seed", "9",
                         "--out", str(out)]) == 2
            assert _error_record(capsys)["error"] == "configuration"
    assert not fresh.exists()
    assert (used / "effective_config.yaml").read_bytes() == before


@pytest.mark.parametrize("kind, steps", [("grid-steadystate", "5000"),
                                         ("motor-steadystate", "100"),
                                         ("grid-load-profile", "0"),
                                         ("grid-load-profile", "-3"),
                                         ("motor-reference-profile", "0")])
def test_gen_testcase_refuses_misread_steps(tmp_path, capsys, kind, steps):
    out = tmp_path / "cases"
    assert main(["gen-testcase", "--kind", kind, "--steps", steps, "--out", str(out),
                 "--override", "experiment.segments=3"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "configuration" and "steps" in record["message"]
    assert not out.exists()


def test_compare_refuses_segments_without_a_steady_state_window(tmp_path, capsys):
    # The motor plant skips 200 steps of each segment: exit 2 before any run.
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--override", "env.kind=motor",
                 "--override", "experiment.variants=pi", "--override", "experiment.seeds=1",
                 "--override", "experiment.segments=2",
                 "--override", "experiment.segment_length=150",
                 "--override", "experiment.motor_profile_steps=300"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "configuration"
    assert "experiment.segment_length=150" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("experiment.seeds", "[]"), ("experiment.seeds", "1,1"),
                                        ("experiment.variants", "[]"),
                                        ("experiment.variants", "pi,pi")])
def test_compare_refuses_empty_or_repeated_seeds_and_variants(tmp_path, capsys, key, value):
    # Each (variant, seed) owns a run directory and its report rows; like the
    # window rule, allow_out_of_range does not lift this one.
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--override", "env.kind=motor",
                 "--override", "experiment.variants=pi", "--override", "experiment.seeds=1",
                 "--override", f"{key}={value}", "--override", "allow_out_of_range=true"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "configuration"
    assert f"{key} must be a non-empty list without repeats" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("experiment.variants", "[ddpg,sec-dpg]", "unknown variant 'sec-dpg'"),
    ("agent.optimizer", "adamw", "agent.optimizer='adamw' not in"),
])
def test_compare_refuses_unknown_choices_despite_allow_out_of_range(
        tmp_path, capsys, key, value, message):
    # allow_out_of_range lifts numeric ranges only; a misspelt name would
    # otherwise fail its runs one by one and still exit 0.  Toy sizes, so
    # that a missing refusal fails fast rather than training at full size.
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--override", "env.kind=motor",
                 "--override", "experiment.seeds=1",
                 "--override", "experiment.motor_profile_steps=1000",
                 "--override", "experiment.segments=2", *FAST_TRAIN,
                 "--override", f"{key}={value}", "--override", "allow_out_of_range=true"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "configuration" and message in record["message"]
    assert not out.exists()


def test_gen_testcase_refuses_the_other_plants_case_without_a_window(tmp_path, capsys):
    # 150 steps leave the grid plant a window (it skips 100), not the motor.
    base = ["--out", str(tmp_path / "cases"), "--override", "env.kind=grid",
            "--override", "experiment.segment_length=150", "--override", "experiment.segments=2"]
    assert main(["gen-testcase", "--kind", "motor-steadystate", *base]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "configuration" and "200 steps" in record["message"]
    assert not (tmp_path / "cases").exists()
    assert main(["gen-testcase", "--kind", "grid-steadystate", *base]) == 0


@pytest.mark.parametrize("damage, message", [
    ("width", "checkpoint member buf_obs: float64(60, 19), expected float64(60, 20)"),
    ("count", "replay count 121 outside [0, 120]"),
    ("cursor", "replay cursor -5 impossible with count 60 and capacity 120"),
    ("cursor-behind", "replay cursor 30 impossible with count 60 and capacity 120"),
    ("nan", "replay rows 'rew' hold non-finite values"),
])
def test_corrupt_replay_ring_exits_with_configuration_error(
        paused_run, tmp_path, capsys, damage, message):
    # The paused motor run holds 60 of its 120 ring rows, next push at 60.
    root, base, _ = paused_run
    with np.load(root / "head" / "checkpoint.npz", allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    meta = json.loads(str(members["meta"]))
    assert meta["buffer_scalars"] == {"cursor": 60, "count": 60}
    if damage == "width":
        members["buf_obs"] = members["buf_obs"][:, :-1]
    elif damage == "count":
        meta["buffer_scalars"]["count"] = 121
    elif damage == "cursor":
        meta["buffer_scalars"]["cursor"] = -5
    elif damage == "cursor-behind":
        meta["buffer_scalars"]["cursor"] = 30
    else:
        members["buf_rew"][3] = np.nan
    members["meta"] = json.dumps(meta)
    np.savez(tmp_path / "checkpoint.npz", **members)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--resume", str(tmp_path / "checkpoint.npz")])
    assert rc == 2
    err = _error_record(capsys)
    assert err["error"] == "configuration"
    assert message in err["message"]


@pytest.mark.parametrize("damage, message", [
    ("no-noise", "checkpoint trainer_state: missing ['noise']"),
    ("extra-key", "checkpoint trainer_state.env: unexpected ['zeta_old']"),
    ("plant-state", "checkpoint trainer_state.inner_env.x: shape (3,), expected (2,)"),
    ("obs-width", "checkpoint trainer_state.obs: shape (1,), expected (20,)"),
    ("obs-list", "checkpoint trainer_state.obs: shape list, expected (20,)"),
    ("rng-not-dict", "checkpoint trainer_state.rng_expl: int, expected a dict"),
])
def test_malformed_trainer_state_exits_with_configuration_error(
        paused_run, tmp_path, capsys, monkeypatch, damage, message):
    root, base, _ = paused_run
    with np.load(root / "head" / "checkpoint.npz", allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    meta = json.loads(str(members["meta"]))
    state = meta["trainer_state"]
    if damage == "no-noise":
        del state["noise"]
    elif damage == "extra-key":
        state["env"]["zeta_old"] = 0.0
    elif damage == "plant-state":
        state["inner_env"]["x"]["__nd__"].append(0.0)
    elif damage == "obs-width":
        state["obs"]["__nd__"] = state["obs"]["__nd__"][:1]
    elif damage == "obs-list":
        state["obs"] = state["obs"]["__nd__"]
    else:
        state["rng_expl"] = 7
    members["meta"] = json.dumps(meta)
    np.savez(tmp_path / "checkpoint.npz", **members)

    def no_member_read(*args):
        raise AssertionError("a checkpoint member was read")

    monkeypatch.setattr(checkpoint, "_read_into", no_member_read)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--resume", str(tmp_path / "checkpoint.npz")])
    assert rc == 2
    assert _error_record(capsys) == {"error": "configuration", "message": message}


def _snapshot_steps(caplog) -> list[int]:
    """Steps of the "checkpoint written" log lines, in order."""
    lines = map(re.compile(r"checkpoint written at step (\d+)$").match,
                (r.getMessage() for r in caplog.records))
    return [int(m[1]) for m in lines if m]


def _snapshot_step(path) -> int:
    with np.load(path) as data:
        return json.loads(str(data["meta"]))["trainer_state"]["step"]


@pytest.mark.parametrize("steps, written", [(120, [40, 80, 120]), (100, [40, 80, 100])])
def test_train_writes_each_snapshot_once(tmp_path, caplog, steps, written):
    # A stop on the checkpoint cadence is written by the cadence alone; a
    # stop off it still gets its final snapshot.
    out = tmp_path / "run"
    with caplog.at_level(logging.INFO, logger="secrl"):
        assert main(["train", "--out", str(out), "--override", "env.kind=motor", *FAST_TRAIN,
                     "--override", f"train.steps={steps}",
                     "--override", "train.checkpoint_every=40"]) == 0
    assert _snapshot_steps(caplog) == written
    assert _snapshot_step(out / "checkpoint.npz") == steps


def test_resume_at_the_stop_still_writes_its_snapshot(tmp_path, caplog):
    base = ["--override", "env.kind=motor", *FAST_TRAIN, "--override", "train.checkpoint_every=40"]
    assert main(["train", "--out", str(tmp_path / "done"), *base]) == 0
    out = tmp_path / "again"
    with caplog.at_level(logging.INFO, logger="secrl"):
        assert main(["train", "--out", str(out), *base,
                     "--resume", str(tmp_path / "done" / "checkpoint.npz")]) == 0
    assert _snapshot_steps(caplog) == [120]
    assert _snapshot_step(out / "checkpoint.npz") == 120


@pytest.mark.parametrize("key, value, message", [
    ("step", 1.5, "checkpoint trainer_state.step: float, expected int"),
    ("events", "x", "checkpoint trainer_state.events: str, expected list"),
    ("episode_reward_sum", "0.5", "checkpoint trainer_state.episode_reward_sum: str, expected float"),
])
def test_trainer_state_value_of_another_json_kind_is_refused_before_reading(
        paused_run, tmp_path, capsys, monkeypatch, key, value, message):
    # Trainer.load_state_dict would coerce each of these: 1.5 to step 1,
    # "x" to events ["x"] and "0.5" to 0.5.
    root, base, _ = paused_run
    with np.load(root / "head" / "checkpoint.npz", allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    meta = json.loads(str(members["meta"]))
    meta["trainer_state"][key] = value
    members["meta"] = json.dumps(meta)
    np.savez(tmp_path / "checkpoint.npz", **members)

    def no_member_read(*args):
        raise AssertionError("a checkpoint member was read")

    monkeypatch.setattr(checkpoint, "_read_into", no_member_read)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--resume", str(tmp_path / "checkpoint.npz")])
    assert rc == 2
    assert _error_record(capsys) == {"error": "configuration", "message": message}
    assert not (tmp_path / "tail").exists()


@pytest.mark.parametrize("extra, message", [
    (["x"], "checkpoint extra: list, expected a dict"),
    ({"sec": "x"}, "checkpoint extra.sec: 'x', expected positive numbers"),
    ({"sec": {"t_i": "a", "t_aw": 0.66}}, "checkpoint extra.sec: {'t_i': 'a', 't_aw': 0.66}"),
    ({"sec": {"t_i": 0.31, "t_aw": 0}}, "checkpoint extra.sec: {'t_i': 0.31, 't_aw': 0}"),
    ({"env_kind": "mars"}, "checkpoint extra.env_kind: 'mars', expected one of grid, motor"),
])
def test_eval_refuses_a_malformed_agent_extra_before_writing(
        paused_run, tmp_path, capsys, extra, message):
    root, _, case_path = paused_run
    agent, _ = load_agent(root / "head" / "agent.npz")
    save_agent(tmp_path / "agent.npz", agent, extra=extra)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(tmp_path / "agent.npz"), "--testcase", str(case_path),
               "--override", "env.kind=motor", "--out", str(tmp_path / "evalout")])
    assert rc == 2
    record = _error_record(capsys)
    assert record["error"] == "configuration" and message in record["message"]
    assert not (tmp_path / "evalout").exists()


def test_python2_header_fallback_gives_one_json_line(paused_run, tmp_path):
    # numpy reads "(10L)" through its Python 2 header fallback, with a
    # UserWarning, before it refuses the shape: stderr still holds the JSON
    # record alone.
    root, _, case_path = paused_run
    blob = (root / "head" / "agent.npz").read_bytes()
    at = blob.index(b"(10,)", blob.index(b"actor_b0.npy"))
    (tmp_path / "agent.npz").write_bytes(blob[:at] + b"(10L)" + blob[at + 5:])
    proc = subprocess.run(
        [sys.executable, "-m", "secrl.cli", "eval", "--checkpoint", str(tmp_path / "agent.npz"),
         "--testcase", str(case_path), "--override", "env.kind=motor",
         "--out", str(tmp_path / "evalout")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert record["error"] == "configuration"
    assert record["message"].startswith("checkpoint member actor_b0: Reading `.npy` or `.npz`")
    assert not (tmp_path / "evalout").exists()


def test_grid_snapshot_with_the_old_env_stream_is_refused(tmp_path, capsys):
    # Earlier grid snapshots also held an "rng_env" stream in the plant's
    # state, which no step drew from; resuming one exits 2.
    base = ["--override", "env.kind=grid", *FAST_TRAIN, "--seed", "5"]
    assert main(["train", "--out", str(tmp_path / "head"), *base, "--until-step", "20"]) == 0
    with np.load(tmp_path / "head" / "checkpoint.npz", allow_pickle=False) as data:
        members = {k: data[k] for k in data.files}
    meta = json.loads(str(members["meta"]))
    plant = meta["trainer_state"]["inner_env"]
    plant["rng_env"] = plant["rng_load"]
    members["meta"] = json.dumps(meta)
    np.savez(tmp_path / "checkpoint.npz", **members)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "tail"), *base,
               "--resume", str(tmp_path / "checkpoint.npz")])
    assert rc == 2
    assert _error_record(capsys) == {
        "error": "configuration",
        "message": "checkpoint trainer_state.inner_env: unexpected ['rng_env']"}
    assert not (tmp_path / "tail").exists()
