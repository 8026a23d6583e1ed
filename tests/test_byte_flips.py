"""A damaged npz file is refused or read as if intact, never half-read.

Every byte of the zip structure (local headers, central directory, end
records) and of each npy header's text is flipped in turn, in an agent
file, a training snapshot and a test case; a seeded sample of the meta
text, the header padding and the array data is flipped too, and each file
is cut at every member boundary.  Each load must raise ConfigurationError
or give what the intact file gives."""

import json
import struct
import zipfile

import numpy as np
import pytest
from test_cli import FAST_TRAIN
from test_train import make_sec_grid_trainer

from secrl import ConfigurationError
from secrl.checkpoint import load_agent, load_trainer_into, save_agent, save_trainer
from secrl.cli import main
from secrl.evaluation.testcases import TestCase, gen_steadystate_testcase

# numpy warns about some of the header texts that the flips make; the
# reader turns each such warning into the member's ConfigurationError.
pytestmark = pytest.mark.filterwarnings("error::UserWarning", "error::DeprecationWarning")

SAMPLED = 150  # flips drawn from the meta text, header padding and array data
# Linear networks: each member's zip and npy structure is flipped through, so
# fewer members make the sweep shorter, not thinner.
TINY = dict(seed=14, steps=60, episode_steps=30, buffer_capacity=20,
            actor_hidden=[], critic_hidden=[])


def _offsets(path) -> tuple[list[int], list[int]]:
    """``(every, sampled)``: the offsets of the zip structure and of each
    stored member's npy header text, and those of the rest (meta text,
    header padding, array data).  A deflated member's bytes are all in
    ``every``."""
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        infos, every = zf.infolist(), set(range(zf.start_dir, len(blob)))
    sampled = set()
    for info in infos:
        name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26:][:4])
        data = info.header_offset + 30 + name_len + extra_len
        every.update(range(info.header_offset, data))
        if info.compress_type != zipfile.ZIP_STORED:
            every.update(range(data, data + info.compress_size))
            continue
        text_end = blob.index(b"}", data) + 1
        every.update(range(data, text_end))
        sampled.update(range(text_end, data + info.file_size))
    return sorted(every), sorted(sampled)


def _sweep(path, load) -> list[str]:
    """Flip the bytes ``_offsets`` names (each by one seeded nonzero mask)
    and cut the file at every member boundary; return a line per load
    that neither raised ConfigurationError nor gave ``load(path)``."""
    blob, clean = path.read_bytes(), load(path)
    every, sampled = _offsets(path)
    rng = np.random.default_rng(21)
    picks = every + sorted(rng.choice(sampled, min(SAMPLED, len(sampled)), replace=False))
    with zipfile.ZipFile(path) as zf:
        cuts = sorted({info.header_offset for info in zf.infolist()} | {zf.start_dir})
    damaged = path.with_name("damaged.npz")
    wrong = []
    for at, mask in zip(picks, rng.integers(1, 256, len(picks))):
        flipped = bytearray(blob)
        flipped[at] ^= mask
        wrong += _check(damaged, bytes(flipped), load, clean, f"byte {at} ^ {mask:#04x}")
    for cut in cuts:
        wrong += _check(damaged, blob[:cut], load, clean, f"cut at {cut}")
    return wrong


def _check(path, blob: bytes, load, clean, label: str) -> list[str]:
    path.write_bytes(blob)
    try:
        got = load(path)
    except ConfigurationError:
        return []
    except Exception as exc:  # noqa: BLE001 - an escape is what the sweep looks for
        return [f"{label}: {type(exc).__name__}: {exc}"]
    return [] if got == clean else [f"{label}: loaded other values"]


def _learner(agent) -> list:
    """Every network and moment vector of ``agent``, and its optimizers'
    scalars."""
    nets = [agent.actor, agent.critic, agent.actor_target, agent.critic_target]
    return ([p.data.tobytes() for p in nets]
            + [getattr(opt, m).tobytes() for opt in (agent.actor_opt, agent.critic_opt)
               for m in opt.MOMENTS]
            + [{k: getattr(opt, k) for k in opt.SCALARS}
               for opt in (agent.actor_opt, agent.critic_opt)])


def test_flipped_or_cut_snapshot_is_refused_or_loads_as_intact(tmp_path):
    trainer = make_sec_grid_trainer(**TINY)
    trainer.run()
    save_trainer(tmp_path / "checkpoint.npz", trainer)
    fresh = make_sec_grid_trainer(**TINY)

    def load(path):
        # A refused load may leave a member half-read; a later accepted one
        # overwrites every vector compared here.
        load_trainer_into(path, fresh)
        rows = fresh.buffer.rows(len(fresh.buffer))
        return (_learner(fresh.agent), [rows[k].tobytes() for k in sorted(rows)],
                fresh.step, fresh.episode, fresh.events)

    assert _sweep(tmp_path / "checkpoint.npz", load) == []


def test_flipped_or_cut_agent_file_is_refused_or_loads_as_intact(tmp_path):
    trainer = make_sec_grid_trainer(**TINY)
    trainer.run()
    save_agent(tmp_path / "agent.npz", trainer.agent, extra={"env_kind": "grid"})

    def load(path):
        agent, extra = load_agent(path)
        return _learner(agent), extra

    assert _sweep(tmp_path / "agent.npz", load) == []


def test_flipped_or_cut_test_case_is_refused_or_loads_as_intact(tmp_path):
    gen_steadystate_testcase("grid", 3, segments=2, segment_length=10).save(tmp_path / "case.npz")

    def load(path):
        case = TestCase.load(path)
        return case.kind, case.seed, case.duration, case.segment_length, case.payload.tobytes()

    assert _sweep(tmp_path / "case.npz", load) == []


def _central_entry(path, name: str) -> int:
    """The file offset of member ``name``'s central-directory record."""
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        at = zf.start_dir
    while blob[at:at + 4] == b"PK\x01\x02":
        name_len, extra_len, comment_len = struct.unpack("<HHH", blob[at + 28:at + 34])
        if blob[at + 46:at + 46 + name_len] == name.encode():
            return at
        at += 46 + name_len + extra_len + comment_len
    raise AssertionError(f"{name} has no central-directory record")


@pytest.mark.parametrize("offset", [pytest.param(10, id="method"), pytest.param(8, id="flags")])
def test_resume_from_a_snapshot_with_a_flipped_directory_field_exits_2(tmp_path, capsys, offset):
    base = ["--override", "env.kind=motor", *FAST_TRAIN, "--seed", "11"]
    assert main(["train", "--out", str(tmp_path / "head"), *base, "--until-step", "60"]) == 0
    path = tmp_path / "head" / "checkpoint.npz"
    blob = bytearray(path.read_bytes())
    blob[_central_entry(path, "buf_obs.npy") + offset] ^= 0x01
    path.write_bytes(blob)
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "tail"), *base, "--resume", str(path)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "configuration"
    assert "checkpoint member buf_obs" in record["message"]
    assert not (tmp_path / "tail").exists()
