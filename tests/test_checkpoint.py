"""Serialization: versioned full-agent files and round trips,
atomic writes, older deflated files, unreadable files, and the direct
reader of stored members (CRC, size and header checks)."""

import json
import struct
import zipfile

import numpy as np
import pytest
from test_cli import FAST_TRAIN
from test_train import make_sec_grid_trainer

from secrl import ConfigurationError, checkpoint
from secrl.checkpoint import load_agent, load_trainer_into, save_agent, save_trainer
from secrl.cli import main
from secrl.ddpg.agent import AgentConfig, DdpgAgent, actor_update, critic_update
from secrl.nn.mlp import layer_views, mlp_forward
from secrl.seeding import derive_rng


def _small_agent(seed: int) -> DdpgAgent:
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16)
    return DdpgAgent(cfg, derive_rng(seed, 0))


def test_network_roundtrip_bit_exact(tmp_path):
    agent = _small_agent(1)
    save_agent(tmp_path / "agent.npz", agent)
    loaded, _ = load_agent(tmp_path / "agent.npz")
    for name in ("actor", "critic", "actor_target", "critic_target"):
        a, b = getattr(agent, name), getattr(loaded, name)
        assert (b.layer_sizes, b.beta, b.output_activation) == \
            (a.layer_sizes, a.beta, a.output_activation)
        assert b.flat().tobytes() == a.flat().tobytes()
    x = derive_rng(2, 0).uniform(-1, 1, size=3)
    assert np.array_equal(mlp_forward(loaded.actor, x)[0], mlp_forward(agent.actor, x)[0])


def test_agent_file_carries_version(tmp_path):
    import json

    save_agent(tmp_path / "agent.npz", _small_agent(3))
    meta = json.loads(str(np.load(tmp_path / "agent.npz")["meta"]))
    assert meta["version"] == 1


def test_agent_roundtrip_preserves_optimizer_state(tmp_path):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16, weight_scale=0.3, bias_scale=0.3)
    agent = DdpgAgent(cfg, derive_rng(4, 0))
    rng = derive_rng(5, 0)
    batch = (
        rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 2)),
        rng.uniform(-1, 0, 4), rng.uniform(-1, 1, (4, 3)), np.zeros(4),
    )
    critic_update(agent, batch, lr=1e-3)
    save_agent(tmp_path / "agent.npz", agent, extra={"variant": "ddpg", "seed": 4})
    loaded, extra = load_agent(tmp_path / "agent.npz")
    assert extra["variant"] == "ddpg"
    assert loaded.config.gamma == cfg.gamma
    assert np.array_equal(loaded.critic.flat(), agent.critic.flat())
    assert np.array_equal(loaded.critic_target.flat(), agent.critic_target.flat())
    assert loaded.critic_opt.step == agent.critic_opt.step
    for a, b in zip(layer_views(loaded.critic_opt.m, loaded.critic_opt.layer_sizes)[0],
                    layer_views(agent.critic_opt.m, agent.critic_opt.layer_sizes)[0]):
        assert np.array_equal(a, b)
    # One further update on each copy stays in lockstep.
    critic_update(agent, batch, lr=1e-3)
    critic_update(loaded, batch, lr=1e-3)
    assert np.array_equal(loaded.critic.flat(), agent.critic.flat())


@pytest.mark.parametrize("kind, moment, scalars", [
    ("sgd", "vel", {"momentum": 0.9}),
    ("rmsprop", "sq", {"rho": 0.95, "eps": 1e-6}),
])
def test_sgd_and_rmsprop_agents_roundtrip(tmp_path, kind, moment, scalars):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16, weight_scale=0.3, bias_scale=0.3,
                      optimizer=kind)
    agent = DdpgAgent(cfg, derive_rng(4, 0))
    # Scalars off their defaults, so the loaded values must come from the file.
    for state in (agent.actor_opt, agent.critic_opt):
        vars(state).update(scalars)
    rng = derive_rng(5, 0)
    batch = (
        rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 2)),
        rng.uniform(-1, 0, 4), rng.uniform(-1, 1, (4, 3)), np.zeros(4),
    )
    for _ in range(3):
        critic_update(agent, batch, lr=1e-3)
        actor_update(agent, batch, lr=1e-3)
    save_agent(tmp_path / "agent.npz", agent)
    loaded, _ = load_agent(tmp_path / "agent.npz")
    for name in ("actor_opt", "critic_opt"):
        a, b = getattr(agent, name), getattr(loaded, name)
        assert type(b) is type(a)
        assert {k: getattr(b, k) for k in scalars} == scalars
        assert np.any(getattr(a, moment) != 0.0)
        assert getattr(b, moment).tobytes() == getattr(a, moment).tobytes()
    # One further update on each copy stays bit-equal.
    critic_update(agent, batch, lr=1e-3)
    critic_update(loaded, batch, lr=1e-3)
    assert loaded.critic.flat().tobytes() == agent.critic.flat().tobytes()
    assert (getattr(loaded.critic_opt, moment).tobytes()
            == getattr(agent.critic_opt, moment).tobytes())


def test_unsupported_version_rejected(tmp_path):
    import json

    save_agent(tmp_path / "agent.npz", _small_agent(6))
    data = dict(np.load(tmp_path / "agent.npz"))
    meta = json.loads(str(data.pop("meta")))
    meta["version"] = 99
    np.savez(tmp_path / "bad.npz", meta=json.dumps(meta), **data)
    with pytest.raises(ConfigurationError, match="unsupported agent checkpoint version 99"):
        load_agent(tmp_path / "bad.npz")


def _members(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _assert_same_snapshot(path_a, path_b):
    a, b = _members(path_a), _members(path_b)
    assert list(a) == list(b)
    for key in a:
        assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    trainer.run(until_step=130)
    save_trainer(path, trainer)
    twin = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    twin.run(until_step=130)

    trainer.run(until_step=200)
    write_array = np.lib.format.write_array
    calls = []

    def failing_write_array(*args, **kwargs):
        if calls:
            raise OSError("disk full")
        calls.append(1)
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing_write_array)
    with pytest.raises(OSError, match="disk full"):
        save_trainer(path, trainer)
    monkeypatch.undo()
    assert calls and sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]

    resumed = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    load_trainer_into(path, resumed)
    assert resumed.step == 130
    resumed.run()
    twin.run()
    assert np.array_equal(resumed.agent.actor.flat(), twin.agent.actor.flat())
    assert np.array_equal(resumed.agent.critic.flat(), twin.agent.critic.flat())


def test_compressed_checkpoint_from_older_versions_loads_bit_exact(tmp_path):
    trainer = make_sec_grid_trainer(seed=7, steps=200, episode_steps=90)
    trainer.run(until_step=150)
    save_trainer(tmp_path / "stored.npz", trainer, config_echo={"seed": 7})
    # Earlier versions wrote the same members and meta, deflated.
    np.savez_compressed(tmp_path / "deflated.npz", **_members(tmp_path / "stored.npz"))

    for name in ("stored", "deflated"):
        fresh = make_sec_grid_trainer(seed=7, steps=200, episode_steps=90)
        load_trainer_into(tmp_path / f"{name}.npz", fresh)
        save_trainer(tmp_path / f"{name}-again.npz", fresh, config_echo={"seed": 7})
    _assert_same_snapshot(tmp_path / "stored.npz", tmp_path / "deflated-again.npz")
    _assert_same_snapshot(tmp_path / "stored.npz", tmp_path / "stored-again.npz")


def test_trainer_snapshot_members_are_stored_uncompressed(tmp_path):
    trainer = make_sec_grid_trainer(seed=2, steps=40, episode_steps=90)
    trainer.run()
    save_trainer(tmp_path / "ck.npz", trainer)
    with zipfile.ZipFile(tmp_path / "ck.npz") as zf:
        infos = zf.infolist()
    assert len(infos) > 1
    assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)


def test_path_without_suffix_gets_npz_appended(tmp_path):
    agent = _small_agent(8)
    save_agent(tmp_path / "agent", agent)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["agent.npz"]
    loaded, _ = load_agent(tmp_path / "agent.npz")
    assert np.array_equal(loaded.actor.flat(), agent.actor.flat())
    assert np.array_equal(loaded.critic.flat(), agent.critic.flat())


@pytest.mark.parametrize("damage", ["truncate", "not-a-zip", "missing-member", "absent"])
def test_unreadable_checkpoints_are_configuration_errors(tmp_path, damage):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16)
    path = tmp_path / "agent.npz"
    save_agent(path, DdpgAgent(cfg, derive_rng(4, 0)))
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "not-a-zip":
        path.write_bytes(b"not a checkpoint\n" * 64)
    elif damage == "missing-member":
        members = _members(path)
        del members["critic_w0"]
        np.savez(path, **members)
    else:
        path.unlink()
    with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
        load_agent(path)


# The frozen version-1 member table of a tiny SEC grid trainer (33 features,
# 6 raw actions, actor [8], critic [16], Adam, replay ring of 50): name,
# dtype and shape in file order.  Changing any entry breaks older readers.
F = "float64"
_AGENT_MEMBERS = [
    ("meta", "<U", ()),
    ("actor_w0", F, (8, 33)), ("actor_b0", F, (8,)),
    ("actor_w1", F, (6, 8)), ("actor_b1", F, (6,)),
    ("critic_w0", F, (16, 39)), ("critic_b0", F, (16,)),
    ("critic_w1", F, (1, 16)), ("critic_b1", F, (1,)),
    ("actor_t_w0", F, (8, 33)), ("actor_t_b0", F, (8,)),
    ("actor_t_w1", F, (6, 8)), ("actor_t_b1", F, (6,)),
    ("critic_t_w0", F, (16, 39)), ("critic_t_b0", F, (16,)),
    ("critic_t_w1", F, (1, 16)), ("critic_t_b1", F, (1,)),
    ("aopt_mw0", F, (8, 33)), ("aopt_mb0", F, (8,)),
    ("aopt_vw0", F, (8, 33)), ("aopt_vb0", F, (8,)),
    ("aopt_mw1", F, (6, 8)), ("aopt_mb1", F, (6,)),
    ("aopt_vw1", F, (6, 8)), ("aopt_vb1", F, (6,)),
    ("copt_mw0", F, (16, 39)), ("copt_mb0", F, (16,)),
    ("copt_vw0", F, (16, 39)), ("copt_vb0", F, (16,)),
    ("copt_mw1", F, (1, 16)), ("copt_mb1", F, (1,)),
    ("copt_vw1", F, (1, 16)), ("copt_vb1", F, (1,)),
]
_TRAINER_MEMBERS = [
    ("meta", "<U", ()),
    ("buf_obs", F, (50, 33)), ("buf_act", F, (50, 6)), ("buf_rew", F, (50,)),
    ("buf_next", F, (50, 33)), ("buf_term", F, (50,)),
    *_AGENT_MEMBERS[1:],
]


def test_checkpoint_member_table_is_frozen(tmp_path):
    import json

    trainer = make_sec_grid_trainer(seed=3, steps=60, episode_steps=30, buffer_capacity=50)
    trainer.run()
    save_agent(tmp_path / "agent.npz", trainer.agent)
    save_trainer(tmp_path / "checkpoint.npz", trainer)
    for name, table in (("agent.npz", _AGENT_MEMBERS), ("checkpoint.npz", _TRAINER_MEMBERS)):
        with np.load(tmp_path / name, allow_pickle=False) as data:
            found = [(k, data[k].dtype.str[:2] if k == "meta" else str(data[k].dtype),
                      data[k].shape) for k in data.files]
            meta = json.loads(str(data["meta"]))
        assert found == table, name
        assert meta["version"] == 1
        assert meta["actor_opt"] == {"kind": "adam", "step": trainer.agent.actor_opt.step,
                                     "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "layers": 2}
        assert meta["critic"] == {"layer_sizes": [39, 16, 1], "beta": 6.79e-3,
                                  "output_activation": "linear"}


@pytest.mark.parametrize("kind, codes", [("sgd", ("vw", "vb")), ("rmsprop", ("sw", "sb"))])
def test_other_optimizer_members_are_frozen(tmp_path, kind, codes):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16, optimizer=kind)
    save_agent(tmp_path / "agent.npz", DdpgAgent(cfg, derive_rng(4, 0)))
    with np.load(tmp_path / "agent.npz", allow_pickle=False) as data:
        found = [(k, data[k].shape) for k in data.files if k.startswith("copt_")]
    assert found == [("copt_" + codes[0] + "0", (8, 5)), ("copt_" + codes[1] + "0", (8,)),
                     ("copt_" + codes[0] + "1", (1, 8)), ("copt_" + codes[1] + "1", (1,))]


@pytest.mark.parametrize("damage, message", [
    ("shape", r"actor_w1: float64\(2, 5\), expected float64\(2, 6\)"),
    ("dtype", r"copt_vb0: float32\(8,\), expected float64\(8,\)"),
    ("nan", "non-finite network parameters"),
])
def test_corrupt_agent_members_are_configuration_errors(tmp_path, damage, message):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16)
    path = tmp_path / "agent.npz"
    save_agent(path, DdpgAgent(cfg, derive_rng(4, 0)))
    members = _members(path)
    if damage == "shape":
        members["actor_w1"] = members["actor_w1"][:, :-1]
    elif damage == "dtype":
        members["copt_vb0"] = members["copt_vb0"].astype(np.float32)
    else:
        members["critic_t_w0"][1, 2] = np.nan
    np.savez(path, **members)
    with pytest.raises(ConfigurationError, match=message):
        load_agent(path)


def _spy_reads(monkeypatch) -> list:
    """Names of the members ``checkpoint._read_into`` reads from now on."""
    read = []
    read_into = checkpoint._read_into

    def spy(data, key, out):
        read.append(key)
        return read_into(data, key, out)

    monkeypatch.setattr(checkpoint, "_read_into", spy)
    return read


def _learner_vectors(agent) -> list:
    """Copies of every network and optimizer-moment vector of ``agent``."""
    nets = [agent.actor, agent.critic, agent.actor_target, agent.critic_target]
    return ([p.data.copy() for p in nets]
            + [getattr(opt, m).copy() for opt in (agent.actor_opt, agent.critic_opt)
               for m in opt.MOMENTS])


@pytest.mark.parametrize("change, message", [
    ({"critic_hidden": [9]}, r"network critic: layers \[5, 8, 1\], .* expected layers \[5, 9, 1\]"),
    ({"optimizer": "sgd"}, "optimizer aopt: adam, expected SgdState"),
])
def test_load_agent_refuses_networks_that_disagree_with_its_config(
        tmp_path, monkeypatch, change, message):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16)
    agent = DdpgAgent(cfg, derive_rng(4, 0))
    agent.config = AgentConfig(**{**vars(cfg), **change})
    save_agent(tmp_path / "agent.npz", agent)
    read = _spy_reads(monkeypatch)
    with pytest.raises(ConfigurationError, match=message):
        load_agent(tmp_path / "agent.npz")
    # Every check runs before the first member is read.
    assert read == []


@pytest.mark.parametrize("change, message", [
    ({"critic_hidden": [24]}, r"network critic: layers \[39, 16, 1\], .* expected layers \[39, 24, 1\]"),
    ({"beta_actor": 0.5}, r"network actor: .*beta 0.208, .* expected .*beta 0.5"),
    ({"optimizer": "sgd"}, "optimizer aopt: adam, expected SgdState"),
])
def test_resume_refuses_a_snapshot_of_another_network_layout(
        tmp_path, monkeypatch, change, message):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=12, steps=60, episode_steps=30, beta_actor=0.208)
    trainer.run()
    save_trainer(path, trainer)
    other = make_sec_grid_trainer(seed=12, steps=60, episode_steps=30,
                                  **{"beta_actor": 0.208, **change})
    before = _learner_vectors(other.agent)
    read = _spy_reads(monkeypatch)
    with pytest.raises(ConfigurationError, match=message):
        load_trainer_into(path, other)
    # A refused resume reads no member, so the trainer is left as it was.
    assert read == []
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(before, _learner_vectors(other.agent), strict=True))


def test_resume_reads_into_the_trainers_own_vectors(tmp_path):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=13, steps=60, episode_steps=30)
    trainer.run()
    save_trainer(path, trainer)
    fresh = make_sec_grid_trainer(seed=13, steps=60, episode_steps=30)
    a = fresh.agent
    before = [a.actor, a.critic, a.actor_target, a.critic_target, a.actor_opt, a.critic_opt]
    vectors = [p.data for p in before[:4]] + [a.actor_opt.m, a.critic_opt.v]
    load_trainer_into(path, fresh)
    after = [a.actor, a.critic, a.actor_target, a.critic_target, a.actor_opt, a.critic_opt]
    assert all(x is y for x, y in zip(before, after))
    assert all(v is w for v, w in zip(vectors, [p.data for p in after[:4]]
                                      + [a.actor_opt.m, a.critic_opt.v]))
    assert np.array_equal(a.critic.flat(), trainer.agent.critic.flat())
    assert a.critic_opt.step == trainer.agent.critic_opt.step > 0
    assert np.array_equal(a.actor_opt.m, trainer.agent.actor_opt.m)


# -- the direct reader of stored members ------------------------------------

def _member_end(path, key) -> int:
    """The file offset just past member ``key``'s bytes."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{key}.npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len + info.file_size


def _rewrite_member(path, key, change) -> None:
    """Rewrite ``path`` with every member stored as before, except that
    member ``key``'s bytes become ``change(bytes)`` (with a matching CRC)."""
    with zipfile.ZipFile(path) as zf:
        members = [(name, zf.read(name)) for name in zf.namelist()]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, blob in members:
            zf.writestr(name, change(blob) if name == f"{key}.npy" else blob)


def _older_npy_header(shape) -> bytes:
    """The npy 1.0 header of a float64 C-order array as older numpy wrote
    it: padded to a multiple of 16 bytes, not 64, with no spare shape
    digits."""
    text = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape!r}, }}"
    pad = 16 - (10 + len(text) + 1) % 16
    return (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text) + pad + 1)
            + text.encode() + b" " * pad + b"\n")


def _opened_members(monkeypatch) -> list:
    """Names of the members read through ``ZipFile.open`` from now on."""
    opened = []
    zip_open = zipfile.ZipFile.open

    def spy(self, name, *args, **kwargs):
        opened.append(name)
        return zip_open(self, name, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", spy)
    return opened


def _flip_ring_byte(path) -> None:
    """Flip the low bit of a float64 near the end of ``buf_obs``: the value
    stays finite, so only the CRC can tell."""
    blob = bytearray(path.read_bytes())
    blob[_member_end(path, "buf_obs") - 8 * 5] ^= 0x01
    path.write_bytes(blob)


def test_flipped_byte_in_a_stored_ring_member_is_refused(tmp_path, capsys):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=14, steps=60, episode_steps=30)
    trainer.run()
    save_trainer(path, trainer)
    _flip_ring_byte(path)
    with pytest.raises(ConfigurationError, match="checkpoint member buf_obs fails its CRC check"):
        load_trainer_into(path, make_sec_grid_trainer(seed=14, steps=60, episode_steps=30))

    base = ["--override", "env.kind=motor", *FAST_TRAIN, "--seed", "11"]
    assert main(["train", "--out", str(tmp_path / "head"), *base, "--until-step", "60"]) == 0
    path = tmp_path / "head" / "checkpoint.npz"
    _flip_ring_byte(path)
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "tail"), *base, "--resume", str(path)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "configuration"
    assert "checkpoint member buf_obs" in record["message"]


def test_member_with_older_header_padding_loads_bit_exact_through_zipfile(
        tmp_path, monkeypatch):
    trainer = make_sec_grid_trainer(seed=15, steps=120, episode_steps=90)
    trainer.run()
    save_trainer(tmp_path / "stored.npz", trainer, config_echo={"seed": 15})
    (tmp_path / "older.npz").write_bytes((tmp_path / "stored.npz").read_bytes())
    rows = trainer.buffer.rows(len(trainer.buffer))["obs"]
    header = _older_npy_header(rows.shape)

    def repad(blob):
        assert blob[:len(blob) - rows.nbytes] != header
        return header + blob[len(blob) - rows.nbytes:]

    _rewrite_member(tmp_path / "older.npz", "buf_obs", repad)
    assert np.array_equal(_members(tmp_path / "older.npz")["buf_obs"],
                          _members(tmp_path / "stored.npz")["buf_obs"])

    fresh = make_sec_grid_trainer(seed=15, steps=120, episode_steps=90)
    opened = _opened_members(monkeypatch)
    load_trainer_into(tmp_path / "older.npz", fresh)
    monkeypatch.undo()
    # Only meta and the repadded member went through zipfile.
    assert opened == ["meta.npy", "buf_obs.npy"]
    save_trainer(tmp_path / "again.npz", fresh, config_echo={"seed": 15})
    _assert_same_snapshot(tmp_path / "stored.npz", tmp_path / "again.npz")


def test_stored_member_shorter_than_its_header_says_is_truncated(tmp_path):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=16, steps=60, episode_steps=30)
    trainer.run()
    save_trainer(path, trainer)
    # buf_act is followed by other members, so a reader that trusted the
    # header would read their bytes.
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist().index("buf_act.npy") < len(zf.namelist()) - 1
    _rewrite_member(path, "buf_act", lambda blob: blob[:-8])
    with pytest.raises(ConfigurationError, match="checkpoint member buf_act is truncated"):
        load_trainer_into(path, make_sec_grid_trainer(seed=16, steps=60, episode_steps=30))


def test_snapshot_of_an_empty_ring_resumes(tmp_path):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=17, steps=60, episode_steps=30)
    save_trainer(path, trainer)
    resumed = make_sec_grid_trainer(seed=17, steps=60, episode_steps=30)
    load_trainer_into(path, resumed)
    assert len(resumed.buffer) == 0
    resumed.run()
    trainer.run()
    assert resumed.agent.critic.flat().tobytes() == trainer.agent.critic.flat().tobytes()
