"""Serialization: versioned network files and full-agent round trips,
atomic writes, older deflated files and unreadable files."""

import zipfile

import numpy as np
import pytest
from test_train import make_sec_grid_trainer

from secrl import ConfigurationError
from secrl.checkpoint import (
    load_agent,
    load_network,
    load_trainer_into,
    save_agent,
    save_network,
    save_trainer,
)
from secrl.ddpg.agent import AgentConfig, DdpgAgent, critic_update
from secrl.nn.mlp import mlp_forward, mlp_init
from secrl.seeding import derive_rng


def test_network_roundtrip_bit_exact(tmp_path):
    params = mlp_init([4, 12, 3], 0.208, "tanh", 8.5e-4, 2e-2, derive_rng(1, 0))
    save_network(tmp_path / "net.npz", params)
    loaded = load_network(tmp_path / "net.npz")
    assert loaded.layer_sizes == params.layer_sizes
    assert loaded.beta == params.beta
    assert loaded.output_activation == "tanh"
    x = derive_rng(2, 0).uniform(-1, 1, size=4)
    out_a, _ = mlp_forward(params, x)
    out_b, _ = mlp_forward(loaded, x)
    assert np.array_equal(out_a, out_b)


def test_network_file_carries_version(tmp_path):
    import json

    params = mlp_init([2, 3, 1], 0.2, "linear", 1e-3, 1e-2, derive_rng(3, 0))
    save_network(tmp_path / "net.npz", params)
    meta = json.loads(str(np.load(tmp_path / "net.npz")["meta"]))
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
    for a, b in zip(loaded.critic_opt.m_w, agent.critic_opt.m_w):
        assert np.array_equal(a, b)
    # One further update on each copy stays in lockstep.
    critic_update(agent, batch, lr=1e-3)
    critic_update(loaded, batch, lr=1e-3)
    assert np.array_equal(loaded.critic.flat(), agent.critic.flat())


def test_unsupported_version_rejected(tmp_path):
    import json

    params = mlp_init([2, 3, 1], 0.2, "linear", 1e-3, 1e-2, derive_rng(6, 0))
    save_network(tmp_path / "net.npz", params)
    data = dict(np.load(tmp_path / "net.npz"))
    meta = json.loads(str(data.pop("meta")))
    meta["version"] = 99
    np.savez(tmp_path / "bad.npz", meta=json.dumps(meta), **data)
    with pytest.raises(ConfigurationError):
        load_network(tmp_path / "bad.npz")


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
    params = mlp_init([2, 3, 1], 0.2, "linear", 1e-3, 1e-2, derive_rng(8, 0))
    save_network(tmp_path / "net", params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.npz"]
    assert np.array_equal(load_network(tmp_path / "net.npz").flat(), params.flat())


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


@pytest.mark.parametrize("change, message", [
    ({"critic_hidden": [9]}, r"network critic: layers \[5, 8, 1\], .* expected layers \[5, 9, 1\]"),
    ({"optimizer": "sgd"}, "optimizer aopt: adam, expected SgdState"),
])
def test_load_agent_refuses_networks_that_disagree_with_its_config(tmp_path, change, message):
    cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                      batch_size=4, buffer_capacity=16)
    agent = DdpgAgent(cfg, derive_rng(4, 0))
    agent.config = AgentConfig(**{**vars(cfg), **change})
    save_agent(tmp_path / "agent.npz", agent)
    with pytest.raises(ConfigurationError, match=message):
        load_agent(tmp_path / "agent.npz")


@pytest.mark.parametrize("change, message", [
    ({"critic_hidden": [24]}, r"network critic: layers \[39, 16, 1\], .* expected layers \[39, 24, 1\]"),
    ({"beta_actor": 0.5}, r"network actor: .*beta 0.208, .* expected .*beta 0.5"),
    ({"optimizer": "sgd"}, "optimizer aopt: adam, expected SgdState"),
])
def test_resume_refuses_a_snapshot_of_another_network_layout(tmp_path, change, message):
    path = tmp_path / "ck.npz"
    trainer = make_sec_grid_trainer(seed=12, steps=60, episode_steps=30, beta_actor=0.208)
    trainer.run()
    save_trainer(path, trainer)
    other = make_sec_grid_trainer(seed=12, steps=60, episode_steps=30,
                                  **{"beta_actor": 0.208, **change})
    with pytest.raises(ConfigurationError, match=message):
        load_trainer_into(path, other)


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
