"""Configuration schema: defaults, validation, precedence, rescaling, echo."""

import math

import yaml
import pytest

from secrl import ConfigurationError
from secrl.config import FULL_SCALE_STEPS, SCHEMA, parse_config, parse_override_strings
from secrl.evaluation.testcases import PLANTS


class TestDefaults:
    def test_tuned_defaults(self):
        cfg = parse_config()
        assert cfg["agent.gamma"] == 0.946
        assert cfg["sec.t_i"] == 0.31
        assert cfg["sec.t_aw"] == 0.66
        assert cfg["agent.lr"] == 3.75e-4
        assert cfg["agent.lr_final"] == 3.13e-4
        assert cfg["agent.batch_size"] == 261
        assert cfg["agent.tau"] == 2.61e-3
        assert cfg["agent.weight_scale"] == 8.5e-4
        assert cfg["agent.bias_scale"] == 2e-2
        assert cfg["agent.noise.stiffness"] == 31.58
        assert cfg["agent.noise.diffusion"] == 2.6e-2
        assert cfg["agent.train_freq"] == 2
        assert cfg["train.episode_steps"] == 2811
        assert cfg["sec.kappa_p"] == 1.48
        assert cfg["sec.kappa_i"] == 1.13
        assert cfg["env.past_measurements"] == 5
        assert cfg["agent.actor.layers"] == 2
        assert cfg["agent.actor.units"] == 25
        assert cfg["agent.critic.layers"] == 4
        assert cfg["agent.critic.units"] == 295
        assert cfg.values["agent.buffer_size"] == 3_870_000
        assert cfg["train.schedule_horizon"] == FULL_SCALE_STEPS

    def test_schedule_rescaling_proportional_to_horizon(self):
        cfg = parse_config(None, {"train.steps": 200_000})
        factor = 200_000 / FULL_SCALE_STEPS
        assert cfg["agent.lr_decay_start"] == round(1_375_000 * factor)
        assert cfg["agent.lr_decay_end"] == round(1_620_000 * factor)
        assert cfg["sec.kappa_p_decay_start"] == round(1_150_000 * factor)
        assert cfg["sec.kappa_i_decay_start"] == round(2_750_000 * factor)
        assert cfg["agent.buffer_size"] == 200_000

    def test_full_scale_keeps_breakpoints(self):
        cfg = parse_config(None, {"train.steps": FULL_SCALE_STEPS})
        assert cfg["agent.lr_decay_start"] == 1_375_000
        assert cfg["agent.buffer_size"] == 3_870_000

    def test_rescaling_can_be_disabled(self):
        cfg = parse_config(None, {"train.steps": 200_000, "train.rescale_schedules": False})
        assert cfg["agent.lr_decay_start"] == 1_375_000


class TestValidation:
    def test_gamma_outside_search_space_rejected(self):
        with pytest.raises(ConfigurationError, match="agent.gamma"):
            parse_config(None, {"agent.gamma": 1.2})
        with pytest.raises(ConfigurationError, match="agent.gamma"):
            parse_config(None, {"agent.gamma": 0.4})

    def test_out_of_range_allowed_with_flag(self):
        cfg = parse_config(None, {"agent.gamma": 0.3, "allow_out_of_range": True})
        assert cfg["agent.gamma"] == 0.3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config(None, {"agent.gama": 0.9})

    def test_lr_final_above_lr_rejected(self):
        with pytest.raises(ConfigurationError, match="lr_final"):
            parse_config(None, {"agent.lr": 1e-4, "agent.lr_final": 2e-4})

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(None, {"agent.variant": "td3"})
        with pytest.raises(ConfigurationError):
            parse_config(None, {"experiment.variants": ["ddpg", "sac"]})

    @pytest.mark.parametrize("kind, length, accepted", [
        ("grid", 100, False), ("grid", 101, True), ("motor", 200, False), ("motor", 201, True),
    ])
    def test_segment_length_must_leave_a_steady_state_window(self, kind, length, accepted):
        values = {"env.kind": kind, "experiment.segment_length": length}
        if accepted:
            assert parse_config(None, values)["experiment.segment_length"] == length
            return
        # Scoring would fail after training, so allow_out_of_range cannot lift it.
        for allow in (False, True):
            with pytest.raises(ConfigurationError, match=f"segment_length={length} leaves no "
                               f"steady-state window.* {PLANTS[kind].steady_state_skip} steps"):
                parse_config(None, {**values, "allow_out_of_range": allow})

    def test_type_coercion_failures(self):
        with pytest.raises(ConfigurationError):
            parse_config(None, {"agent.batch_size": 32.5})
        with pytest.raises(ConfigurationError):
            parse_config(None, {"train.rescale_schedules": "perhaps"})
        with pytest.raises(ConfigurationError):
            parse_config(None, {"experiment.seeds": [1.5, 2]})


class TestPrecedence:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(yaml.safe_dump({"agent.gamma": 0.9, "agent.batch_size": 64}))
        cfg = parse_config(cfg_file)
        assert cfg["agent.gamma"] == 0.9
        cfg = parse_config(cfg_file, {"agent.gamma": 0.95})
        assert cfg["agent.gamma"] == 0.95
        assert cfg["agent.batch_size"] == 64

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(yaml.safe_dump({"agent.gamm": 0.9}))
        with pytest.raises(ConfigurationError):
            parse_config(cfg_file)

    def test_override_string_parsing(self):
        out = parse_override_strings(["agent.gamma=0.91", "env.kind=motor",
                                      "train.rescale_schedules=false"])
        assert out == {"agent.gamma": 0.91, "env.kind": "motor",
                       "train.rescale_schedules": False}
        with pytest.raises(ConfigurationError):
            parse_override_strings(["agent.gamma"])


class TestEchoAndBuilders:
    def test_echo_roundtrip(self, tmp_path):
        cfg = parse_config(None, {"agent.gamma": 0.9})
        cfg.echo(tmp_path / "effective.yaml")
        data = yaml.safe_load((tmp_path / "effective.yaml").read_text())
        assert data["agent.gamma"] == 0.9
        assert "_derived" in data
        # The echoed file reproduces the configuration when fed back.
        derived = data.pop("_derived")
        cfg2 = parse_config(None, data)
        assert cfg2.values == cfg.values
        assert cfg2.derived == derived

    def test_builders_produce_consistent_objects(self):
        cfg = parse_config(None, {"train.steps": 1000})
        gp = cfg.grid_params()
        assert gp.v_dc == 600.0
        mp = cfg.motor_params()
        assert mp.i_lim == 20.0
        ac = cfg.agent_config(33, 6)
        assert ac.actor_hidden == [25, 25]
        assert ac.critic_hidden == [295] * 4
        assert ac.buffer_capacity == 1000
        sc = cfg.sec_reward_config()
        assert sc.total_steps == 1000
        ts = cfg.train_settings()
        assert ts.total_steps == 1000
        assert ts.episode_steps == 2811


# key: (default, type, lo, hi), as the parameter dataclasses state them.
PLANT_KEYS = {
    "env.grid.inductance": (2.3e-3, "float", 0.0, None),
    "env.grid.resistance": (0.4, "float", 0.0, None),
    "env.grid.capacitance": (1e-5, "float", 0.0, None),
    "env.grid.frequency": (60.0, "float", 0.0, None),
    "env.grid.v_dc": (600.0, "float", 0.0, None),
    "env.grid.v_nom": (120.0 * math.sqrt(2.0), "float", 0.0, None),
    "env.grid.v_lim": (1.5 * 120.0 * math.sqrt(2.0), "float", 0.0, None),
    "env.grid.i_lim": (30.0, "float", 0.0, None),
    "env.grid.substeps": (10, "int", 1, None),
    "env.grid.noise_v": (0.25, "float", 0.0, None),
    "env.grid.noise_i": (0.05, "float", 0.0, None),
    "env.motor.r_s": (0.25, "float", 0.0, None),
    "env.motor.l_d": (1.2e-3, "float", 0.0, None),
    "env.motor.l_q": (1.2e-3, "float", 0.0, None),
    "env.motor.psi_pm": (5e-2, "float", 0.0, None),
    "env.motor.omega_el": (2.0 * math.pi * 100.0, "float", 0.0, None),
    "env.motor.v_dc": (350.0, "float", 0.0, None),
    "env.motor.i_lim": (20.0, "float", 0.0, None),
    "env.motor.substeps": (10, "int", 1, None),
    "env.motor.reference_hold_prob": (0.99, "float", 0.0, 0.999999),
    "env.motor.reference_radius": (0.9, "float", 0.0, 1.0),
}


class TestPlantKeys:
    def test_every_plant_key_default_type_and_range(self):
        keys = [k for k in SCHEMA if k.startswith(("env.grid.", "env.motor."))]
        assert keys == list(PLANT_KEYS)
        for key, (default, kind, lo, hi) in PLANT_KEYS.items():
            spec = SCHEMA[key]
            assert (spec.default, spec.lo, spec.hi) == (default, lo, hi), key
            assert type(spec.default).__name__ == kind and type(default).__name__ == kind, key
            assert spec.choices is None and not spec.scaled_by_horizon

    def test_echo_writes_plant_defaults_as_plain_numbers(self, tmp_path):
        parse_config().echo(tmp_path / "effective.yaml")
        data = yaml.safe_load((tmp_path / "effective.yaml").read_text())
        for key, (default, _, _, _) in PLANT_KEYS.items():
            assert data[key] == default and type(data[key]) is type(default)

    def test_builders_take_every_plant_key(self):
        over = {"env.grid.noise_v": 0.5, "env.grid.substeps": 12,
                "env.motor.reference_radius": 0.5, "env.motor.psi_pm": 0.07,
                "train.sampling_time": 2e-4, "env.past_measurements": 3}
        cfg = parse_config(None, over)
        gp, mp = cfg.grid_params(), cfg.motor_params()
        assert (gp.noise_v, gp.substeps, gp.dt, gp.history_length) == (0.5, 12, 2e-4, 3)
        assert (mp.reference_radius, mp.psi_pm, mp.dt, mp.history_length) == (0.5, 0.07, 2e-4, 3)
        assert gp.v_nom == PLANT_KEYS["env.grid.v_nom"][0]
        assert mp.reference_hold_prob == 0.99
