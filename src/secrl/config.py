"""Run configuration: flat dotted-key schema, defaults, validation, echo.

Keys are normative (e.g. ``agent.gamma``, ``sec.t_i``, ``env.grid.v_dc``).
Defaults are the tuned configuration; hyperparameters carry their search
ranges and anything outside is rejected unless ``allow_out_of_range`` is
set.  That option lifts numeric ranges only: a value outside a key's
``choices`` or an unknown variant name is always refused.  Schedule
breakpoints are stated on the full-scale training horizon
(``train.schedule_horizon``) and rescaled proportionally when a shorter
``train.steps`` is requested, so desk-scale runs keep the same schedule
shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from . import ConfigurationError
from .checkpoint import atomic_write
from .ddpg.agent import AgentConfig
from .ddpg.train import TrainSettings
from .envs.grid import GridParams
from .envs.motor import MotorParams
from .evaluation.metrics import require_steady_state_window
from .evaluation.testcases import PLANTS
from .nn.optim import OPTIMIZERS
from .sec import SecRewardConfig

FULL_SCALE_STEPS = 5_000_000

RL_VARIANTS = ("ddpg", "sec-ddpg")   # trained agents, plain and augmented
VARIANTS = (*RL_VARIANTS, "pi")       # plus the classical baseline

@dataclass(frozen=True)
class _Key:
    default: object                  # its type is the key's type
    lo: float | None = None          # inclusive range, None = unchecked
    hi: float | None = None
    choices: tuple | None = None
    scaled_by_horizon: bool = False  # breakpoint rescaled by steps/schedule_horizon


def _coerce(key: str, value, default):
    """`value` as the type of `default`: bool, int, float or str, or for a
    list default, a list whose items are coerced as its first item."""
    try:
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError(value)
        if isinstance(default, int):
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ValueError(value)
            return int(value)
        if isinstance(default, float):
            if isinstance(value, bool):
                raise ValueError(value)
            return float(value)
        if isinstance(default, str):
            return str(value)
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return [_coerce(key, v, default[0]) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r}: cannot parse {value!r}") from exc


# Plant constants: one `env.<plant>.<field>` key per parameter field, in
# field order, with the dataclass default.  The control period and the
# history length come from `train.sampling_time` and `env.past_measurements`.
def _plant_fields(plant: str) -> list:
    return [f for f in fields(PLANTS[plant].params_cls) if f.name not in ("dt", "history_length")]


def _plant_key(plant: str, f) -> _Key:
    integral = isinstance(f.default, int)
    # Converted: yaml.safe_dump rejects numpy scalars such as GridParams.v_nom.
    return _Key(int(f.default) if integral else float(f.default),
                lo=1 if integral else 0.0, hi=PLANTS[plant].hi.get(f.name))


SCHEMA: dict[str, _Key] = {
    "seed": _Key(0),
    "out_dir": _Key("runs/out"),
    "allow_out_of_range": _Key(False),
    # training horizon and loop cadence
    "train.steps": _Key(200_000, lo=0),
    "train.schedule_horizon": _Key(FULL_SCALE_STEPS, lo=1),
    "train.rescale_schedules": _Key(True),
    "train.episode_steps": _Key(2811, lo=1, hi=5000),
    "train.sampling_time": _Key(1e-4, lo=1e-9),
    "train.progress_every": _Key(0, lo=0),
    "train.checkpoint_every": _Key(0, lo=0),
    # agent hyperparameters (tuned values; ranges from the search setting)
    "agent.variant": _Key("sec-ddpg", choices=VARIANTS),
    "agent.gamma": _Key(0.946, lo=0.5, hi=0.999),
    "agent.lr": _Key(3.75e-4, lo=1e-6, hi=5e-2),
    "agent.lr_final": _Key(3.13e-4, lo=1e-12, hi=5e-2),
    "agent.lr_decay_start": _Key(1_375_000, lo=0, scaled_by_horizon=True),
    "agent.lr_decay_end": _Key(1_620_000, lo=0, scaled_by_horizon=True),
    "agent.optimizer": _Key("adam", choices=tuple(OPTIMIZERS)),
    "agent.buffer_size": _Key(3_870_000, lo=20_000),
    "agent.batch_size": _Key(261, lo=16, hi=1024),
    "agent.tau": _Key(2.61e-3, lo=1e-4, hi=3e-1),
    "agent.weight_scale": _Key(8.5e-4, lo=5e-5, hi=2e-1),
    "agent.bias_scale": _Key(2e-2, lo=5e-4, hi=2e-1),
    "agent.train_freq": _Key(2, lo=1, hi=15_000),
    "agent.actor.beta": _Key(0.208, lo=1e-3, hi=0.5),
    "agent.actor.layers": _Key(2, lo=1, hi=4),
    "agent.actor.units": _Key(25, lo=10, hi=200),
    "agent.critic.beta": _Key(6.79e-3, lo=1e-3, hi=0.5),
    "agent.critic.layers": _Key(4, lo=1, hi=4),
    "agent.critic.units": _Key(295, lo=10, hi=300),
    "agent.noise.stiffness": _Key(31.58, lo=1.0, hi=50.0),
    "agent.noise.diffusion": _Key(2.6e-2, lo=1e-2, hi=1.0),
    # integral-action augmentation
    "sec.t_i": _Key(0.31, lo=5e-3, hi=2.0),
    "sec.t_aw": _Key(0.66, lo=1e-5, hi=1.0),
    "sec.kappa_p": _Key(1.48, lo=0.0, hi=2.0),
    "sec.kappa_i": _Key(1.13, lo=0.0, hi=2.0),
    "sec.kappa_p_decay_start": _Key(1_150_000, lo=0, scaled_by_horizon=True),
    "sec.kappa_i_decay_start": _Key(2_750_000, lo=0, scaled_by_horizon=True),
    # environments
    "env.kind": _Key("grid", choices=tuple(PLANTS)),
    "env.past_measurements": _Key(5, lo=0, hi=50),
    # Training runs every episode to the step cap.  With always-negative
    # rewards, ending an episode at a limit violation *pays* (terminal cuts
    # the stream of penalties), and agents demonstrably learn to crash; the
    # violation-terminal machinery stays available behind this switch.
    "env.terminate_on_violation": _Key(False),
    **{f"env.{plant}.{f.name}": _plant_key(plant, f)
       for plant in PLANTS for f in _plant_fields(plant)},
    # experiment harness
    "experiment.variants": _Key(list(VARIANTS)),
    "experiment.seeds": _Key([1, 2, 3, 4, 5]),
    "experiment.workers": _Key(1, lo=1),
    "experiment.testcase_seed": _Key(97),
    "experiment.grid_transient_steps": _Key(100_000, lo=1),
    "experiment.motor_profile_steps": _Key(10_000, lo=1),
    "experiment.segments": _Key(20, lo=1),
    "experiment.segment_length": _Key(500, lo=2),
    "experiment.save_trajectories": _Key(False),
    "experiment.pi_tune_steps": _Key(10_000, lo=100),
    "experiment.pi_tune_seed": _Key(11),
}

class RunConfig:
    """Validated flat configuration with derived desk-scale schedule values."""

    def __init__(self, values: dict):
        self.values = values
        self.derived = self._derive()

    def __getitem__(self, key: str):
        if key in self.derived:
            return self.derived[key]
        return self.values[key]

    def _derive(self) -> dict:
        v = self.values
        derived = {}
        steps = v["train.steps"]
        horizon = v["train.schedule_horizon"]
        if v["train.rescale_schedules"] and steps != horizon and steps > 0:
            factor = steps / horizon
            for key, spec in SCHEMA.items():
                if spec.scaled_by_horizon:
                    derived[key] = int(round(v[key] * factor))
        # Ring capacity never exceeds the number of transitions generated.
        derived["agent.buffer_size"] = max(1, min(v["agent.buffer_size"], max(steps, 1)))
        return derived

    # -- builders ---------------------------------------------------------

    def plant_params(self, plant: str):
        """The parameters of plant `plant`, a name in ``PLANTS``."""
        v = self.values
        return PLANTS[plant].params_cls(
            **{f.name: v[f"env.{plant}.{f.name}"] for f in _plant_fields(plant)},
            dt=v["train.sampling_time"],
            history_length=v["env.past_measurements"],
        )

    def grid_params(self) -> GridParams:
        return self.plant_params("grid")

    def motor_params(self) -> MotorParams:
        return self.plant_params("motor")

    def agent_config(self, obs_dim: int, action_dim: int) -> AgentConfig:
        v = self.values
        return AgentConfig(
            obs_dim=obs_dim,
            action_dim=action_dim,
            actor_hidden=[v["agent.actor.units"]] * v["agent.actor.layers"],
            critic_hidden=[v["agent.critic.units"]] * v["agent.critic.layers"],
            beta_actor=v["agent.actor.beta"],
            beta_critic=v["agent.critic.beta"],
            gamma=v["agent.gamma"],
            tau=v["agent.tau"],
            batch_size=v["agent.batch_size"],
            train_freq=v["agent.train_freq"],
            buffer_capacity=self["agent.buffer_size"],
            optimizer=v["agent.optimizer"],
            weight_scale=v["agent.weight_scale"],
            bias_scale=v["agent.bias_scale"],
            lr=v["agent.lr"],
            lr_final=v["agent.lr_final"],
            lr_decay_start=self["agent.lr_decay_start"],
            lr_decay_end=self["agent.lr_decay_end"],
        )

    def sec_reward_config(self) -> SecRewardConfig:
        v = self.values
        total = max(v["train.steps"], 1)
        # A decay start at/after the horizon means the penalty never decays.
        return SecRewardConfig(
            kappa_p=v["sec.kappa_p"],
            kappa_i=v["sec.kappa_i"],
            kappa_p_decay_start=min(self["sec.kappa_p_decay_start"], total),
            kappa_i_decay_start=min(self["sec.kappa_i_decay_start"], total),
            total_steps=total,
            gamma=v["agent.gamma"],
        )

    def train_settings(self) -> TrainSettings:
        v = self.values
        return TrainSettings(
            total_steps=v["train.steps"],
            episode_steps=v["train.episode_steps"],
            noise_stiffness=v["agent.noise.stiffness"],
            noise_diffusion=v["agent.noise.diffusion"],
            noise_dt=v["train.sampling_time"],
        )

    # -- io ---------------------------------------------------------------

    def echo(self, path: str | Path) -> None:
        """Write the effective configuration (raw keys plus derived values)
        through ``atomic_write``."""
        payload = dict(sorted(self.values.items()))
        payload["_derived"] = dict(sorted(self.derived.items()))
        with atomic_write(path, text=True) as fh:
            yaml.safe_dump(payload, fh, sort_keys=False)

    def to_json(self) -> str:
        return json.dumps({"values": self.values, "derived": self.derived}, default=str)


def _validate_choices(values: dict) -> None:
    """Refuse a key outside its ``choices`` or an unknown variant name;
    ``allow_out_of_range`` does not lift this."""
    problems = [f"{key}={values[key]!r} not in {spec.choices}" for key, spec in SCHEMA.items()
                if spec.choices is not None and values[key] not in spec.choices]
    problems += [f"experiment.variants contains unknown variant {variant!r}"
                 for variant in values["experiment.variants"] if variant not in VARIANTS]
    if problems:
        raise ConfigurationError(
            "configuration outside the accepted choices:\n  " + "\n  ".join(problems))


def _validate_ranges(values: dict) -> None:
    if values["allow_out_of_range"]:
        return
    problems = []
    horizon = values["train.schedule_horizon"]
    for key, spec in SCHEMA.items():
        val = values[key]
        lo = spec.lo
        hi = spec.hi if not spec.scaled_by_horizon else horizon
        if lo is not None and val < lo:
            problems.append(f"{key}={val} below {lo}")
        if hi is not None and val > hi:
            problems.append(f"{key}={val} above {hi}")
    if values["agent.lr_final"] > values["agent.lr"]:
        problems.append("agent.lr_final must not exceed agent.lr")
    if values["agent.lr_decay_end"] < values["agent.lr_decay_start"]:
        problems.append("agent.lr_decay_end must be >= agent.lr_decay_start")
    if problems:
        raise ConfigurationError(
            "configuration outside the accepted ranges "
            "(set allow_out_of_range to force):\n  " + "\n  ".join(problems)
        )


def parse_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Merge defaults < file < overrides, reject unknown keys, validate;
    an unreadable file raises ConfigurationError.  A file's ``_derived``
    block (an echo's) is dropped: derived values follow from the values."""
    values = {key: spec.default for key, spec in SCHEMA.items()}
    raw = {}
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path} must be a flat mapping")
        raw.pop("_derived", None)
    for source, items in ((f"in {path}", raw), ("in overrides", overrides or {})):
        for key, val in items.items():
            if key not in SCHEMA:
                raise ConfigurationError(f"unknown config key {key!r} {source}")
            values[key] = _coerce(key, val, SCHEMA[key].default)
    _validate_choices(values)
    _validate_ranges(values)
    # Not liftable by allow_out_of_range: scoring would fail after training,
    # and each (variant, seed) run owns one run directory and its report rows.
    require_steady_state_window(values["env.kind"], values["experiment.segment_length"])
    for key in ("experiment.variants", "experiment.seeds"):
        if not values[key] or len(set(values[key])) < len(values[key]):
            raise ConfigurationError(f"{key} must be a non-empty list without repeats, "
                                     f"got {values[key]}")
    return RunConfig(values)


def parse_override_strings(pairs: list[str]) -> dict:
    """Parse repeated ``key=value`` strings; values go through YAML typing,
    and a value YAML cannot read raises ConfigurationError."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        try:
            out[key.strip()] = yaml.safe_load(raw.strip())
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"override {pair!r}: cannot parse the value: {exc}") from exc
    return out
