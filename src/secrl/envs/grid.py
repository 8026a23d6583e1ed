"""Grid-forming inverter with LC filter feeding a stochastic resistive load.

Disturbance-rejection task: hold a constant dq0 voltage reference while the
load resistance wanders (partially observable — the load is never measured,
only mitigated through past-measurement features).  Simulated natively in
the rotating dq0 frame; the frame transform is considered part of the
plant.  One control period of actuation dead time models digital
controller latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import ConfigurationError, EnvironmentFault
from ..seeding import STREAM_LOAD, STREAM_NOISE, derive_rng
from .base import HistoryRing, LtiStepper, PlantEnv, read_only, task_reward

R_LOAD_MIN = 14.0
R_LOAD_MAX = 200.0
LOAD_EVENT_PROB = 0.002
LOAD_STIFFNESS_RANGE = (10.0, 1200.0)
LOAD_DIFFUSION_RANGE = (1.0, 150.0)
DRIFT_STEPS_RANGE = (10, 1000)
# Schedule entries whose propagators are built in one stacked call.
SCHEDULE_BLOCK = 256
# State columns of a measurement [v_dq0, i_dq0]; the state is [i_dq0, v_dq0].
_MEASURED_ORDER = np.array([3, 4, 5, 0, 1, 2])


@dataclass
class GridParams:
    """LC-filter plant constants (representative 120 V / 60 Hz class)."""

    inductance: float = 2.3e-3      # H
    resistance: float = 0.4         # ohm, filter series resistance
    capacitance: float = 10e-6      # F
    frequency: float = 60.0         # Hz grid frequency
    v_dc: float = 600.0             # V DC-link
    v_nom: float = 120.0 * np.sqrt(2.0)  # V peak, d-axis reference
    v_lim: float = 1.5 * 120.0 * np.sqrt(2.0)
    i_lim: float = 30.0             # A
    dt: float = 1e-4                # s control period
    substeps: int = 10
    # Noise level chosen so the measurement-noise floor of the mean-root
    # error metric stays consistent with the reference controller scores.
    noise_v: float = 0.25           # V measurement noise std (0 disables)
    noise_i: float = 0.05           # A
    history_length: int = 5         # past voltage measurements in features

    def __post_init__(self):
        for name in ("inductance", "resistance", "capacitance", "frequency",
                     "v_dc", "v_nom", "v_lim", "i_lim", "dt"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"grid parameter {name} must be > 0")
        if self.substeps < 1 or self.history_length < 0:
            raise ConfigurationError("substeps must be >= 1 and history_length >= 0")
        # RK4 needs several substeps per LC resonance period.
        resonance_period = 2.0 * np.pi * np.sqrt(self.inductance * self.capacitance)
        if resonance_period <= 4.0 * self.dt / self.substeps:
            raise ConfigurationError(
                "substep too coarse for the LC resonance; increase substeps"
            )

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.frequency

    @property
    def v_ref(self) -> np.ndarray:
        return np.array([self.v_nom, 0.0, 0.0])


class LoadProcess:
    """Mean-reverting random walk on the load resistance.

    Each step advances an OU recursion; with 0.2 % probability per step the
    (stiffness, diffusion, mean) triple is redrawn — half the time the mean
    jumps immediately, half the time it drifts linearly to the new value
    over 10..1000 steps.  Output is always clipped to [14, 200] ohm.
    """

    def __init__(self, stiffness: float, diffusion: float, mean: float, value: float, dt: float):
        self.stiffness = stiffness
        self.diffusion = diffusion
        self.mean = mean
        self.value = value
        self.dt = dt
        self._drift_target = mean
        self._drift_rate = 0.0
        self._drift_left = 0
        self.event_count = 0

    @classmethod
    def draw(cls, rng: np.random.Generator, dt: float) -> "LoadProcess":
        lam = rng.uniform(*LOAD_STIFFNESS_RANGE)
        sig = rng.uniform(*LOAD_DIFFUSION_RANGE)
        eta = rng.uniform(R_LOAD_MIN, R_LOAD_MAX)
        return cls(stiffness=lam, diffusion=sig, mean=eta, value=eta, dt=dt)

    def _draw_mean(self, rng: np.random.Generator) -> float:
        # Lower clip bound is itself jittered, biasing occupancy toward the
        # high-demand (low resistance) end.
        lo = R_LOAD_MIN + rng.normal(0.0, 2.0)
        return min(max(rng.uniform(-10.0, R_LOAD_MAX), lo), R_LOAD_MAX)

    def step(self, rng: np.random.Generator) -> float:
        if rng.uniform() < LOAD_EVENT_PROB:
            self.event_count += 1
            self.stiffness = rng.uniform(*LOAD_STIFFNESS_RANGE)
            self.diffusion = rng.uniform(*LOAD_DIFFUSION_RANGE)
            new_mean = self._draw_mean(rng)
            if rng.uniform() < 0.5:
                self.mean = new_mean
                self._drift_left = 0
            else:
                steps = int(rng.integers(DRIFT_STEPS_RANGE[0], DRIFT_STEPS_RANGE[1] + 1))
                self._drift_target = new_mean
                self._drift_rate = (new_mean - self.mean) / steps
                self._drift_left = steps
        if self._drift_left > 0:
            self.mean += self._drift_rate
            self._drift_left -= 1
            if self._drift_left == 0:
                self.mean = self._drift_target
        # Python floats throughout: per-step scalar numpy calls cost more
        # than the arithmetic, and min/max clip as np.clip does.
        shock = self.diffusion * math.sqrt(self.dt) * rng.standard_normal()
        self.value += self.stiffness * (self.mean - self.value) * self.dt + shock
        self.value = min(max(self.value, R_LOAD_MIN), R_LOAD_MAX)
        return self.value

    def state_dict(self) -> dict:
        return {
            "stiffness": self.stiffness, "diffusion": self.diffusion,
            "mean": self.mean, "value": self.value,
            "drift_target": self._drift_target, "drift_rate": self._drift_rate,
            "drift_left": self._drift_left, "event_count": self.event_count,
        }

    def load_state_dict(self, s: dict) -> None:
        self.stiffness = float(s["stiffness"])
        self.diffusion = float(s["diffusion"])
        self.mean = float(s["mean"])
        self.value = float(s["value"])
        self._drift_target = float(s["drift_target"])
        self._drift_rate = float(s["drift_rate"])
        self._drift_left = int(s["drift_left"])
        self.event_count = int(s["event_count"])


def seeded_load_series(seed: int, steps: int, dt: float) -> np.ndarray:
    """The loads a live-process GridEnv reset with `seed` applies: entry k
    is the load of step k, from the same STREAM_LOAD draws at period `dt`."""
    rng = derive_rng(seed, STREAM_LOAD)
    proc = LoadProcess.draw(rng, dt)
    series = np.empty(steps)
    for k in range(steps):
        series[k] = proc.step(rng)
    return series


class GridEnv(PlantEnv):
    """dq0 voltage-control environment over the LC-filter plant."""

    name = "grid"

    def __init__(
        self,
        params: GridParams | None = None,
        gamma: float = 0.946,
        seed: int = 0,
        terminate_on_violation: bool = False,
    ):
        self.params = p = params or GridParams()
        super().__init__(gamma, terminate_on_violation, seed, action_dim=3,
                         obs_dim=18 + 3 * p.history_length,
                         history=HistoryRing(p.history_length, 3),
                         limits=np.array([p.i_lim] * 3 + [p.v_lim] * 3),  # state [i_dq0, v_dq0]
                         v_dc=p.v_dc)
        self._b = np.zeros((6, 3))
        self._b[0, 0] = self._b[1, 1] = self._b[2, 2] = 1.0 / p.inductance
        self._c = np.zeros(6)
        self._a_template = self._make_a_template()
        # Per-step constants; v_ref is shared by every info/measurements dict.
        self._v_ref = read_only(p.v_ref)
        # Measurement noise, one draw per step: voltages first, then
        # currents, each only when its level is > 0.  _noise_at is the
        # noisy part of a measurement [v_dq0, i_dq0].
        self._noise_scale = np.repeat([level for level in (p.noise_v, p.noise_i) if level > 0], 3)
        self._noise_at = slice(0 if p.noise_v > 0 else 3, 6 if p.noise_i > 0 else 3)
        # Observation = numerator / scale, one division per step; blocks:
        # i, v, v_ref, error, raw_p, raw_i, voltage history.  The scale is
        # 1.0 where a block is not normalized (v_ref is stored normalized).
        self._obs_scale = np.array([p.i_lim] * 3 + [p.v_lim] * 3 + [1.0] * 3 + [p.v_lim] * 3
                                   + [1.0] * 6 + [p.v_lim] * 3 * p.history_length)
        self._obs_num = np.empty(self.obs_dim)
        self._obs_num[6:9] = self._v_ref / p.v_lim
        self._load_schedule: np.ndarray | None = None
        self._block: tuple[int, np.ndarray, LtiStepper] | None = None
        self.reset()

    def _derive_rngs(self, seed: int) -> None:
        self._rng_load = derive_rng(seed, STREAM_LOAD)
        self._rng_noise = derive_rng(seed, STREAM_NOISE)

    def _make_a_template(self) -> np.ndarray:
        p = self.params
        w = p.omega
        a = np.zeros((6, 6))
        a[0, 0] = a[1, 1] = a[2, 2] = -p.resistance / p.inductance
        a[0, 1] = w
        a[1, 0] = -w
        a[0, 3] = a[1, 4] = a[2, 5] = -1.0 / p.inductance
        a[3, 0] = a[4, 1] = a[5, 2] = 1.0 / p.capacitance
        a[3, 4] = w
        a[4, 3] = -w
        # v-row diagonals (-1/(R C)) are filled per step from the live load.
        return a

    def _stepper_for(self, r_load: float) -> LtiStepper:
        a = self._a_template.copy()
        g = -1.0 / (r_load * self.params.capacitance)
        a[3, 3] = a[4, 4] = a[5, 5] = g
        return LtiStepper(a, self._b, self._c, self.params.dt, self.params.substeps)

    def _scheduled_stepper(self, k: int) -> tuple[LtiStepper, int]:
        """Stacked propagators of the schedule block holding entry k, and
        entry k's slice.  A block covers up to SCHEDULE_BLOCK entries from
        the step that first needed it, built once over its distinct loads;
        each slice is bit-identical to _stepper_for on that load."""
        block = self._block
        if block is None or not 0 <= k - block[0] < len(block[1]):
            distinct, index = np.unique(
                self._load_schedule[k:k + SCHEDULE_BLOCK], return_inverse=True)
            a = np.repeat(self._a_template[None], len(distinct), axis=0)
            g = -1.0 / (distinct * self.params.capacitance)
            a[:, 3, 3] = a[:, 4, 4] = a[:, 5, 5] = g
            stepper = LtiStepper(a, self._b, self._c, self.params.dt, self.params.substeps)
            self._block = block = (k, index, stepper)
        return block[2], int(block[1][k - block[0]])

    def set_load_schedule(self, series: np.ndarray | None) -> None:
        """Replay a frozen per-step load series instead of the live process.

        Propagators are built ahead in blocks, so the series must not be
        changed in place afterwards; call this again with the new series."""
        self._load_schedule = None if series is None else np.asarray(series, dtype=np.float64)
        self._block = None

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._reset_core(seed, 6)
        if self._load_schedule is None:
            self._load = LoadProcess.draw(self._rng_load, self.params.dt)
        self.r_load = (
            float(self._load_schedule[0]) if self._load_schedule is not None else self._load.value
        )
        self._last_meas = self._measure()
        return self._observe(self._last_meas)

    def _propagate(self, v_inverter: np.ndarray) -> np.ndarray:
        """This step's load (schedule entry or live draw) and the state it
        propagates to."""
        if self._load_schedule is not None:
            k = self._step_in_episode
            if k >= len(self._load_schedule):
                raise EnvironmentFault("load schedule exhausted")
            self.r_load = float(self._load_schedule[k])
            stepper, j = self._scheduled_stepper(k)
            return stepper.propagate(self._x, v_inverter, j)
        self.r_load = self._load.step(self._rng_load)
        return self._stepper_for(self.r_load).propagate(self._x, v_inverter)

    def _measure(self) -> tuple[np.ndarray, np.ndarray]:
        # One noise draw per step, shared by every row of a lockstep state.
        meas = self._x.take(_MEASURED_ORDER, axis=-1)
        if self._noise_scale.size:
            meas[..., self._noise_at] += (
                self._noise_scale * self._rng_noise.standard_normal(self._noise_scale.size))
        # Read-only, so that measurements() and info can share it uncopied.
        meas.setflags(write=False)
        return meas[..., :3], meas[..., 3:]

    def _features(self, v_meas, i_meas, raw_p, raw_i) -> np.ndarray:
        num = self._obs_num
        num[0:3] = i_meas
        num[3:6] = v_meas
        err = num[9:12]
        np.subtract(self._v_ref, v_meas, out=err)
        err *= 0.5
        num[12:15] = raw_p
        num[15:18] = raw_i
        num[18:] = self._hist.flat()
        return num / self._obs_scale

    def lockstep(self, k: int) -> None:
        """Run the freshly reset episode as k copies of the plant in lockstep.

        The state becomes (k, 6) and the pending command (k, 3), and
        advance() then takes one (k, 3) command per step.  Every copy sees
        the episode's loads and measurement noise, which do not depend on
        the state, so row r evolves bit for bit as a 1-D episode under row
        r's commands would.  Observation features have no stacked form:
        step() refuses a lockstep episode until the next reset()."""
        if self._x.ndim != 1 or self._step_in_episode != 0:
            raise EnvironmentFault("lockstep() needs a freshly reset episode")
        self._x = np.repeat(self._x[None], k, axis=0)
        self._pending_u = np.repeat(self._pending_u[None], k, axis=0)
        self._last_meas = tuple(read_only(np.repeat(m[None], k, axis=0)) for m in self._last_meas)

    def advance(self, u: np.ndarray, scored: bool = True):
        """One control period under the command `u`: the dead time, the
        propagation under this step's load, the noisy measurement, the task
        reward and the limit-violation flag.

        Returns (v_meas, i_meas, task_reward, limit_violation), per row
        for a lockstep() episode; with ``scored=False`` the reward is not
        computed and None stands in for it.  step() is this plus the
        observation."""
        violation = self._transition(u)
        self._last_meas = v_meas, i_meas = self._measure()
        reward = (task_reward(self._v_ref, v_meas, self.params.v_lim, self.gamma)
                  if scored else None)
        return v_meas, i_meas, reward, violation

    def step(self, u: np.ndarray, raw_p: np.ndarray | None = None,
             raw_i: np.ndarray | None = None, scored: bool = True, observed: bool = True):
        """advance() plus the observation, under the contract in envs.base:
        ``scored``/``observed`` False skip the task reward/the observation,
        and None stands in for each (also in info["task_reward"])."""
        if self._x.ndim != 1:
            raise EnvironmentFault("step() on a lockstep episode; use advance()")
        v_meas, i_meas, reward, violation = self.advance(u, scored)
        violation, terminal = self._settle(violation)
        obs = self._observe((v_meas, i_meas), raw_p, raw_i, observed)
        info = {
            "task_reward": reward,
            "v_meas": v_meas,
            "i_meas": i_meas,
            "v_ref": self._v_ref,
            "r_load": self.r_load,
            "limit_violation": violation,
        }
        return obs, reward, terminal, info

    def measurements(self) -> dict:
        v, i = self._last_meas
        return {"v": v, "i": i, "ref": self._v_ref}

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "load": self._load.state_dict(),
            "rng_load": self._rng_load.bit_generator.state,
            "rng_noise": self._rng_noise.bit_generator.state,
            "last_v": self._last_meas[0].copy(),
            "last_i": self._last_meas[1].copy(),
        }

    def load_state_dict(self, s: dict) -> None:
        super().load_state_dict(s)
        self._load.load_state_dict(s["load"])
        self._rng_load.bit_generator.state = s["rng_load"]
        self._rng_noise.bit_generator.state = s["rng_noise"]
        self._last_meas = (
            read_only(np.asarray(s["last_v"], dtype=np.float64).copy()),
            read_only(np.asarray(s["last_i"], dtype=np.float64).copy()),
        )
        if self._load_schedule is not None:
            # The entry the last step applied (reset applies entry 0).
            self.r_load = float(self._load_schedule[max(self._step_in_episode - 1, 0)])
        else:
            self.r_load = self._load.value
