"""PMSM stator-current control in the rotating dq frame.

Reference-tracking task at fixed electrical speed: drive the dq currents to
a changing reference under voltage-limit coupling and back-EMF.  Fully
observed (no measurement noise); one control period of actuation dead time
as in the grid plant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ConfigurationError, EnvironmentFault
from ..seeding import STREAM_ENV, derive_rng
from .base import HistoryRing, LtiStepper, PlantEnv, read_only, task_reward


@dataclass
class MotorParams:
    """Electrical PMSM constants (small servo class, fixed speed)."""

    r_s: float = 0.25             # ohm stator resistance
    l_d: float = 1.2e-3           # H
    l_q: float = 1.2e-3           # H
    psi_pm: float = 50e-3         # Wb permanent-magnet flux
    omega_el: float = 2.0 * np.pi * 100.0  # rad/s electrical, fixed
    v_dc: float = 350.0           # V DC-link
    i_lim: float = 20.0           # A
    dt: float = 1e-4              # s
    substeps: int = 10
    history_length: int = 5
    reference_hold_prob: float = 0.99  # per-step prob. of keeping the reference
    reference_radius: float = 0.9  # feasibility factor on i_lim

    def __post_init__(self):
        for name in ("r_s", "l_d", "l_q", "psi_pm", "v_dc", "i_lim", "dt"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"motor parameter {name} must be > 0")
        if self.omega_el < 0:
            raise ConfigurationError("omega_el must be >= 0 (fixed electrical speed)")
        if self.substeps < 1 or self.history_length < 0:
            raise ConfigurationError("substeps must be >= 1 and history_length >= 0")
        if not 0 < self.reference_radius <= 1:
            raise ConfigurationError("reference_radius must be in (0, 1]")
        if not 0 <= self.reference_hold_prob < 1:
            raise ConfigurationError("reference_hold_prob must be in [0, 1)")


class ReferenceGenerator:
    """Uniform draws from the feasible current disc |i*| <= radius*i_lim,
    held with a configurable per-step probability."""

    def __init__(self, i_lim: float, radius: float, hold_prob: float):
        self.max_norm = radius * i_lim
        self.hold_prob = hold_prob

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        r = self.max_norm * np.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([r * np.cos(phi), r * np.sin(phi)])

    def step(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.uniform() < self.hold_prob:
            return current
        return self.draw(rng)


class MotorEnv(PlantEnv):
    """dq current-control environment over the PMSM electrical dynamics."""

    name = "motor"

    def __init__(
        self,
        params: MotorParams | None = None,
        gamma: float = 0.946,
        seed: int = 0,
        terminate_on_violation: bool = False,
    ):
        self.params = p = params or MotorParams()
        super().__init__(gamma, terminate_on_violation, seed, action_dim=2,
                         obs_dim=10 + 2 * p.history_length,
                         history=HistoryRing(p.history_length, 2),
                         limits=np.full(2, p.i_lim), v_dc=p.v_dc)
        a = np.array([
            [-p.r_s / p.l_d, p.omega_el * p.l_q / p.l_d],
            [-p.omega_el * p.l_d / p.l_q, -p.r_s / p.l_q],
        ])
        b = np.array([[1.0 / p.l_d, 0.0], [0.0, 1.0 / p.l_q]])
        c = np.array([0.0, -p.omega_el * p.psi_pm / p.l_q])
        self._stepper = LtiStepper(a, b, c, p.dt, p.substeps)
        self._refgen = ReferenceGenerator(p.i_lim, p.reference_radius, p.reference_hold_prob)
        # Observation = numerator / scale, one division per step; blocks:
        # i, i_ref, error, raw_p, raw_i, current history (raw blocks: 1.0).
        self._obs_scale = np.array([p.i_lim] * 6 + [1.0] * 4 + [p.i_lim] * 2 * p.history_length)
        self._obs_num = np.empty(self.obs_dim)
        self._ref_schedule: np.ndarray | None = None
        self.reset()

    def _derive_rngs(self, seed: int) -> None:
        self._rng_env = derive_rng(seed, STREAM_ENV)

    def set_reference_schedule(self, series: np.ndarray | None) -> None:
        """Replay a frozen (steps, 2) reference series instead of random draws.

        Each step's reference is a read-only view of its row, not a copy,
        so the series must not be changed in place afterwards."""
        if series is not None:
            series = read_only(np.asarray(series, dtype=np.float64))
            if series.ndim != 2 or series.shape[1] != 2:
                raise ConfigurationError("reference schedule must have shape (steps, 2)")
        self._ref_schedule = series

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._reset_core(seed, 2)
        if self._ref_schedule is not None:
            self.i_ref = self._ref_schedule[0]
        else:
            self.i_ref = self._refgen.draw(self._rng_env)
        return self._observe((self._x.copy(),))

    def _propagate(self, v_stator: np.ndarray) -> np.ndarray:
        """This step's reference (schedule row or held/redrawn) and the
        state it propagates to."""
        if self._ref_schedule is not None:
            if self._step_in_episode >= len(self._ref_schedule):
                raise EnvironmentFault("reference schedule exhausted")
            self.i_ref = self._ref_schedule[self._step_in_episode]
        else:
            self.i_ref = self._refgen.step(self.i_ref, self._rng_env)
        return self._stepper.propagate(self._x, v_stator)

    def _features(self, i_meas, raw_p, raw_i) -> np.ndarray:
        num = self._obs_num
        num[0:2] = i_meas
        num[2:4] = self.i_ref
        err = num[4:6]
        np.subtract(self.i_ref, i_meas, out=err)
        err *= 0.5
        num[6:8] = raw_p
        num[8:10] = raw_i
        num[10:] = self._hist.flat()
        return num / self._obs_scale

    def step(self, u: np.ndarray, raw_p: np.ndarray | None = None,
             raw_i: np.ndarray | None = None, scored: bool = True, observed: bool = True):
        """One control period, under the contract in envs.base:
        ``scored``/``observed`` False skip the task reward/the observation,
        and None stands in for each (also in info["task_reward"])."""
        violation, terminal = self._settle(self._transition(u))
        i_meas = self._x.copy()
        reward = (task_reward(self.i_ref, i_meas, self.params.i_lim, self.gamma)
                  if scored else None)
        obs = self._observe((i_meas,), raw_p, raw_i, observed)
        info = {
            "task_reward": reward,
            "i_meas": i_meas,
            "i_ref": self.i_ref,
            "limit_violation": violation,
        }
        return obs, reward, terminal, info

    def measurements(self) -> dict:
        return {"i": read_only(self._x), "ref": read_only(self.i_ref)}

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "i_ref": self.i_ref.copy(),
            "rng_env": self._rng_env.bit_generator.state,
        }

    def load_state_dict(self, s: dict) -> None:
        super().load_state_dict(s)
        self.i_ref = np.asarray(s["i_ref"], dtype=np.float64).copy()
        self._rng_env.bit_generator.state = s["rng_env"]
