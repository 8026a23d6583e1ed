"""Vector PI controller with back-calculation anti-windup, plus the
symmetrical-optimum tuning rule for the motor current loops."""

from __future__ import annotations

import numpy as np

from .. import ConfigurationError
from ..envs.motor import MotorParams


class PiController:
    """Per-channel PI at a fixed control period `dt`: u = clip(kp*e + acc +
    ff); the accumulator carries the integral part and is bled back when
    the output clips, with the classical back-calculation gain
    1/T_t = ki/kp per second.

    `kp` and `ki` may have any shape, such as (m,) for one controller or
    (k, m) for k controllers stepped together; the accumulator and output
    take that shape.  Every operation is elementwise, so row r of a (k, m)
    controller computes bit for bit what a (m,) controller with row r's
    gains would.  The clip is np.minimum(np.maximum(u, lo), hi): it equals
    np.clip, NaN included, except for the sign of a zero output at a bound
    of exactly 0.
    """

    def __init__(self, kp, ki, lo: float, hi: float, dt: float):
        self.kp = np.atleast_1d(np.asarray(kp, dtype=np.float64))
        self.ki = np.atleast_1d(np.asarray(ki, dtype=np.float64))
        if self.kp.shape != self.ki.shape:
            raise ConfigurationError("kp and ki must have matching shapes")
        if lo >= hi:
            raise ConfigurationError(f"need lo < hi, got {lo}, {hi}")
        if dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.dt = float(dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            k_aw = np.where(self.kp > 0, self.ki / np.maximum(self.kp, 1e-30), 0.0)
        # The anti-windup gain per step.
        self._aw = k_aw * self.dt
        self.acc = np.zeros_like(self.kp)

    def reset(self) -> None:
        self.acc = np.zeros_like(self.kp)

    def step(self, error, feedforward=0.0):
        e = np.asarray(error, dtype=np.float64)
        if e.ndim == 0:  # np.atleast_1d, without its Python wrapper
            e = e.reshape(1)
        u_unclipped = self.kp * e + self.acc + feedforward
        u = np.minimum(np.maximum(u_unclipped, self.lo), self.hi)
        self.acc = self.acc + self.ki * e * self.dt + self._aw * (u - u_unclipped)
        return u


def symmetrical_optimum_gains(params: MotorParams, dt: float, delay_steps: int = 1):
    """PI gains for the dq current loops, in modulation index per ampere.

    The small-lag sum aggregates the actuation dead time plus half a period
    for the hold; the inductive plant is treated as integrating relative to
    that lag:  kp = L / (2 T_sigma),  Ti = 4 T_sigma.
    """
    if dt <= 0 or delay_steps < 0:
        raise ConfigurationError("need dt > 0 and delay_steps >= 0")
    t_sigma = (delay_steps + 0.5) * dt
    kp_v = np.array([params.l_d, params.l_q]) / (2.0 * t_sigma)  # V per A
    ki_v = kp_v / (4.0 * t_sigma)
    half_bus = params.v_dc / 2.0
    return kp_v / half_bus, ki_v / half_bus


class MotorPiPolicy:
    """Closed-loop current controller usable wherever an agent policy is:
    reads physical measurements, emits modulation indices in [-1, 1]^2."""

    def __init__(self, params: MotorParams, delay_steps: int = 1):
        self.params = params
        kp, ki = symmetrical_optimum_gains(params, params.dt, delay_steps)
        self.pi = PiController(kp, ki, -1.0, 1.0, params.dt)

    def reset(self) -> None:
        self.pi.reset()

    def action(self, measurements: dict) -> np.ndarray:
        return self.pi.step(measurements["ref"] - measurements["i"])
