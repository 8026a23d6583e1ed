"""Cascaded voltage/current PI control for the grid-forming inverter.

Outer loop turns the dq0 voltage error into a current reference (limited to
the current rating); the inner loop turns the current error into a
modulation index, with the measured capacitor voltage fed forward.  Both
loops carry back-calculation anti-windup.  Starting gains come from the
classical magnitude/symmetrical-optimum rules; a coarse deterministic grid
search refines them on a seeded validation episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .. import ConfigurationError
from ..envs.grid import GridEnv, GridParams, seeded_load_series
from .pi import PiController


@dataclass(frozen=True)
class CascadeGains:
    kp_v: float   # A per V
    ki_v: float   # A per (V s)
    kp_i: float   # V per A
    ki_i: float   # V per (A s)

    def as_dict(self) -> dict:
        return {"kp_v": self.kp_v, "ki_v": self.ki_v, "kp_i": self.kp_i, "ki_i": self.ki_i}


def analytic_cascade_gains(params: GridParams, delay_steps: int = 1) -> CascadeGains:
    """Magnitude optimum for the inner current loop (voltage feed-forward
    cancels the capacitor coupling), symmetrical optimum for the outer
    voltage loop over the integrating capacitor plant."""
    t_sigma_i = (delay_steps + 0.5) * params.dt
    kp_i = params.inductance / (2.0 * t_sigma_i)
    ki_i = kp_i / (params.inductance / params.resistance)   # Ti = L / R_f
    t_sigma_v = 2.0 * t_sigma_i
    kp_v = params.capacitance / (2.0 * t_sigma_v)
    ki_v = kp_v / (4.0 * t_sigma_v)
    return CascadeGains(kp_v=kp_v, ki_v=ki_v, kp_i=kp_i, ki_i=ki_i)


class GridCascadePolicy:
    """Voltage/current PI cascade emitting modulation indices in [-1, 1]^3."""

    def __init__(self, params: GridParams, gains: CascadeGains | None = None):
        self.params = params
        self.gains = gains or analytic_cascade_gains(params)
        g = self.gains
        self.outer = PiController(
            np.full(3, g.kp_v), np.full(3, g.ki_v), -params.i_lim, params.i_lim
        )
        half_bus = params.v_dc / 2.0
        self.inner = PiController(
            np.full(3, g.kp_i / half_bus), np.full(3, g.ki_i / half_bus), -1.0, 1.0
        )

    def reset(self) -> None:
        self.outer.reset()
        self.inner.reset()

    def action(self, measurements: dict) -> np.ndarray:
        p = self.params
        v = measurements["v"]
        i = measurements["i"]
        v_ref = measurements["ref"]
        i_ref = self.outer.step(v_ref - v, p.dt)
        # Capacitor-voltage feed-forward carries the operating point so the
        # inner integrators only handle the residual.
        ff = v / (p.v_dc / 2.0)
        return self.inner.step(i_ref - i, p.dt, feedforward=ff)


def validation_score(
    params: GridParams, gains: CascadeGains, seed: int, steps: int,
    load_series: np.ndarray | None = None,
) -> tuple[float, bool]:
    """Mean task reward (discount 0) of a closed-loop seeded episode, plus
    whether any limit violation occurred.

    The episode's loads are those the live load process draws for `seed`;
    pass them as `load_series` (``seeded_load_series(seed, steps,
    params.dt)``) to skip drawing them again.  Replaying them as a schedule
    gives the same episode bit for bit."""
    if load_series is None:
        load_series = seeded_load_series(seed, steps, params.dt)
    env = GridEnv(params, gamma=0.0, seed=seed, terminate_on_violation=False)
    env.set_load_schedule(load_series)
    policy = GridCascadePolicy(params, gains)
    env.reset(seed=seed)
    policy.reset()
    total = 0.0
    violated = False
    for _ in range(steps):
        u = policy.action(env.measurements())
        _, r, _, info = env.step(u, raw_p=u)
        total += r
        violated = violated or info["limit_violation"]
    return total / steps, violated


def tune_grid_cascade(
    params: GridParams,
    seed: int = 0,
    factors_outer: tuple[float, ...] = (1.0, 2.0, 3.0),
    factors_inner: tuple[float, ...] = (0.5, 1.0),
    steps: int = 10_000,
) -> tuple[CascadeGains, dict]:
    """Deterministic coarse grid search around the analytic gains.

    Every (kp, ki) factor pair per loop is scored on the same seeded
    validation episode; candidates with limit violations are rejected.
    The outer voltage loop wants more gain than its conservative analytic
    rule (disturbance rejection), hence the asymmetric factor sets.
    """
    base = analytic_cascade_gains(params)
    loads = seeded_load_series(seed, steps, params.dt)
    best_gains = None
    best_score = -np.inf
    trials = []
    for fkp_v, fki_v, fkp_i, fki_i in product(factors_outer, factors_outer,
                                              factors_inner, factors_inner):
        gains = CascadeGains(
            kp_v=base.kp_v * fkp_v, ki_v=base.ki_v * fki_v,
            kp_i=base.kp_i * fkp_i, ki_i=base.ki_i * fki_i,
        )
        score, violated = validation_score(params, gains, seed, steps, loads)
        trials.append({"gains": gains.as_dict(), "score": score, "violated": violated})
        if violated:
            continue
        if score > best_score:
            best_score = score
            best_gains = gains
    if best_gains is None:
        raise ConfigurationError("no stabilizing gain candidate found in the search grid")
    report = {"best_score": best_score, "trials": trials, "seed": seed, "steps": steps}
    return best_gains, report
