"""Cascaded voltage/current PI control for the grid-forming inverter.

Outer loop turns the dq0 voltage error into a current reference (limited to
the current rating); the inner loop turns the current error into a
modulation index, with the measured capacitor voltage fed forward.  Both
loops carry back-calculation anti-windup.  Starting gains come from the
classical magnitude/symmetrical-optimum rules; a coarse deterministic grid
search refines them on a seeded validation episode.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    """Voltage/current PI cascade emitting modulation indices in [-1, 1]^3.

    `gains` may also be a sequence of k candidates: the policy then holds
    k cascades side by side, one row each, and maps measurements of shape
    (3,) or (k, 3) to (k, 3) commands."""

    def __init__(self, params: GridParams,
                 gains: CascadeGains | Sequence[CascadeGains] | None = None):
        self.params = params
        self.gains = analytic_cascade_gains(params) if gains is None else gains
        single = isinstance(self.gains, CascadeGains)
        half_bus = params.v_dc / 2.0
        table = np.array([[g.kp_v, g.ki_v, g.kp_i / half_bus, g.ki_i / half_bus]
                          for g in ([self.gains] if single else self.gains)]).reshape(-1, 4)
        # Per-channel gains (4, k, 3); one candidate drops the k axis.
        per_channel = np.repeat(table.T[:, :, None], 3, axis=2)
        kp_v, ki_v, kp_i, ki_i = per_channel[:, 0] if single else per_channel
        self.outer = PiController(kp_v, ki_v, -params.i_lim, params.i_lim)
        self.inner = PiController(kp_i, ki_i, -1.0, 1.0)

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
    params: GridParams, gains: CascadeGains | Sequence[CascadeGains], seed: int, steps: int,
) -> tuple[float, bool] | tuple[np.ndarray, np.ndarray]:
    """Mean task reward (discount 0) of a closed-loop seeded episode, plus
    whether any limit violation occurred: (float, bool) for one
    `CascadeGains`, and (scores[k], violated[k]) arrays for a sequence of k.

    The k candidates are scored in one lockstep episode: k cascades drive
    k copies of the plant (GridEnv.lockstep), and each step's load,
    propagator and measurement-noise draw are shared by all rows.  k
    separate episodes of the same seed would draw exactly those, because
    neither the loads nor the noise depend on the plant state, so every
    row's score and flag equal its candidate's own episode bit for bit.
    The loads are those the live load process draws for `seed`, replayed
    as a schedule, which gives the same episode bit for bit."""
    if steps < 1:
        raise ConfigurationError(f"validation episode needs steps >= 1, got {steps}")
    single = isinstance(gains, CascadeGains)
    candidates = [gains] if single else list(gains)
    env = GridEnv(params, gamma=0.0, seed=seed, terminate_on_violation=False)
    env.set_load_schedule(seeded_load_series(seed, steps, params.dt))
    env.reset(seed=seed)
    env.lockstep(len(candidates))
    policy = GridCascadePolicy(params, candidates)
    total = np.zeros(len(candidates))
    violated = np.zeros(len(candidates), dtype=bool)
    for _ in range(steps):
        _, _, r, violation = env.advance(policy.action(env.measurements()))
        total += r
        violated |= violation
    scores = total / steps
    if single:
        return float(scores[0]), bool(violated[0])
    return scores, violated


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

    All candidates go to validation_score as one batch: the sweep is a
    single lockstep episode whose load, propagator and measurement-noise
    draw per step are shared by every candidate, and each trial's score
    and flag equal that candidate's own episode bit for bit.
    """
    base = analytic_cascade_gains(params)
    candidates = [
        CascadeGains(
            kp_v=base.kp_v * fkp_v, ki_v=base.ki_v * fki_v,
            kp_i=base.kp_i * fkp_i, ki_i=base.ki_i * fki_i,
        )
        for fkp_v, fki_v, fkp_i, fki_i in product(factors_outer, factors_outer,
                                                  factors_inner, factors_inner)
    ]
    scores, violated = validation_score(params, candidates, seed, steps)
    best_gains = None
    best_score = -np.inf
    trials = []
    for gains, score, bad in zip(candidates, scores.tolist(), violated.tolist()):
        trials.append({"gains": gains.as_dict(), "score": score, "violated": bad})
        if not bad and score > best_score:
            best_score = score
            best_gains = gains
    if best_gains is None:
        raise ConfigurationError("no stabilizing gain candidate found in the search grid")
    report = {"best_score": best_score, "trials": trials, "seed": seed, "steps": steps}
    return best_gains, report
